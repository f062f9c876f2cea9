// Flat open-addressing map from an aligned address to a small value, for
// per-access paths where std::unordered_map's node allocation and pointer
// chasing dominate (the per-line NVM wear counter, the core's store-word
// index). One power-of-two slot array, Fibonacci hashing, linear probing,
// backward-shift deletion (no tombstones, so probe chains never rot) and
// doubling at half load. Keys are word- or line-aligned addresses, so
// kEmpty (all ones) can never collide with a real key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace ntcsim {

template <typename V>
class AddrTable {
 public:
  /// `capacity` is rounded up to a power of two (at least 16 slots).
  explicit AddrTable(std::size_t capacity = 16) { reset_(capacity); }

  /// The value for `key`, value-initialized on first use.
  V& operator[](Addr key) {
    NTC_ASSERT(key != kEmpty, "AddrTable key collides with the empty marker");
    std::size_t i = home_(key);
    for (; slots_[i].key != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      grow_();
      return (*this)[key];
    }
    slots_[i].key = key;
    slots_[i].value = V{};
    ++size_;
    return slots_[i].value;
  }

  /// Null when `key` is absent.
  const V* find(Addr key) const {
    for (std::size_t i = home_(key); slots_[i].key != kEmpty;
         i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
    }
    return nullptr;
  }

  void erase(Addr key) {
    std::size_t hole = home_(key);
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kEmpty) return;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull each later member of the probe run into the
    // hole unless that would move it before its home slot.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t from_home = (j - home_(slots_[j].key)) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmpty;
    --size_;
  }

  std::size_t size() const { return size_; }

  /// Visit every (key, value) pair, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) f(s.key, s.value);
    }
  }

 private:
  static constexpr Addr kEmpty = ~static_cast<Addr>(0);
  struct Slot {
    Addr key = kEmpty;
    V value{};
  };

  std::size_t home_(Addr key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void reset_(std::size_t capacity) {
    std::size_t n = 16;
    unsigned bits = 4;
    while (n < capacity) {
      n <<= 1;
      ++bits;
    }
    slots_.assign(n, Slot{});
    mask_ = n - 1;
    shift_ = 64 - bits;
    size_ = 0;
  }

  void grow_() {
    std::vector<Slot> old = std::move(slots_);
    reset_(old.size() * 2);
    for (const Slot& s : old) {
      if (s.key != kEmpty) (*this)[s.key] = s.value;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ntcsim
