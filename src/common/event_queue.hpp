// Discrete-event scheduler used for latency callbacks (cache fills, bus
// transfers, acknowledgment messages). Cycle-ticked components (cores,
// memory controllers, transaction caches) run in the System main loop;
// one-shot delayed actions go through this queue.
//
// The binary heap orders trivially-copyable {when, seq, slot} records, so
// a sift moves 24 bytes and never touches a std::function. The callbacks
// themselves live in a slab: schedule_at() moves the callback into a slot
// taken from a free list (or a new one), and firing moves it out and
// returns the slot before invoking it, so a callback that schedules more
// events reuses slots instead of growing the slab, and the slab never
// holds a fired callback's captures. Ordering is (cycle, insertion
// sequence) ascending; slot numbers never influence it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace ntcsim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` to fire at absolute cycle `when` (>= current drain point).
  /// Events scheduled for the same cycle fire in scheduling order.
  void schedule_at(Cycle when, Callback cb);

  /// Fire every event with time <= now, in (time, insertion) order.
  /// Callbacks may schedule further events, including for `now` itself.
  void drain_until(Cycle now);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// Cycle of the earliest pending event; only valid when !empty().
  Cycle next_cycle() const { return heap_.front().when; }
  /// Drop every pending event (destroying its callback) and restart the
  /// insertion sequence.
  void clear();

  /// Count of schedule_at() calls since construction (or clear()) — a
  /// hardware-independent cost metric: event churn per workload cell is
  /// deterministic, so the regression suite pins it without flaky
  /// wall-clock assertions.
  std::uint64_t total_pushes() const { return next_seq_; }

 private:
  struct Event {
    Cycle when;
    std::uint64_t seq;
    std::uint32_t slot;  ///< Index of the callback in slots_.
  };

  static bool before_(const Event& a, const Event& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void sift_up_(std::size_t i);
  void sift_down_(std::size_t i);

  std::vector<Event> heap_;  ///< Binary min-heap over (when, seq).
  std::vector<Callback> slots_;           ///< Callback slab.
  std::vector<std::uint32_t> free_slots_;  ///< Reusable slab indices.
  std::uint64_t next_seq_ = 0;
};

}  // namespace ntcsim
