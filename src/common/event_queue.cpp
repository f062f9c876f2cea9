#include "common/event_queue.hpp"

#include <utility>

namespace ntcsim {

void EventQueue::schedule_at(Cycle when, Callback cb) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  heap_.push_back(Event{when, next_seq_++, slot});
  sift_up_(heap_.size() - 1);
}

void EventQueue::sift_up_(std::size_t i) {
  const Event e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before_(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down_(std::size_t i) {
  const std::size_t n = heap_.size();
  const Event e = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before_(heap_[child + 1], heap_[child])) ++child;
    if (!before_(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

void EventQueue::drain_until(Cycle now) {
  while (!heap_.empty() && heap_.front().when <= now) {
    const std::uint32_t slot = heap_.front().slot;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_(0);
    // Move out and free the slot before invoking: the callback may
    // schedule new events, which may reuse the slot or grow the slab.
    Callback cb = std::move(slots_[slot]);
    free_slots_.push_back(slot);
    cb();
  }
}

void EventQueue::clear() {
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
  next_seq_ = 0;
}

}  // namespace ntcsim
