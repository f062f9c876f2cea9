// One memory channel: read/write queues, bank-aware read-first scheduling
// with write-drain (Table 2: 8/64-entry queues, drain at 80 % full), and a
// completion path that delivers read fills and persistent-write
// acknowledgments after a bus delay.
//
// Per §3 of the paper the controller itself is UNMODIFIED by any
// persistence mechanism except for one addition: after completing a
// persistent write it sends an acknowledgment message (carrying the line
// address) back toward the transaction cache.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/addr_table.hpp"
#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/hot.hpp"
#include "common/stat_handle.hpp"
#include "common/stats.hpp"
#include "mem/address_map.hpp"
#include "mem/bank.hpp"
#include "mem/request.hpp"

namespace ntcsim::mem {

/// Per-line write-count summary for endurance analysis (NVM cells wear
/// out; which mechanism concentrates writes where is a first-order
/// persistent-memory concern).
struct WearStats {
  std::uint64_t lines_touched = 0;
  std::uint64_t total_writes = 0;
  std::uint64_t max_writes = 0;     ///< Hottest line.
  double mean_writes = 0.0;         ///< Over touched lines.
  Addr hottest_line = 0;            ///< Lowest address among ties.
};

class MemoryController {
 public:
  MemoryController(std::string name, const MemCtrlConfig& cfg, EventQueue& events,
                   StatSet& stats);

  /// Enqueue; returns false when the respective queue is full (the caller
  /// must retry — upstream components carry their own retry buffers).
  bool enqueue(MemRequest req, Cycle now);

  bool read_queue_full() const {
    return read_q_.entries.size() >= cfg_.read_queue;
  }
  bool write_queue_full() const {
    return write_q_.entries.size() >= cfg_.write_queue;
  }
  std::size_t pending_reads() const { return read_q_.entries.size(); }
  std::size_t pending_writes() const { return write_q_.entries.size(); }
  bool idle() const {
    return read_q_.entries.empty() && write_q_.entries.empty() &&
           in_flight_ == 0;
  }

  /// Advance one memory-channel cycle: pick at most one request to issue.
  void tick(Cycle now);

  /// Earliest cycle > now at which tick() could do work (quiescence
  /// contract): the earliest schedulable queue entry under the frozen
  /// bank/rank timing state, or the earliest rank refresh with its banks
  /// idle. kNeverCycle when the queues are empty and refresh is disabled
  /// (in-flight completions are event-driven).
  NTC_HOT Cycle next_event_cycle(Cycle now) const;

  /// Cross-check every tick() that the per-queue "nothing issuable before
  /// T" bound lets skip its scan against the full scan (on by default in
  /// Debug builds; the cluster turns it on under skip.verify).
  void set_verify_idle_bound(bool on) { verify_idle_bound_ = on; }

  const std::string& name() const { return name_; }

  /// Whole-run per-line wear summary (array writes, not queue traffic).
  WearStats wear() const;

 private:
  struct Pending {
    MemRequest req;
    Cycle arrival = 0;
    /// Decoded once at enqueue (line_addr is immutable afterwards); the
    /// scheduler re-examines queued entries and must not pay the full
    /// address decode per scan element.
    BankCoord coord;
    unsigned flat_bank = 0;
    /// §3 program order: an older entry to the same line is still queued.
    /// Set at enqueue, cleared when that older entry issues.
    bool blocked = false;
  };

  /// One request queue plus its idle bound: after a pick() that found
  /// nothing, no entry can issue before `idle_until` unless the queue or
  /// the bank/rank timing state changes, and every such change resets it
  /// to 0 (docs/ARCHITECTURE.md "Clock advance & quiescence").
  struct RequestQueue {
    std::deque<Pending> entries;
    Cycle idle_until = 0;
  };

  /// Index of the next schedulable entry under FR-FCFS, or -1 if none is
  /// issuable now; on -1, `*next` is the earliest cycle > now at which
  /// one becomes schedulable under the frozen timing state.
  int pick(const std::deque<Pending>& q, Cycle now, Cycle* next) const;
  /// Earliest cycle at which `p`'s bank is ready and its rank's tFAW (row
  /// misses only: `hit` is false) and tWTR windows have passed, under the
  /// current timing state.
  Cycle ready_cycle_(const Pending& p, bool hit) const;
  bool try_issue_from_(RequestQueue& q, Cycle now);
  void push_(RequestQueue& q, MemRequest req, Cycle now);
  void issue(Pending p, Cycle now);
  /// Deliver `req` to its requester at `when` (`in_flight`: it holds a
  /// bank slot counted in in_flight_).
  void complete_at_(Cycle when, MemRequest req, bool in_flight);
  /// Per-rank refresh bookkeeping (no-op when refresh is disabled).
  void maybe_refresh_(Cycle now);
  /// Enter/leave write-drain mode from the current write-queue occupancy.
  void update_drain_mode_();

  std::string name_;
  MemCtrlConfig cfg_;
  EventQueue* events_;
  StatSet* stats_;
  AddressMap map_;
  std::vector<Bank> banks_;
  RequestQueue read_q_;
  RequestQueue write_q_;
#ifndef NDEBUG
  bool verify_idle_bound_ = true;
#else
  bool verify_idle_bound_ = false;
#endif
  AddrTable<std::uint32_t> wear_;  ///< line -> array writes.
  Cycle bus_busy_until_ = 0;
  std::vector<Cycle> next_refresh_;  ///< Per rank; empty when disabled.
  /// tFAW sliding window: the last four activate times per rank.
  std::vector<std::array<Cycle, 4>> acts_;
  std::vector<Cycle> last_write_end_;  ///< Per rank, for tWTR.
  bool draining_ = false;
  Cycle last_tick_ = 0;  ///< Cycle of the latest tick().
  unsigned in_flight_ = 0;

  CounterHandle stat_reads_;
  CounterHandle stat_writes_;
  CounterHandle stat_writes_by_source_[kSourceCount];
  CounterHandle stat_row_hits_;
  CounterHandle stat_row_misses_;
  CounterHandle stat_drain_entries_;
  CounterHandle stat_refreshes_;
  CounterHandle stat_wq_forwards_;
  AccumulatorHandle stat_read_latency_;
};

}  // namespace ntcsim::mem
