#include "mem/memory_controller.hpp"

#include <algorithm>
#include <cinttypes>
#include <initializer_list>
#include <memory>
#include <utility>

#include "common/assert.hpp"

namespace ntcsim::mem {

MemoryController::MemoryController(std::string name, const MemCtrlConfig& cfg,
                                   EventQueue& events, StatSet& stats)
    : name_(std::move(name)),
      cfg_(cfg),
      events_(&events),
      stats_(&stats),
      map_(cfg.ranks, cfg.banks_per_rank, 8 << 10, cfg.channels) {
  banks_.assign(map_.total_banks(), Bank{cfg_.timing});
  acts_.assign(cfg_.ranks, {});
  last_write_end_.assign(cfg_.ranks, 0);
  stat_reads_ = CounterHandle(*stats_, name_ + ".reads");
  stat_writes_ = CounterHandle(*stats_, name_ + ".writes");
  for (unsigned s = 0; s < kSourceCount; ++s) {
    stat_writes_by_source_[s] = CounterHandle(
        *stats_, name_ + ".writes." + to_string(static_cast<Source>(s)));
  }
  stat_row_hits_ = CounterHandle(*stats_, name_ + ".row_hits");
  stat_row_misses_ = CounterHandle(*stats_, name_ + ".row_misses");
  stat_drain_entries_ = CounterHandle(*stats_, name_ + ".drain_mode_entries");
  stat_refreshes_ = CounterHandle(*stats_, name_ + ".refreshes");
  if (cfg_.refresh_interval > 0) {
    // Stagger ranks across the interval, as real controllers do.
    for (unsigned r = 0; r < cfg_.ranks; ++r) {
      next_refresh_.push_back(cfg_.refresh_interval * (r + 1) / cfg_.ranks);
    }
  }
  stat_wq_forwards_ = CounterHandle(*stats_, name_ + ".wq_forwards");
  stat_read_latency_ = AccumulatorHandle(*stats_, name_ + ".read_latency");
}

bool MemoryController::enqueue(MemRequest req, Cycle now) {
  NTC_CHECK_MSG(line_of(req.line_addr) == req.line_addr,
                "%s: unaligned request address 0x%" PRIx64
                " (controllers operate on whole cache lines)",
                name_.c_str(), req.line_addr);
  // The drain-mode update is the one thing a tick does that
  // next_event_cycle() does not promise: an issue that takes the write
  // queue under the low watermark leaves drain mode at the NEXT tick. When
  // the clock skipped that tick, apply it now, before this request changes
  // the occupancy it would have seen.
  if (now > last_tick_ + 1) update_drain_mode_();
  if (req.op == MemOp::kRead) {
    if (read_queue_full()) return false;
    // Forward from the write queue: a read of a line with a pending write is
    // serviced from the queue entry without touching the array.
    for (const Pending& w : write_q_.entries) {
      if (w.req.line_addr == req.line_addr) {
        stat_wq_forwards_->inc();
        stat_reads_->inc();
        if (req.on_complete) {
          complete_at_(now + cfg_.bus_latency, std::move(req), false);
        }
        return true;
      }
    }
    push_(read_q_, std::move(req), now);
    return true;
  }
  if (write_queue_full()) return false;
  push_(write_q_, std::move(req), now);
  return true;
}

void MemoryController::push_(RequestQueue& q, MemRequest req, Cycle now) {
  Pending p;
  p.req = std::move(req);
  p.arrival = now;
  p.coord = map_.decode(p.req.line_addr);
  p.flat_bank = map_.flat_bank(p.coord);
  for (const Pending& older : q.entries) {
    if (older.req.line_addr == p.req.line_addr) {
      p.blocked = true;
      break;
    }
  }
  q.entries.push_back(std::move(p));
  q.idle_until = 0;
}

Cycle MemoryController::ready_cycle_(const Pending& p, bool hit) const {
  Cycle t = banks_[p.flat_bank].busy_until();
  // tFAW: a fifth activation within the window must wait.
  if (cfg_.tfaw > 0 && !hit) {
    t = std::max(t, acts_[p.coord.rank][0] + cfg_.tfaw);  // sorted ascending
  }
  // tWTR: a read cannot follow a write on the same rank too closely.
  if (cfg_.twtr > 0 && p.req.op == MemOp::kRead) {
    t = std::max(t, last_write_end_[p.coord.rank] + cfg_.twtr);
  }
  return t;
}

int MemoryController::pick(const std::deque<Pending>& q, Cycle now,
                           Cycle* next) const {
  // §3: "different write requests of conflicted addresses are issued to the
  // NVM in program order" — a blocked entry waits for its older same-line
  // entry, so one pass over the unblocked ones decides.
  int oldest_ready = -1;
  Cycle earliest = kNeverCycle;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const Pending& p = q[i];
    if (p.blocked) continue;
    const bool hit = banks_[p.flat_bank].row_hit(p.coord.row);
    const Cycle at = ready_cycle_(p, hit);
    if (at > now) {
      earliest = std::min(earliest, at);
      continue;
    }
    if (hit) return static_cast<int>(i);  // FR: row hit first.
    if (oldest_ready < 0) oldest_ready = static_cast<int>(i);
  }
  *next = earliest;
  return oldest_ready;  // FCFS among bank-ready row misses.
}

Cycle MemoryController::next_event_cycle(Cycle now) const {
  Cycle next = kNeverCycle;
  // Refresh fires (blocking the rank, bumping its stat) as soon as its
  // deadline passes AND every bank of the rank is idle.
  for (unsigned r = 0; r < next_refresh_.size(); ++r) {
    Cycle t = std::max(next_refresh_[r], now + 1);
    for (unsigned b = 0; b < map_.banks_per_rank(); ++b) {
      t = std::max(t, banks_[r * map_.banks_per_rank() + b].busy_until());
    }
    next = std::min(next, t);
  }
  // Each queue's earliest schedulable entry, valid while nothing issues —
  // exactly the window the cluster may skip. A live idle bound already
  // holds it; otherwise scan.
  for (const RequestQueue* q : {&read_q_, &write_q_}) {
    if (next <= now + 1) return now + 1;
    Cycle t = q->idle_until;
    if (t <= now && pick(q->entries, now, &t) >= 0) return now + 1;
    next = std::min(next, t);
  }
  return next <= now + 1 ? now + 1 : next;
}

void MemoryController::maybe_refresh_(Cycle now) {
  for (unsigned r = 0; r < next_refresh_.size(); ++r) {
    if (now < next_refresh_[r]) continue;
    // All banks of the rank go unavailable for tRFC; rows close.
    bool all_idle = true;
    for (unsigned b = 0; b < map_.banks_per_rank(); ++b) {
      if (!banks_[r * map_.banks_per_rank() + b].ready_at(now)) {
        all_idle = false;
      }
    }
    if (!all_idle) continue;  // refresh waits for in-flight accesses
    for (unsigned b = 0; b < map_.banks_per_rank(); ++b) {
      banks_[r * map_.banks_per_rank() + b].block_until(now +
                                                        cfg_.refresh_cycles);
    }
    next_refresh_[r] = now + cfg_.refresh_interval;
    stat_refreshes_->inc();
    read_q_.idle_until = 0;
    write_q_.idle_until = 0;
  }
}

bool MemoryController::try_issue_from_(RequestQueue& q, Cycle now) {
  if (now < q.idle_until) {
    if (verify_idle_bound_) {
      Cycle unused;
      NTC_CHECK_MSG(pick(q.entries, now, &unused) < 0,
                    "%s: an entry is issuable at cycle %" PRIu64
                    " inside the idle bound %" PRIu64,
                    name_.c_str(), now, q.idle_until);
    }
    return false;
  }
  const int i = pick(q.entries, now, &q.idle_until);
  if (i < 0) return false;
  auto it = q.entries.begin() + i;
  Pending p = std::move(*it);
  // The oldest remaining entry to the same line is next in program order.
  for (it = q.entries.erase(it); it != q.entries.end(); ++it) {
    if (it->req.line_addr == p.req.line_addr) {
      it->blocked = false;
      break;
    }
  }
  // Issuing opens a row (lifting tFAW for hits behind it) and moves bank,
  // bus and tWTR state: both bounds are stale.
  read_q_.idle_until = 0;
  write_q_.idle_until = 0;
  issue(std::move(p), now);
  return true;
}

void MemoryController::update_drain_mode_() {
  // Write-drain policy (Table 2): read-first normally; once the write queue
  // crosses the high watermark, service writes until the low watermark.
  const double occ = static_cast<double>(write_q_.entries.size()) /
                     static_cast<double>(cfg_.write_queue);
  if (!draining_ && occ >= cfg_.drain_high_watermark) {
    draining_ = true;
    stat_drain_entries_->inc();
  } else if (draining_ && occ <= cfg_.drain_low_watermark) {
    draining_ = false;
  }
}

void MemoryController::tick(Cycle now) {
  maybe_refresh_(now);
  update_drain_mode_();
  last_tick_ = now;

  if (draining_) {
    if (try_issue_from_(write_q_, now)) return;
    try_issue_from_(read_q_, now);
  } else {
    if (try_issue_from_(read_q_, now)) return;
    // Opportunistic writes: reads have priority, but an idle channel may
    // still retire writes (read-first, not read-only).
    if (read_q_.entries.empty()) try_issue_from_(write_q_, now);
  }
}

void MemoryController::issue(Pending p, Cycle now) {
  const BankCoord& c = p.coord;
  Bank& bank = banks_[p.flat_bank];
  const bool is_write = p.req.op == MemOp::kWrite;

  if (bank.row_hit(c.row)) {
    stat_row_hits_->inc();
  } else {
    stat_row_misses_->inc();
    // Record the activation for the tFAW window (sorted ascending).
    auto& a = acts_[c.rank];
    a[0] = now;
    std::sort(a.begin(), a.end());
  }
  Cycle done = bank.access(now, c.row, is_write);
  if (is_write) {
    last_write_end_[c.rank] = std::max(last_write_end_[c.rank], done);
  }

  // Serialize the shared data bus: each transfer occupies `burst` cycles.
  Cycle xfer_start = std::max(done, bus_busy_until_);
  Cycle completion = xfer_start + cfg_.timing.burst;
  bus_busy_until_ = completion;

  if (is_write) {
    stat_writes_->inc();
    stat_writes_by_source_[static_cast<unsigned>(p.req.source)]->inc();
    ++wear_[p.req.line_addr];
  } else {
    stat_reads_->inc();
    stat_read_latency_->add(static_cast<double>(completion + cfg_.bus_latency -
                                                p.arrival));
  }

  ++in_flight_;
  complete_at_(completion + cfg_.bus_latency, std::move(p.req), true);
}

void MemoryController::complete_at_(Cycle when, MemRequest req,
                                    bool in_flight) {
  auto done_req = std::make_shared<MemRequest>(std::move(req));
  events_->schedule_at(when, [this, done_req, in_flight] {
    if (in_flight) {
      NTC_CHECK_MSG(in_flight_ > 0,
                    "%s: completion for line 0x%" PRIx64
                    " with no request in flight",
                    name_.c_str(), done_req->line_addr);
      --in_flight_;
    }
    if (done_req->on_complete) done_req->on_complete(*done_req);
  });
}

WearStats MemoryController::wear() const {
  WearStats w;
  w.lines_touched = wear_.size();
  wear_.for_each([&w](Addr line, std::uint32_t count) {
    w.total_writes += count;
    if (count > w.max_writes ||
        (count == w.max_writes && line < w.hottest_line)) {
      w.max_writes = count;
      w.hottest_line = line;
    }
  });
  if (w.lines_touched > 0) {
    w.mean_writes = static_cast<double>(w.total_writes) /
                    static_cast<double>(w.lines_touched);
  }
  return w;
}

}  // namespace ntcsim::mem
