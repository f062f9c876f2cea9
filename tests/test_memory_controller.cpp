#include "mem/memory_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace ntcsim::mem {
namespace {

MemCtrlConfig small_cfg() {
  MemCtrlConfig c;
  c.read_queue = 4;
  c.write_queue = 8;
  c.ranks = 1;
  c.banks_per_rank = 2;
  c.bus_latency = 2;
  c.timing.row_hit = 10;
  c.timing.row_miss = 30;
  c.timing.write_extra = 5;
  c.timing.burst = 4;
  return c;
}

class McTest : public ::testing::Test {
 protected:
  McTest() : mc_("nvm", small_cfg(), events_, stats_) {}

  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      events_.drain_until(now_);
      mc_.tick(now_);
      ++now_;
    }
    events_.drain_until(now_);
  }

  MemRequest read(Addr line, std::function<void(const MemRequest&)> cb = {}) {
    MemRequest r;
    r.op = MemOp::kRead;
    r.line_addr = line;
    r.on_complete = std::move(cb);
    return r;
  }
  MemRequest write(Addr line, std::function<void(const MemRequest&)> cb = {}) {
    MemRequest r;
    r.op = MemOp::kWrite;
    r.line_addr = line;
    r.persistent = true;
    r.on_complete = std::move(cb);
    return r;
  }

  EventQueue events_;
  StatSet stats_;
  MemoryController mc_;
  Cycle now_ = 0;
};

TEST_F(McTest, ReadCompletesWithCallback) {
  Cycle done_at = 0;
  bool done = false;
  ASSERT_TRUE(mc_.enqueue(read(0, [&](const MemRequest&) {
                            done = true;
                            done_at = now_;
                          }),
                          now_));
  run(100);
  EXPECT_TRUE(done);
  // Row miss 30 + burst 4 + bus 2 = 36 (plus the tick it was picked up).
  EXPECT_GE(done_at, 36u);
  EXPECT_LE(done_at, 40u);
  EXPECT_EQ(stats_.counter_value("nvm.reads"), 1u);
  EXPECT_EQ(stats_.counter_value("nvm.row_misses"), 1u);
}

TEST_F(McTest, RowHitIsFaster) {
  std::vector<Cycle> done;
  ASSERT_TRUE(mc_.enqueue(read(0, [&](const MemRequest&) { done.push_back(now_); }), now_));
  run(60);
  // 128 B away: the next line of the same bank (2 banks), same open row.
  ASSERT_TRUE(mc_.enqueue(read(128, [&](const MemRequest&) { done.push_back(now_); }), now_));
  run(60);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(stats_.counter_value("nvm.row_hits"), 1u);
  EXPECT_LT(done[1] - 60, done[0]);  // the hit was served faster
}

TEST_F(McTest, ReadQueueFullRejects) {
  for (unsigned i = 0; i < 4; ++i) {
    ASSERT_TRUE(mc_.enqueue(read(i * (8 << 10) * 2), now_));
  }
  EXPECT_FALSE(mc_.enqueue(read(1 << 20), now_));
  run(200);
  EXPECT_TRUE(mc_.enqueue(read(1 << 20), now_));
}

TEST_F(McTest, ReadsHavePriorityOverWrites) {
  std::vector<char> order;
  ASSERT_TRUE(mc_.enqueue(write(0, [&](const MemRequest&) { order.push_back('W'); }), now_));
  ASSERT_TRUE(mc_.enqueue(read(64, [&](const MemRequest&) { order.push_back('R'); }), now_));
  run(200);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'R');
}

TEST_F(McTest, WriteDrainTriggersAtHighWatermark) {
  // Fill the write queue to >= 80 % (7 of 8) with distinct lines.
  for (unsigned i = 0; i < 7; ++i) {
    ASSERT_TRUE(mc_.enqueue(write((8ULL << 10) * i), now_));
  }
  run(400);
  EXPECT_GE(stats_.counter_value("nvm.drain_mode_entries"), 1u);
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 7u);
}

TEST_F(McTest, IdleChannelRetiresWritesWithoutDrainMode) {
  ASSERT_TRUE(mc_.enqueue(write(0), now_));
  run(100);
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 1u);
  EXPECT_EQ(stats_.counter_value("nvm.drain_mode_entries"), 0u);
}

TEST_F(McTest, SameLineWritesCompleteInOrder) {
  std::vector<int> order;
  // Two writes to the same line plus one to another bank; same-line pair
  // must complete 1 before 2 even though FR-FCFS could reorder.
  ASSERT_TRUE(mc_.enqueue(write(0, [&](const MemRequest&) { order.push_back(1); }), now_));
  ASSERT_TRUE(mc_.enqueue(write(8 << 10, [&](const MemRequest&) { order.push_back(3); }), now_));
  ASSERT_TRUE(mc_.enqueue(write(0, [&](const MemRequest&) { order.push_back(2); }), now_));
  run(400);
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](int v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(1), pos(2));
}

TEST_F(McTest, ReadForwardedFromWriteQueue) {
  bool read_done = false;
  ASSERT_TRUE(mc_.enqueue(write(128), now_));
  ASSERT_TRUE(mc_.enqueue(read(128, [&](const MemRequest&) { read_done = true; }), now_));
  // Forwarding completes after bus latency only, without an array read.
  run(5);
  EXPECT_TRUE(read_done);
  EXPECT_EQ(stats_.counter_value("nvm.wq_forwards"), 1u);
}

TEST_F(McTest, PersistentWriteReportsSource) {
  MemRequest w = write(0);
  w.source = Source::kTxCache;
  ASSERT_TRUE(mc_.enqueue(std::move(w), now_));
  run(100);
  EXPECT_EQ(stats_.counter_value("nvm.writes.txcache"), 1u);
  EXPECT_EQ(stats_.counter_value("nvm.writes.demand"), 0u);
}

TEST_F(McTest, IdleReportsCorrectly) {
  EXPECT_TRUE(mc_.idle());
  ASSERT_TRUE(mc_.enqueue(read(0), now_));
  EXPECT_FALSE(mc_.idle());
  run(100);
  EXPECT_TRUE(mc_.idle());
}

TEST_F(McTest, BanksOverlapAccesses) {
  // Two reads to different banks complete faster than two to one bank.
  Cycle done_two_banks = 0;
  int remaining = 2;
  auto cb = [&](const MemRequest&) {
    if (--remaining == 0) done_two_banks = now_;
  };
  ASSERT_TRUE(mc_.enqueue(read(0, cb), now_));
  ASSERT_TRUE(mc_.enqueue(read(64, cb), now_));  // adjacent line: other bank
  run(300);
  ASSERT_EQ(remaining, 0);

  // Same bank, different rows: serialized row misses.
  MemoryController mc2("nvm2", small_cfg(), events_, stats_);
  Cycle start = now_;
  Cycle done_one_bank = 0;
  int remaining2 = 2;
  auto cb2 = [&](const MemRequest&) {
    if (--remaining2 == 0) done_one_bank = now_;
  };
  ASSERT_TRUE(mc2.enqueue(read(0, cb2), now_));
  ASSERT_TRUE(mc2.enqueue(read(16384, cb2), now_));  // same bank, other row
  for (int i = 0; i < 300; ++i) {
    events_.drain_until(now_);
    mc2.tick(now_);
    ++now_;
  }
  events_.drain_until(now_);
  ASSERT_EQ(remaining2, 0);
  EXPECT_GT(done_one_bank - start, done_two_banks);
}

// ---------------------------------------------------------------------------
// Scheduler equivalence. RefController is a test-local copy of the original
// scheduler: every tick rescans the whole queue and enforces same-line
// program order with a vector of lines already seen (quadratic in the queue
// length), and next_event_cycle() rescans both queues the same way — no
// idle bound, no per-entry blocked flag. It carries one addition, the
// drain-mode catch-up at enqueue, without which its own skipped runs would
// diverge from its stepped ones. The controller under test must issue the
// same requests in the same order, deliver every completion in the same
// cycle, and land its clock skips on the same cycles.

class RefController {
 public:
  RefController(const MemCtrlConfig& cfg, EventQueue& events)
      : cfg_(cfg),
        events_(&events),
        map_(cfg.ranks, cfg.banks_per_rank, 8 << 10, cfg.channels) {
    banks_.assign(map_.total_banks(), Bank{cfg_.timing});
    acts_.assign(cfg_.ranks, {});
    last_write_end_.assign(cfg_.ranks, 0);
    for (unsigned r = 0; r < cfg_.ranks && cfg_.refresh_interval > 0; ++r) {
      next_refresh_.push_back(cfg_.refresh_interval * (r + 1) / cfg_.ranks);
    }
  }

  bool idle() const {
    return read_q_.empty() && write_q_.empty() && in_flight_ == 0;
  }

  bool enqueue(MemRequest req, Cycle now) {
    if (now > last_tick_ + 1) update_drain_();
    if (req.op == MemOp::kRead) {
      if (read_q_.size() >= cfg_.read_queue) return false;
      for (const MemRequest& w : write_q_) {
        if (w.line_addr == req.line_addr) {
          deliver_(now + cfg_.bus_latency, std::move(req), false);
          return true;
        }
      }
      read_q_.push_back(std::move(req));
      return true;
    }
    if (write_q_.size() >= cfg_.write_queue) return false;
    write_q_.push_back(std::move(req));
    return true;
  }

  void tick(Cycle now) {
    refresh_(now);
    update_drain_();
    last_tick_ = now;
    if (draining_) {
      if (try_issue_(write_q_, now)) return;
      try_issue_(read_q_, now);
    } else {
      if (try_issue_(read_q_, now)) return;
      if (read_q_.empty()) try_issue_(write_q_, now);
    }
  }

  Cycle next_event_cycle(Cycle now) const {
    Cycle next = kNeverCycle;
    const unsigned per = map_.banks_per_rank();
    for (unsigned r = 0; r < next_refresh_.size(); ++r) {
      Cycle t = std::max(next_refresh_[r], now + 1);
      for (unsigned b = 0; b < per; ++b) {
        t = std::max(t, banks_[r * per + b].busy_until());
      }
      next = std::min(next, t);
    }
    next = std::min(next, queue_next_(read_q_, now));
    next = std::min(next, queue_next_(write_q_, now));
    return std::max(next, now + 1);
  }

 private:
  const Bank& bank_of_(const MemRequest& r) const {
    return banks_[map_.flat_bank(map_.decode(r.line_addr))];
  }

  bool constrained_(unsigned rank, bool is_read, bool opens_row,
                    Cycle now) const {
    if (cfg_.tfaw > 0 && opens_row && acts_[rank][0] + cfg_.tfaw > now) {
      return true;
    }
    return cfg_.twtr > 0 && is_read && last_write_end_[rank] + cfg_.twtr > now;
  }

  int pick_(const std::deque<MemRequest>& q, Cycle now) const {
    std::vector<Addr> seen;
    int oldest_ready = -1;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (std::find(seen.begin(), seen.end(), q[i].line_addr) != seen.end()) {
        continue;
      }
      seen.push_back(q[i].line_addr);
      const BankCoord c = map_.decode(q[i].line_addr);
      const Bank& bank = bank_of_(q[i]);
      if (!bank.ready_at(now)) continue;
      const bool hit = bank.row_hit(c.row);
      if (constrained_(c.rank, q[i].op == MemOp::kRead, !hit, now)) continue;
      if (hit) return static_cast<int>(i);
      if (oldest_ready < 0) oldest_ready = static_cast<int>(i);
    }
    return oldest_ready;
  }

  Cycle queue_next_(const std::deque<MemRequest>& q, Cycle now) const {
    std::vector<Addr> seen;
    Cycle next = kNeverCycle;
    for (const MemRequest& r : q) {
      if (std::find(seen.begin(), seen.end(), r.line_addr) != seen.end()) {
        continue;
      }
      seen.push_back(r.line_addr);
      const BankCoord c = map_.decode(r.line_addr);
      const Bank& bank = bank_of_(r);
      Cycle t = std::max(now + 1, bank.busy_until());
      if (cfg_.tfaw > 0 && !bank.row_hit(c.row)) {
        t = std::max(t, acts_[c.rank][0] + cfg_.tfaw);
      }
      if (cfg_.twtr > 0 && r.op == MemOp::kRead) {
        t = std::max(t, last_write_end_[c.rank] + cfg_.twtr);
      }
      next = std::min(next, t);
    }
    return next;
  }

  bool try_issue_(std::deque<MemRequest>& q, Cycle now) {
    const int i = pick_(q, now);
    if (i < 0) return false;
    MemRequest r = std::move(q[static_cast<std::size_t>(i)]);
    q.erase(q.begin() + i);
    const BankCoord c = map_.decode(r.line_addr);
    Bank& bank = banks_[map_.flat_bank(c)];
    if (!bank.row_hit(c.row)) {
      auto& a = acts_[c.rank];
      a[0] = now;
      std::sort(a.begin(), a.end());
    }
    const bool is_write = r.op == MemOp::kWrite;
    const Cycle done = bank.access(now, c.row, is_write);
    if (is_write) {
      last_write_end_[c.rank] = std::max(last_write_end_[c.rank], done);
    }
    const Cycle completion = std::max(done, bus_busy_until_) + cfg_.timing.burst;
    bus_busy_until_ = completion;
    deliver_(completion + cfg_.bus_latency, std::move(r), true);
    return true;
  }

  void deliver_(Cycle when, MemRequest r, bool in_flight) {
    if (in_flight) ++in_flight_;
    events_->schedule_at(when, [this, r = std::move(r), in_flight] {
      if (in_flight) --in_flight_;
      r.on_complete(r);
    });
  }

  void update_drain_() {
    const double occ = static_cast<double>(write_q_.size()) /
                       static_cast<double>(cfg_.write_queue);
    if (!draining_ && occ >= cfg_.drain_high_watermark) {
      draining_ = true;
    } else if (draining_ && occ <= cfg_.drain_low_watermark) {
      draining_ = false;
    }
  }

  void refresh_(Cycle now) {
    const unsigned per = map_.banks_per_rank();
    for (unsigned r = 0; r < next_refresh_.size(); ++r) {
      if (now < next_refresh_[r]) continue;
      bool all_idle = true;
      for (unsigned b = 0; b < per; ++b) {
        if (!banks_[r * per + b].ready_at(now)) all_idle = false;
      }
      if (!all_idle) continue;
      for (unsigned b = 0; b < per; ++b) {
        banks_[r * per + b].block_until(now + cfg_.refresh_cycles);
      }
      next_refresh_[r] = now + cfg_.refresh_interval;
    }
  }

  MemCtrlConfig cfg_;
  EventQueue* events_;
  AddressMap map_;
  std::vector<Bank> banks_;
  std::deque<MemRequest> read_q_;
  std::deque<MemRequest> write_q_;
  std::vector<std::array<Cycle, 4>> acts_;
  std::vector<Cycle> last_write_end_;
  std::vector<Cycle> next_refresh_;
  Cycle bus_busy_until_ = 0;
  Cycle last_tick_ = 0;
  bool draining_ = false;
  unsigned in_flight_ = 0;
};

struct Arrival {
  Cycle at;
  bool is_read;
  Addr line;
};

/// Bursty mixed traffic over a small line pool: same-line repeats in both
/// queues, row hits and misses across two ranks, write bursts that cross
/// the drain watermark, and quiet gaps that leave the channel idle.
std::vector<Arrival> random_traffic(std::uint64_t seed, Cycle span) {
  Rng rng(seed);
  std::vector<Arrival> out;
  Cycle t = 0;
  while (t < span) {
    const bool burst = rng.chance(1, 4);
    const unsigned n = burst ? 4 + static_cast<unsigned>(rng.below(12)) : 1;
    const bool writes = rng.chance(1, 2);
    for (unsigned k = 0; k < n; ++k) {
      // 8 lines in each of 8 rows, spread over 2 ranks x 2 banks.
      const Addr line = rng.below(8) * 64 + rng.below(8) * (16u << 10);
      const bool is_read = burst ? !writes : rng.chance(1, 2);
      out.push_back({t, is_read, line});
      t += rng.below(3);
    }
    t += rng.chance(1, 8) ? 100 + rng.below(400) : rng.below(40);
  }
  return out;
}

MemCtrlConfig equivalence_cfg() {
  MemCtrlConfig c = small_cfg();
  c.ranks = 2;
  c.refresh_interval = 700;
  c.refresh_cycles = 45;
  c.tfaw = 90;
  c.twtr = 14;
  return c;
}

struct DriveResult {
  std::vector<std::pair<Cycle, int>> deliveries;  ///< (cycle, arrival index)
  Cycle ticks = 0;
};

/// Feeds `arrivals` in order to `mc` (an arrival the full queue rejects is
/// retried every cycle, holding back the ones behind it) until everything
/// is delivered. `skip`: after each tick, jump the clock to the next cycle
/// the controller, the event queue or the traffic can act, as the cluster
/// does.
template <typename Controller>
DriveResult drive(Controller& mc, EventQueue& events,
          const std::vector<Arrival>& arrivals, bool skip) {
  DriveResult run;
  std::size_t next = 0;
  Cycle now = 0;
  // A scheduler that stops issuing must fail the comparison, not hang.
  const Cycle limit = arrivals.back().at + 100000;
  while ((next < arrivals.size() || !mc.idle() || !events.empty()) &&
         now < limit) {
    events.drain_until(now);
    while (next < arrivals.size() && arrivals[next].at <= now) {
      const Arrival& a = arrivals[next];
      MemRequest r;
      r.op = a.is_read ? MemOp::kRead : MemOp::kWrite;
      r.line_addr = a.line;
      const int id = static_cast<int>(next);
      r.on_complete = [&run, &now, id](const MemRequest&) {
        run.deliveries.emplace_back(now, id);
      };
      if (!mc.enqueue(std::move(r), now)) break;
      ++next;
    }
    mc.tick(now);
    ++run.ticks;
    Cycle target = now + 1;
    if (skip) {
      target = mc.next_event_cycle(now);
      if (!events.empty()) target = std::min(target, events.next_cycle());
      if (next < arrivals.size()) {
        target = std::min(target, std::max(arrivals[next].at, now + 1));
      }
      if (target == kNeverCycle) target = now + 1;  // drained
    }
    now = target;
  }
  return run;
}

TEST(McEquivalence, MatchesTheQuadraticSchedulerOnRandomTraffic) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Arrival> arrivals = random_traffic(seed, 20000);
    DriveResult expected[2];
    DriveResult got[2];
    std::vector<std::uint64_t> counters[2];
    for (const bool skip : {false, true}) {
      EventQueue ref_events;
      RefController ref(equivalence_cfg(), ref_events);
      expected[skip] = drive(ref, ref_events, arrivals, skip);

      EventQueue events;
      StatSet stats;
      MemoryController mc("nvm", equivalence_cfg(), events, stats);
      mc.set_verify_idle_bound(true);
      got[skip] = drive(mc, events, arrivals, skip);
      for (const char* name : {"nvm.reads", "nvm.writes", "nvm.row_hits",
                               "nvm.row_misses", "nvm.drain_mode_entries",
                               "nvm.refreshes", "nvm.wq_forwards"}) {
        counters[skip].push_back(stats.counter_value(name));
      }
    }
    ASSERT_EQ(expected[0].deliveries.size(), arrivals.size());
    EXPECT_EQ(expected[1].deliveries, expected[0].deliveries);
    EXPECT_EQ(got[0].deliveries, expected[0].deliveries);
    EXPECT_EQ(got[1].deliveries, expected[0].deliveries);
    EXPECT_EQ(got[0].ticks, expected[0].ticks);
    EXPECT_EQ(got[1].ticks, expected[1].ticks)
        << "next_event_cycle() moved a clock skip";
    EXPECT_LT(got[1].ticks, got[0].ticks) << "no idle window was skipped";
    EXPECT_EQ(counters[1], counters[0]);
    EXPECT_GT(counters[0][5], 0u) << "traffic never crossed a refresh";
    EXPECT_GT(counters[0][4], 0u) << "traffic never entered write drain";
    EXPECT_GT(counters[0][6], 0u) << "no read forwarded from the wq";
  }
}

}  // namespace
}  // namespace ntcsim::mem
