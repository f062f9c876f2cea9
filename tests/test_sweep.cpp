// The parallel sweep runner's contract: worker-thread execution is
// invisible in the results — bit-identical Metrics to the serial path —
// and the process-wide pool itself orders results, propagates exceptions,
// keeps nested batches within the thread budget, blocks waiting callers,
// and degrades to inline execution at jobs=1 or a budget of 1.
#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/experiment.hpp"

namespace ntcsim::sim {
namespace {

// ---------------------------------------------------------------- pool --

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 100;
  std::atomic<int> hits[kCount] = {};
  parallel_for(kCount, 4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  parallel_for(0, 4, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, JobsOneRunsInlineAndInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t expected = 0;
  parallel_for(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(i, expected++);  // strict 0..n-1 order on the serial path
  });
  EXPECT_EQ(expected, 5u);
}

TEST(ParallelFor, MoreJobsThanWorkIsFine) {
  std::atomic<int> calls{0};
  parallel_for(2, 16, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ParallelFor, PropagatesExceptionsFromWorkers) {
  EXPECT_THROW(
      parallel_for(8, 4,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("cell failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, PropagatesExceptionsOnSerialPath) {
  EXPECT_THROW(
      parallel_for(8, 1,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("cell failed");
                   }),
      std::runtime_error);
}

TEST(RunJobs, ResultsArriveInIndexOrder) {
  const auto out =
      run_jobs(64, 8, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

/// Sets the process's thread budget for one test, then restores the
/// default.
struct ScopedBudget {
  explicit ScopedBudget(unsigned jobs) { set_thread_budget(jobs); }
  ~ScopedBudget() { set_thread_budget(0); }
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;
};

/// A 1 ms item that records the most items ever running at once.
struct PeakItems {
  std::atomic<unsigned> running{0}, peak{0}, done{0};
  void item() {
    const unsigned now = ++running;
    unsigned seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    --running;
    ++done;
  }
};

TEST(Pool, NestedBatchesNeverRunMoreItemsThanTheBudget) {
  // An outer width of 2 leaves each outer item a share of budget / 2
  // threads for its nested batch; the full width leaves it its own thread.
  for (const unsigned budget : {2u, 3u, 4u, 5u}) {
    for (const unsigned outer_jobs : {0u, 2u}) {
      ScopedBudget scoped(budget);
      PeakItems items;
      parallel_for(6, outer_jobs, [&](std::size_t) {
        parallel_for(8, 0, [&](std::size_t) { items.item(); });
      });
      EXPECT_EQ(items.done.load(), 6u * 8u) << "budget " << budget;
      EXPECT_LE(items.peak.load(), budget) << "budget " << budget;
    }
  }
}

TEST(Pool, NestedBatchRunsInFixedSlots) {
  ScopedBudget scoped(4);
  // Each of the two outer items has a share of 2 threads, so its nested
  // batch runs in two slots: items 0-3 on the outer item's own thread, and
  // items 4-7 together on one thread.
  std::thread::id outer[2];
  std::thread::id ran[2][8];
  PeakItems items;
  parallel_for(2, 2, [&](std::size_t o) {
    outer[o] = std::this_thread::get_id();
    parallel_for(8, 0, [&](std::size_t i) {
      ran[o][i] = std::this_thread::get_id();
      items.item();
    });
  });
  for (std::size_t o = 0; o < 2; ++o) {
    for (std::size_t i = 0; i < 8; ++i) {
      if (i < 4) {
        EXPECT_EQ(ran[o][i], outer[o]) << o << "/" << i;
      }
      EXPECT_EQ(ran[o][i], ran[o][i / 4 * 4]) << o << "/" << i;
    }
  }
  EXPECT_EQ(items.done.load(), 16u);
  EXPECT_LE(items.peak.load(), 4u);
}

TEST(Pool, NestedExceptionReachesItsOwnCallerOnly) {
  ScopedBudget scoped(4);
  std::atomic<int> finished_outer{0};
  std::atomic<bool> caught{false};
  // Outer width 2: item 1's nested batch has a share of 2 threads.
  parallel_for(4, 2, [&](std::size_t i) {
    if (i == 1) {
      try {
        parallel_for(8, 0, [](std::size_t j) {
          if (j >= 5) throw std::runtime_error("inner " + std::to_string(j));
        });
      } catch (const std::runtime_error& e) {
        caught = std::string(e.what()).rfind("inner ", 0) == 0;
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ++finished_outer;
  });
  EXPECT_TRUE(caught.load());
  EXPECT_EQ(finished_outer.load(), 4);  // siblings ran to completion
}

TEST(Pool, RethrowsTheLowestFailedIndex) {
  ScopedBudget scoped(4);
  // The caller claims index 0 before any worker can join, so 0 always
  // starts and is always the lowest failure.
  try {
    parallel_for(16, 0, [](std::size_t i) {
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(Pool, CallerBlocksWhileAHelperFinishes) {
  ScopedBudget scoped(2);
  std::atomic<bool> helper_started{false};
  const double cpu_before = thread_cpu_s();
  const auto wall_before = std::chrono::steady_clock::now();
  parallel_for(2, 0, [&](std::size_t i) {
    if (i == 1) {
      helper_started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      return;
    }
    // Hold index 0 until a worker has taken index 1, so the caller ends up
    // waiting on that worker.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!helper_started && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(helper_started.load());
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_before)
                          .count();
  EXPECT_GE(wall, 0.25);
  // A spinning caller would burn about the helper's 300 ms.
  EXPECT_LT(thread_cpu_s() - cpu_before, 0.1);
}

TEST(Pool, BudgetOfOneStartsNoThreadAndRunsInline) {
  ScopedBudget scoped(1);
  const PoolStats before = pool_stats();
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t expected = 0;
  parallel_for(16, 8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(i, expected++);
  });
  EXPECT_EQ(expected, 16u);
  // Node rounds of a multi-node cell stay on the caller too.
  SystemConfig cfg = SystemConfig::tiny();
  cfg.topo.nodes = 3;
  cfg.service.enabled = true;
  cfg.service.rate = 2.0;
  cfg.service.requests = 10;
  ExperimentOptions opts;
  opts.setup_scale = 0.01;
  EXPECT_GT(run_cell(Mechanism::kTc, WorkloadKind::kHashtable, cfg, opts)
                .requests,
            0u);
  const PoolStats after = pool_stats();
  EXPECT_EQ(after.threads_started, before.threads_started);
  EXPECT_EQ(after.helper_items, before.helper_items);
}

TEST(Pool, BudgetCapsAnExplicitBatchWidth) {
  ScopedBudget scoped(2);
  PeakItems items;
  parallel_for(32, 16, [&](std::size_t) { items.item(); });
  EXPECT_EQ(items.done.load(), 32u);
  EXPECT_LE(items.peak.load(), 2u);
}

TEST(DefaultJobs, HonorsEnvironmentVariable) {
  ::setenv("NTCSIM_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3u);
  ::setenv("NTCSIM_JOBS", "garbage", 1);
  EXPECT_GE(default_jobs(), 1u);  // falls back to hardware_concurrency
  ::unsetenv("NTCSIM_JOBS");
  EXPECT_GE(default_jobs(), 1u);
}

// ------------------------------------------------------- determinism ----

// Bitwise equality: the parallel path must not perturb a single field.
void expect_identical(const Metrics& a, const Metrics& b,
                      const char* label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.retired_uops, b.retired_uops) << label;
  EXPECT_EQ(a.committed_txs, b.committed_txs) << label;
  EXPECT_EQ(a.ipc, b.ipc) << label;
  EXPECT_EQ(a.tx_per_kilocycle, b.tx_per_kilocycle) << label;
  EXPECT_EQ(a.llc_miss_rate, b.llc_miss_rate) << label;
  EXPECT_EQ(a.nvm_writes, b.nvm_writes) << label;
  EXPECT_EQ(a.pload_latency, b.pload_latency) << label;
  EXPECT_EQ(a.pload_latency_p50, b.pload_latency_p50) << label;
  EXPECT_EQ(a.pload_latency_p99, b.pload_latency_p99) << label;
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.req_latency, b.req_latency) << label;
  EXPECT_EQ(a.req_latency_p50, b.req_latency_p50) << label;
  EXPECT_EQ(a.req_latency_p95, b.req_latency_p95) << label;
  EXPECT_EQ(a.req_latency_p99, b.req_latency_p99) << label;
  EXPECT_EQ(a.req_latency_p999, b.req_latency_p999) << label;
  EXPECT_EQ(a.nvm_reads, b.nvm_reads) << label;
  EXPECT_EQ(a.dram_writes, b.dram_writes) << label;
  EXPECT_EQ(a.llc_wb_dropped, b.llc_wb_dropped) << label;
  EXPECT_EQ(a.ntc_spills, b.ntc_spills) << label;
  EXPECT_EQ(a.ntc_stall_frac, b.ntc_stall_frac) << label;
}

ExperimentOptions quick_opts() {
  ExperimentOptions opts;
  // Small cells: the point is cross-thread identity, not cache pressure.
  opts.scale = 0.02;
  opts.setup_scale = 0.04;
  opts.seed = 7;
  return opts;
}

TEST(RunMatrix, ParallelIsBitIdenticalToSerial) {
  const SystemConfig base = SystemConfig::experiment();
  ExperimentOptions serial = quick_opts();
  serial.jobs = 1;
  ExperimentOptions parallel = quick_opts();
  parallel.jobs = 4;

  const Matrix a = run_matrix(base, serial);
  const Matrix b = run_matrix(base, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [wl, row] : a) {
    ASSERT_EQ(row.size(), b.at(wl).size());
    for (const auto& [mech, m] : row) {
      const std::string label = std::string(to_string(wl)) + "/" +
                                std::string(to_string(mech));
      expect_identical(m, b.at(wl).at(mech), label.c_str());
    }
  }
}

TEST(RunSweep, MatchesDirectRunCellAndKeepsSpecOrder) {
  const ExperimentOptions opts = quick_opts();
  std::vector<JobSpec> specs;
  SystemConfig cfg = SystemConfig::experiment();
  specs.push_back({Mechanism::kTc, WorkloadKind::kSps, cfg, opts});
  SystemConfig small = SystemConfig::experiment();
  small.ntc.size_bytes /= 4;  // distinct config: order mixups would show
  specs.push_back({Mechanism::kTc, WorkloadKind::kSps, small, opts});

  const std::vector<Metrics> swept = run_sweep(specs, 2);
  ASSERT_EQ(swept.size(), 2u);
  expect_identical(swept[0],
                   run_cell(Mechanism::kTc, WorkloadKind::kSps, cfg, opts),
                   "spec 0");
  expect_identical(swept[1],
                   run_cell(Mechanism::kTc, WorkloadKind::kSps, small, opts),
                   "spec 1");
}

// The acceptance contract of bench_tail_latency: a service-mode rate
// sweep (open-loop arrival stamping, tail-latency percentiles) must be
// bit-identical between --jobs=1 and --jobs=N, like every other sweep.
TEST(RunSweep, ServiceRateSweepIsBitIdenticalAcrossJobs) {
  const ExperimentOptions opts = quick_opts();
  std::vector<JobSpec> specs;
  for (double rate : {0.5, 2.0, 8.0}) {
    JobSpec spec;
    spec.mech = Mechanism::kTc;
    spec.wl = WorkloadKind::kHashtable;
    spec.cfg = SystemConfig::experiment();
    spec.cfg.service.enabled = true;
    spec.cfg.service.rate = rate;
    spec.cfg.service.requests = 25;
    spec.opts = opts;
    specs.push_back(spec);
  }
  const std::vector<Metrics> serial = run_sweep(specs, 1);
  const std::vector<Metrics> parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i].requests, 0u) << "rate point " << i;
    expect_identical(serial[i], parallel[i],
                     ("service rate point " + std::to_string(i)).c_str());
  }
}

// Cluster cells are still independent pure functions of their spec:
// sharded multi-node simulations must be bit-identical across any
// --jobs value, exactly like single-node cells.
TEST(RunSweep, MultiNodeCellsAreBitIdenticalAcrossJobs) {
  const ExperimentOptions opts = quick_opts();
  std::vector<JobSpec> specs;
  for (unsigned nodes : {1u, 3u}) {
    JobSpec spec;
    spec.mech = Mechanism::kTc;
    spec.wl = WorkloadKind::kHashtable;
    spec.cfg = SystemConfig::experiment();
    spec.cfg.topo.nodes = nodes;
    spec.cfg.service.enabled = true;
    spec.cfg.service.rate = 2.0;
    spec.cfg.service.requests = 25;
    spec.opts = opts;
    specs.push_back(spec);
  }
  const std::vector<Metrics> serial = run_sweep(specs, 1);
  const std::vector<Metrics> parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string label = "nodes point " + std::to_string(i);
    expect_identical(serial[i], parallel[i], label.c_str());
    EXPECT_EQ(serial[i].xshard_requests, parallel[i].xshard_requests) << label;
    ASSERT_EQ(serial[i].per_node.size(), parallel[i].per_node.size()) << label;
    for (std::size_t n = 0; n < serial[i].per_node.size(); ++n) {
      expect_identical(serial[i].per_node[n], parallel[i].per_node[n],
                       (label + " node " + std::to_string(n)).c_str());
    }
  }
  // The 3-node cell really sharded: breakdown present, requests served.
  ASSERT_EQ(serial[1].per_node.size(), 3u);
  EXPECT_GT(serial[1].requests, 0u);
}

TEST(ParseBenchArgs, JobsFlag) {
  char prog[] = "bench";
  char jobs[] = "--jobs=6";
  char scale[] = "--scale=0.25";
  char* argv[] = {prog, jobs, scale};
  const ExperimentOptions opts = parse_bench_args(3, argv);
  EXPECT_EQ(opts.jobs, 6u);
  EXPECT_DOUBLE_EQ(opts.scale, 0.25);
}

}  // namespace
}  // namespace ntcsim::sim
