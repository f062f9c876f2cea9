// Parallel sweep runner for the evaluation harness.
//
// Every cell of the paper's mechanism x workload matrix — and every point
// of an ablation sweep — is an independent, deterministic simulation: it
// owns its SystemConfig, SimHeap, workload generator and System, and the
// only RNG involved is seeded per cell. That independence makes cell-level
// parallelism safe: running cells on worker threads produces bit-identical
// Metrics to the serial loop, in any interleaving (enforced by
// tests/test_sweep.cpp). The nodes of one cluster are independent the same
// way, so Cluster runs them as batches too (topo/cluster.hpp).
//
// Every batch runs on one process-wide worker pool. The process has a
// thread budget — `--jobs` of ntcsim or a bench binary, else NTCSIM_JOBS,
// else the hardware thread count — and never runs more than that many batch
// items at once: at most budget - 1 pool threads work at a time, and the
// thread that calls parallel_for is the last one. The caller works its own
// batch; idle pool workers join open batches. A batch started inside an
// item (a cluster's node rounds inside a sweep cell) is nested: it may use
// only that item's share of the budget — the budget divided by the width
// of the batch the item belongs to — its caller included, so only workers
// that are idle then can help it. A top-level batch deals its items one at
// a time, so uneven cells load-balance; a nested batch is split into one
// fixed slot per thread of its share, so the part of an item's work that
// the item's own thread runs is the same on every run. A budget of 1 is
// the serial path and starts no thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"

namespace ntcsim::sim {

/// The thread budget when none was set: the NTCSIM_JOBS environment
/// variable if it is a whole number in 1..1024, otherwise
/// std::thread::hardware_concurrency(), never less than 1.
unsigned default_jobs();

/// Set the process's thread budget (a `--jobs` value); 0 restores
/// the default, default_jobs() read once per process. Takes effect for
/// batches that start afterwards.
void set_thread_budget(unsigned jobs);

/// Pool counters since process start, for tests: threads the pool has
/// started, and batch items run on them rather than on a batch's caller.
struct PoolStats {
  std::uint64_t threads_started = 0;
  std::uint64_t helper_items = 0;
};
PoolStats pool_stats();

/// Run fn(0) .. fn(count - 1) as one batch on at most `jobs` threads at
/// once, the calling thread included (0 = the thread budget, or inside a
/// batch item that item's share of it; a larger value is capped at that).
/// At top level indices are handed out one at a time, so uneven cell costs
/// load-balance. A nested batch of width w is split into w slots of
/// consecutive indices — slot k runs k * count / w up to (k + 1) * count /
/// w, in order on one thread — and the caller runs slot 0, plus any slot
/// that no idle worker took. With an effective width
/// of 1 everything runs inline on the calling thread — the pool is not
/// touched, exceptions propagate directly, and the execution order is
/// 0..count-1. Otherwise the caller blocks (it does not spin) once nothing
/// is left to claim, until the batch's other items are done.
///
/// If any invocation throws, remaining *unstarted* indices are abandoned
/// and the exception from the lowest-numbered failed index is rethrown on
/// the calling thread after every started item has returned.
void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& fn);

/// parallel_for collecting fn(i) into a vector in index order, so callers
/// keep the exact result layout of the serial loop they replaced.
/// The result type must be default-constructible (Metrics is).
template <typename Fn>
auto run_jobs(std::size_t count, unsigned jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(count);
  parallel_for(count, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// One run_cell invocation, self-contained by value so a worker thread
/// shares nothing with its siblings.
struct JobSpec {
  Mechanism mech = Mechanism::kTc;
  WorkloadKind wl = WorkloadKind::kSps;
  SystemConfig cfg;
  ExperimentOptions opts;
};

/// Run every spec (in spec order in the result) on up to `jobs` threads.
/// Seeds are taken from each spec's opts, so a sweep that wants distinct
/// random streams per point sets opts.seed per spec; the common case —
/// same seed, different configs — reproduces the serial harness exactly.
/// Every spec's machine is checked with SystemConfig::validate() first; an
/// invalid one prints the violated invariant and exits 1 (the bench
/// binaries' boundary check) instead of aborting inside a cell.
std::vector<Metrics> run_sweep(const std::vector<JobSpec>& specs,
                               unsigned jobs);

}  // namespace ntcsim::sim
