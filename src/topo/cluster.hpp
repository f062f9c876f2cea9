// A cluster of sim::Nodes — the scale-out layer above the paper's
// single-socket machine. Every node owns its event queue and clock, and
// nodes never interact once a run starts (the interconnect is stamp-time),
// so the cluster runs them as independent jobs in rounds on the process's
// worker pool (sim/sweep.hpp) and only decides where each run ends: at the
// first cycle at which every node is finished at once. The outputs do not
// depend on the thread budget; a 1-node cluster never touches the pool.
// Node 0 of a 1-node cluster is the pre-cluster System, cycle-for-cycle;
// `sim::System` is an alias for this class.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "topo/interconnect.hpp"

namespace ntcsim::sim {

/// How a run() ended. kCycleCap means the simulation was cut off before
/// it drained — metrics describe a truncated run and callers must treat
/// the result as a failure, not a slow success.
enum class RunStatus : std::uint8_t {
  kFinished,  ///< Every node drained; metrics are complete.
  kCycleCap,  ///< Hit max_cycles with work outstanding (deadlock or
              ///< under-budgeted run).
};

constexpr const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kFinished: return "finished";
    case RunStatus::kCycleCap: return "cycle-cap";
  }
  return "?";
}

class Cluster {
 public:
  explicit Cluster(const SystemConfig& cfg, SystemOptions opts = {},
                   persist::KilnConfig kiln_cfg = {});

  unsigned nodes() const { return static_cast<unsigned>(nodes_.size()); }
  Node& node(NodeId n) { return *nodes_[n]; }
  const Node& node(NodeId n) const { return *nodes_[n]; }

  /// Install a workload trace on one core of one node.
  void load_trace(NodeId node, CoreId core, core::Trace trace);
  /// Node-0 compatibility overload (the whole machine, pre-cluster).
  void load_trace(CoreId core, core::Trace trace);

  /// Run until every node is finished at the same cycle, or until
  /// `max_cycles` more cycles have elapsed — whichever comes first. A
  /// kCycleCap return (also latched in timed_out()) means the run was
  /// truncated; drivers fail loudly on it.
  RunStatus run(Cycle max_cycles = 2'000'000'000ULL);
  /// Advance exactly `cycles` (crash-injection runs), stopping early where
  /// run() would end. Returns finished().
  bool run_for(Cycle cycles);
  bool finished() const {
    return std::all_of(nodes_.begin(), nodes_.end(),
                       [](const auto& n) { return n->finished(); });
  }
  /// A previous run() hit its cycle cap before the cluster drained.
  bool timed_out() const { return timed_out_; }
  /// Every node's clock; they agree between runs.
  Cycle now() const { return nodes_[0]->now(); }

  /// Aggregate metrics: every node's NodeRaw merged, then derive(). A
  /// single node's metrics are therefore its own, bit for bit (per_node
  /// stays empty); multi-node clusters attach a per-node breakdown plus
  /// the routing stats recorded via note_route_stats().
  Metrics metrics() const;
  /// Zero every statistic on every node and start a new measurement epoch
  /// (used between the setup and measured phases; caches stay warm).
  void reset_stats();
  StatSet& stats() { return nodes_[0]->stats(); }
  const StatSet& stats() const { return nodes_[0]->stats(); }
  const SystemConfig& config() const { return cfg_; }

  /// Interconnect routing stats of the measured request stream (the
  /// harness records them after stamping arrivals); surfaced in metrics().
  void note_route_stats(const topo::RouteStats& rs) { route_ = rs; }

  /// Simulate a power failure at the current cycle on one node and run the
  /// configured domain's recovery procedure over what is durable there.
  /// The other nodes are unaffected (partial failure).
  recovery::WordImage crash_and_recover(NodeId node) const;
  recovery::WordImage crash_and_recover() const { return crash_and_recover(0); }

  /// Event pushes summed over every node's queue (cost-regression guards
  /// count them).
  struct EventTotals {
    std::uint64_t pushes = 0;
    std::uint64_t total_pushes() const { return pushes; }
  };
  EventTotals events() const {
    return {sum_([](const Node& n) { return n.events().total_pushes(); })};
  }

  /// Node-cycle sums of Node::cycles_skipped() / ticks_executed(): skipped
  /// + executed = nodes() x elapsed cycles.
  std::uint64_t cycles_skipped() const {
    return sum_([](const Node& n) { return n.cycles_skipped(); });
  }
  std::uint64_t ticks_executed() const {
    return sum_([](const Node& n) { return n.ticks_executed(); });
  }

 private:
  /// The body of run() and run_for(): end at the first cycle, no later
  /// than `limit`, at which every node is finished, in rounds of parallel
  /// node jobs. Returns finished().
  bool run_until_(Cycle limit);
  template <typename F>
  std::uint64_t sum_(F per_node) const {
    std::uint64_t sum = 0;
    for (const auto& n : nodes_) sum += per_node(*n);
    return sum;
  }

  SystemConfig cfg_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Cycle stats_epoch_ = 0;  ///< Cycle at the last reset_stats().
  bool timed_out_ = false;
  topo::RouteStats route_;
};

}  // namespace ntcsim::sim
