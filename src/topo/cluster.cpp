#include "topo/cluster.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "sim/sweep.hpp"

namespace ntcsim::sim {

Cluster::Cluster(const SystemConfig& cfg, SystemOptions opts,
                 persist::KilnConfig kiln_cfg)
    : cfg_(cfg) {
  const unsigned n = std::max(1u, cfg_.topo.nodes);
  nodes_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Node>(cfg_, i, opts, kiln_cfg));
  }
}

void Cluster::load_trace(NodeId node, CoreId core, core::Trace trace) {
  NTC_ASSERT(node < nodes_.size(), "trace loaded on a nonexistent node");
  nodes_[node]->load_trace(core, std::move(trace));
}

void Cluster::load_trace(CoreId core, core::Trace trace) {
  load_trace(0, core, std::move(trace));
}

bool Cluster::run_until_(Cycle limit) {
  // Rounds of independent node jobs. Each round brings every node to `end`
  // — a node that finished earlier still runs on there: memory refresh
  // keeps its stats moving — and runs a node that is not finished at `end`
  // on to its own next finished cycle (or the limit). "Finished at end"
  // is re-checked at `end`, never inferred from an earlier finish:
  // drained() leaves out the Kiln unit, whose clean backlog ages into
  // writes. `end` then rises to the latest node, which is some node's own
  // first finished cycle at or after `end`, so it never passes the first
  // cycle at which every node is finished at once; the rounds stop when
  // no node moved past `end`. A 1-node round runs inline, and a node's
  // job touches only that node, so the result is the same on any thread.
  for (Cycle end = now();;) {
    parallel_for(nodes_.size(), 0, [&](std::size_t i) {
      Node& n = *nodes_[i];
      n.run(end, /*stop_when_finished=*/false);
      if (end < limit && !n.finished()) {
        n.run(limit, /*stop_when_finished=*/true);
      }
    });
    Cycle latest = end;
    for (const auto& n : nodes_) latest = std::max(latest, n->now());
    if (latest == end) return finished();
    end = latest;
  }
}

RunStatus Cluster::run(Cycle max_cycles) {
  if (run_until_(now() + max_cycles)) return RunStatus::kFinished;
  timed_out_ = true;
  return RunStatus::kCycleCap;
}

bool Cluster::run_for(Cycle cycles) { return run_until_(now() + cycles); }

recovery::WordImage Cluster::crash_and_recover(NodeId node) const {
  NTC_ASSERT(node < nodes_.size(), "crash on a nonexistent node");
  return nodes_[node]->crash_and_recover();
}

void Cluster::reset_stats() {
  for (auto& n : nodes_) n->reset_stats();
  stats_epoch_ = now();
}

Metrics Cluster::metrics() const {
  const Cycle cycles = now() - stats_epoch_;
  NodeRaw total;
  for (const auto& n : nodes_) total.merge(n->raw());
  Metrics m = derive(total, cycles,
                     static_cast<std::uint64_t>(cfg_.cores) * nodes_.size());
  if (nodes_.size() > 1) {
    for (const auto& n : nodes_) m.per_node.push_back(n->metrics(cycles));
  }
  m.xshard_requests = route_.xshard;
  if (route_.xshard > 0) {
    m.xshard_fwd_delay = static_cast<double>(route_.fwd_cycles) /
                         static_cast<double>(route_.xshard);
  }
  return m;
}

}  // namespace ntcsim::sim
