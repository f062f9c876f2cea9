// One node of a cluster: the paper's whole machine — cores + hierarchy +
// transaction caches + hybrid memory + the selected persistence domain —
// with its own event queue and clock. Nodes never interact once a run
// starts (the interconnect is stamp-time), so each runs on alone; the
// owning sim::Cluster only decides where every node's run ends. The
// single-node cluster is the pre-cluster System, cycle-for-cycle.
#pragma once

#include <memory>
#include <vector>

#include "cache/hierarchy.hpp"
#include "check/persist_order_checker.hpp"
#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/hot.hpp"
#include "common/stat_handle.hpp"
#include "common/stats.hpp"
#include "core/core.hpp"
#include "core/trace.hpp"
#include "mem/memory_system.hpp"
#include "persist/domain.hpp"
#include "persist/kiln_unit.hpp"
#include "persist/policy.hpp"
#include "recovery/images.hpp"
#include "recovery/recovery.hpp"
#include "sim/metrics.hpp"
#include "txcache/tx_cache.hpp"

namespace ntcsim::sim {

struct SystemOptions {
  /// SP only: emit the clwb/sfence/pcommit ordering (true, Fig. 2b) or the
  /// deliberately broken unordered variant (false, Fig. 2c) used as the
  /// negative control in crash tests.
  bool sp_ordered = true;
  /// Never install the persistence-order checker, ignoring both cfg.check
  /// and the NTCSIM_CHECK env override. The fault-injection campaign sets
  /// this: its verdicts come from the atomicity oracle, and it needs the
  /// CheckSink taps free for its own event recorder (tap_events()).
  bool force_check_off = false;
};

/// Raw statistic sums behind Metrics: one node's, or a merge of several.
/// derive() turns them into the reported figures, so a node, a cluster
/// and each cluster row share one copy of the metric math.
struct NodeRaw {
  std::uint64_t retired = 0;
  std::uint64_t txs = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t nvm_writes = 0;
  std::uint64_t nvm_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t llc_wb_dropped = 0;
  std::uint64_t ntc_spills = 0;
  std::uint64_t ntc_stalls = 0;
  double pload_sum = 0.0;
  std::uint64_t pload_n = 0;
  double req_sum = 0.0;
  std::uint64_t req_n = 0;
  Histogram pload_hist;  ///< Merged across this node's cores.
  Histogram req_hist;    ///< Merged across this node's cores.
  std::uint64_t check_violations = 0;

  /// Add another node's sums; merged into a zeroed NodeRaw, a NodeRaw
  /// comes out exactly (0.0 + x == x for the double sums).
  void merge(const NodeRaw& o);
};

/// Metrics over `cycles` elapsed cycles on `cores` cores in total.
Metrics derive(const NodeRaw& r, Cycle cycles, std::uint64_t cores);

class Node {
 public:
  Node(const SystemConfig& cfg, NodeId id, SystemOptions opts,
       persist::KilnConfig kiln_cfg);
  /// Flushes the skip/tick totals into the self-profiler so `--profile`
  /// can report the whole-process skip ratio.
  ~Node();
  // Component hooks and the checker hold `this` and the clock's address.
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Install a workload trace on one core. Applies the SP transform when
  /// the configured domain asks for software logging.
  void load_trace(CoreId core, core::Trace trace);

  /// Advance the clock toward `limit`: execute a cycle, then jump the idle
  /// window that follows (quiescence skip), until now() == limit — or,
  /// with `stop_when_finished`, until the first cycle at which finished()
  /// holds. A deadlocked node (unfinished, nothing ever due) jumps to
  /// `limit`.
  void run(Cycle limit, bool stop_when_finished);
  Cycle now() const { return now_; }
  /// The live clock, for external sinks that stamp events themselves
  /// (mirrors the checker's set_clock wiring).
  const Cycle* cycle_counter() const { return &now_; }

  /// Every core retired its trace and all buffered effects (write-backs,
  /// NTC drains, flushes) reached memory. Leaves out the Kiln unit, whose
  /// clean backlog ages into writes: a drained node can become undrained.
  bool drained() const;
  /// drained() with no event pending.
  bool finished() const { return drained() && events_.empty(); }

  /// Earliest cycle > now at which any component of this node could do
  /// work (min over the per-component quiescence contracts); run() bounds
  /// it by the next event delivery to pick its jump target. See
  /// docs/ARCHITECTURE.md "Clock advance & quiescence".
  NTC_HOT Cycle next_event_cycle(Cycle now) const;

  const EventQueue& events() const { return events_; }
  /// Quiescence-skip accounting since construction (reset_stats() resets
  /// the `sim.cycles_skipped` / `sim.ticks_executed` StatSet counters, not
  /// these lifetime totals). Skipped + executed = elapsed cycles; verify
  /// mode executes every cycle, so it reports 0 skipped.
  std::uint64_t cycles_skipped() const { return cycles_skipped_; }
  std::uint64_t ticks_executed() const { return ticks_executed_; }

  /// Metrics over `cycles` elapsed since the last reset_stats() (the
  /// Cluster tracks the epoch; every node ends a run on the same cycle).
  Metrics metrics(Cycle cycles) const { return derive(raw(), cycles, cfg_.cores); }
  /// Raw sums since the last reset_stats(), for exact aggregation.
  NodeRaw raw() const;
  void reset_stats() { stats_.reset(); }
  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }
  const NodeConfig& config() const { return cfg_; }

  /// Simulate a power failure at the current cycle and run the configured
  /// domain's recovery procedure over what is durable on this node.
  recovery::WordImage crash_and_recover() const;

  core::Core& core(CoreId c) { return *cores_[c]; }
  txcache::TxCache* ntc(CoreId c) {
    return ntcs_.empty() ? nullptr : ntcs_[c].get();
  }
  cache::Hierarchy& hierarchy() { return *hier_; }
  mem::MemorySystem& memory() { return *mem_; }
  const persist::PersistenceDomain& domain() const { return *domain_; }
  const recovery::DurableState* durable() const { return durable_.get(); }
  /// The online persistence-order checker, or null when cfg.check (after
  /// the NTCSIM_CHECK env override) resolved to off or the domain declares
  /// no rules.
  const check::PersistOrderChecker* checker() const { return checker_.get(); }
  /// Route every component's check-event tap to an external sink (the
  /// fault-injection CrashPlanner records hazard cycles this way). Only
  /// legal when no checker was installed — components hold a single
  /// CheckSink*, so run such systems with check off.
  void tap_events(check::CheckSink* sink);

 private:
  /// One simulated cycle: deliver the events due now, then tick every
  /// component in the fixed order the pre-cluster System used (cores,
  /// NTCs, Kiln, hierarchy, memory).
  void step_();
  /// Quiescence-aware clock advance after an executed step, clamped to
  /// `limit`; a no-op when skipping is off or the next cycle is live.
  void advance_clock_(Cycle limit);
  /// skip.verify: single-step the claimed-idle window instead of jumping,
  /// aborting loudly if any supposedly skippable cycle did work.
  void verify_idle_window_(Cycle target);

  SystemConfig cfg_;  ///< The node machine plus topo.nodes and skip.
  NodeId id_ = 0;
  SystemOptions opts_;
  // Declared before every component: they hold references to it.
  EventQueue events_;
  Cycle now_ = 0;
  std::uint64_t cycles_skipped_ = 0;
  std::uint64_t ticks_executed_ = 0;
  std::unique_ptr<persist::PersistenceDomain> domain_;
  persist::Policy policy_;  ///< == domain_->policy(), cached.
  StatSet stats_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<recovery::DurableState> durable_;
  std::unique_ptr<recovery::VolatileImage> vimage_;
  std::unique_ptr<cache::Hierarchy> hier_;
  std::vector<std::unique_ptr<txcache::TxCache>> ntcs_;
  std::unique_ptr<persist::KilnUnit> kiln_;
  std::vector<std::unique_ptr<core::Core>> cores_;
  std::unique_ptr<check::PersistOrderChecker> checker_;
  std::vector<core::Trace> traces_;

  // metrics() sources, resolved once at construction (the PR 2 stat-handle
  // pattern; components registered all of these in their constructors, so
  // resolving here creates nothing new). Per-core vectors are indexed by
  // CoreId.
  std::vector<CounterHandle> m_retired_, m_txs_, m_ntc_stalls_;
  std::vector<AccumulatorHandle> m_pload_lat_, m_req_lat_;
  std::vector<HistogramHandle> m_pload_hist_, m_req_hist_;
  std::vector<CounterHandle> m_ntc_spills_;  ///< One per NTC; empty otherwise.
  CounterHandle m_llc_hits_, m_llc_misses_, m_llc_wb_dropped_;
  CounterHandle m_nvm_writes_, m_nvm_reads_, m_dram_writes_;
  CounterHandle stat_cycles_skipped_;  ///< sim.cycles_skipped
  CounterHandle stat_ticks_executed_;  ///< sim.ticks_executed
};

}  // namespace ntcsim::sim
