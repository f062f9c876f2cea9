#include "sim/node.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "persist/sp_transform.hpp"
#include "sim/config_io.hpp"
#include "sim/profiler.hpp"

namespace ntcsim::sim {

Node::Node(const SystemConfig& cfg, NodeId id, SystemOptions opts,
           persist::KilnConfig kiln_cfg)
    : cfg_(cfg),
      id_(id),
      opts_(opts),
      domain_(persist::DomainRegistry::instance().create(cfg.mechanism)),
      policy_(domain_->policy()) {
  mem_ = std::make_unique<mem::MemorySystem>(cfg_, events_, stats_);
  mem_->set_adr_domain(policy_.adr_domain);
  mem_->set_verify_idle_bound(cfg_.skip.verify);
  if (cfg_.track_recovery_state) {
    durable_ = std::make_unique<recovery::DurableState>(stats_);
    mem_->set_nvm_observer(durable_.get());
    vimage_ = std::make_unique<recovery::VolatileImage>();
  }
  hier_ = std::make_unique<cache::Hierarchy>(cfg_, *mem_, events_, stats_,
                                             vimage_.get());

  hier_->hooks().drop_persistent_llc_writeback =
      policy_.drop_persistent_llc_writeback;
  hier_->hooks().llc_nonvolatile = policy_.llc_nonvolatile;

  if (policy_.route_stores_to_ntc) {
    for (unsigned c = 0; c < cfg_.cores; ++c) {
      ntcs_.push_back(std::make_unique<txcache::TxCache>(
          "ntc" + std::to_string(c), c, cfg_.ntc, cfg_.address_space, *mem_,
          stats_));
    }
    if (policy_.probe_ntc_on_llc_miss) {
      hier_->hooks().ntc_probe = [this](CoreId core, Addr line) {
        // The requester's private NTC holds its own newest data; with
        // core-partitioned heaps other NTCs never match, but probe them
        // for completeness (shared-address programs).
        if (ntcs_[core]->probe(line)) return true;
        for (unsigned c = 0; c < ntcs_.size(); ++c) {
          if (c != core && ntcs_[c]->probe(line)) return true;
        }
        return false;
      };
    }
  }

  if (policy_.flush_on_commit) {
    kiln_ = std::make_unique<persist::KilnUnit>(
        cfg_.cores, kiln_cfg, *hier_, events_, durable_.get(), stats_);
    hier_->hooks().kiln_pin_query = [this](CoreId core, Addr line) {
      return kiln_->pin_query(core, line);
    };
  }

  // The generic machinery the domain's Policy asked for exists; attach the
  // domain to it before any core can call a hook.
  {
    persist::DomainWiring wiring;
    wiring.cfg = &cfg_;
    for (auto& n : ntcs_) wiring.ntcs.push_back(n.get());
    wiring.engine = kiln_.get();
    wiring.stats = &stats_;
    domain_->bind(wiring);
  }

  for (unsigned c = 0; c < cfg_.cores; ++c) {
    cores_.push_back(std::make_unique<core::Core>(c, cfg_.core, *domain_,
                                                  *hier_, stats_));
  }
  traces_.resize(cfg_.cores);

  for (unsigned c = 0; c < cfg_.cores; ++c) {
    const std::string p = "core" + std::to_string(c);
    m_retired_.emplace_back(stats_, p + ".retired");
    m_txs_.emplace_back(stats_, p + ".txs");
    m_ntc_stalls_.emplace_back(stats_, p + ".ntc_stall_cycles");
    m_pload_lat_.emplace_back(stats_, p + ".pload_latency");
    m_pload_hist_.emplace_back(stats_, p + ".pload_latency_hist");
    m_req_lat_.emplace_back(stats_, p + ".req_latency");
    m_req_hist_.emplace_back(stats_, p + ".req_latency_hist");
  }
  for (unsigned c = 0; c < ntcs_.size(); ++c) {
    m_ntc_spills_.emplace_back(stats_, "ntc" + std::to_string(c) + ".spills");
  }
  m_llc_hits_ = CounterHandle(stats_, "llc.hits");
  m_llc_misses_ = CounterHandle(stats_, "llc.misses");
  m_llc_wb_dropped_ = CounterHandle(stats_, "llc.wb_dropped");
  m_nvm_writes_ = CounterHandle(stats_, "nvm.writes");
  m_nvm_reads_ = CounterHandle(stats_, "nvm.reads");
  m_dram_writes_ = CounterHandle(stats_, "dram.writes");
  stat_cycles_skipped_ = CounterHandle(stats_, "sim.cycles_skipped");
  stat_ticks_executed_ = CounterHandle(stats_, "sim.ticks_executed");

  const CheckMode mode = opts_.force_check_off
                             ? CheckMode::kOff
                             : check_mode_from_env(cfg_.check);
  if (mode != CheckMode::kOff) {
    check::CheckerRules rules = domain_->checker_rules();
    if (policy_.software_logging && !opts_.sp_ordered) {
      // The Fig. 2c negative control breaks WAL ordering on purpose; the
      // crash tests assert the *recovery* failure, not a checker abort.
      rules.log_before_data = false;
    }
    if (rules.any()) {
      checker_ = std::make_unique<check::PersistOrderChecker>(
          rules, cfg_.address_space, cfg_.cores, mode == CheckMode::kFatal);
      checker_->set_clock(&now_);
      if (cfg_.topo.nodes > 1) {
        checker_->set_scope("node" + std::to_string(id_) + "/");
      }
      mem_->set_check_sink(checker_.get());
      hier_->set_check_sink(checker_.get());
      for (auto& n : ntcs_) n->set_check_sink(checker_.get());
      if (kiln_ != nullptr) kiln_->set_check_sink(checker_.get());
      for (auto& c : cores_) c->set_check_sink(checker_.get());
    }
  }
}

Node::~Node() { Profiler::add_clock_totals(cycles_skipped_, ticks_executed_); }

void Node::tap_events(check::CheckSink* sink) {
  NTC_ASSERT(checker_ == nullptr,
             "tap_events needs the check sinks free: run with check off");
  mem_->set_check_sink(sink);
  hier_->set_check_sink(sink);
  for (auto& n : ntcs_) n->set_check_sink(sink);
  if (kiln_ != nullptr) kiln_->set_check_sink(sink);
  for (auto& c : cores_) c->set_check_sink(sink);
}

void Node::load_trace(CoreId core, core::Trace trace) {
  NTC_ASSERT(core < cfg_.cores, "trace loaded on a nonexistent core");
  if (policy_.software_logging) {
    persist::SpOptions sp;
    sp.ordered = opts_.sp_ordered;
    sp.adr = policy_.adr_domain;
    domain_->adjust_sp_options(sp);
    traces_[core] =
        persist::transform_sp(trace, core, cfg_.address_space, sp);
  } else {
    traces_[core] = std::move(trace);
  }
  cores_[core]->bind_trace(&traces_[core]);
}

void Node::run(Cycle limit, bool stop_when_finished) {
  // Jumping never changes finished() (it reads component state, not the
  // clock), so checking once per executed cycle suffices.
  if (stop_when_finished && finished()) return;
  while (now_ < limit) {
    step_();
    if (stop_when_finished && finished()) return;
    advance_clock_(limit);
  }
}

void Node::step_() {
  // The per-component ProfScopes cost one relaxed load each when profiling
  // is off; under --profile they produce the step.* phase breakdown.
  {
    NTC_PROF_SCOPE("step.events");
    events_.drain_until(now_);
  }
  {
    // A finished core's tick is a no-op (nothing to fetch, every buffer
    // empty); skipping it keeps uneven multi-core runs from paying for
    // cores that retired early.
    NTC_PROF_SCOPE("step.cores");
    for (auto& c : cores_) {
      if (!c->finished()) c->tick(now_);
    }
  }
  {
    NTC_PROF_SCOPE("step.ntc");
    for (auto& n : ntcs_) n->tick(now_);
  }
  if (kiln_ != nullptr) {
    NTC_PROF_SCOPE("step.kiln");
    kiln_->tick(now_, *mem_);
  }
  {
    NTC_PROF_SCOPE("step.hierarchy");
    hier_->tick(now_);
  }
  {
    NTC_PROF_SCOPE("step.memory");
    mem_->tick(now_);
  }
  ++now_;
  ++ticks_executed_;
  stat_ticks_executed_->inc();
}

void Node::advance_clock_(Cycle limit) {
  if (!cfg_.skip.enabled || now_ >= limit) return;
  // The last executed cycle is now_ - 1; every component's quiescence
  // contract is relative to it. The earliest event delivery bounds the
  // jump first: an event callback is external input the components cannot
  // see coming, and the checker stamps event cycles off the live clock, so
  // the clock must be exactly right when one fires.
  Cycle target = events_.empty() ? kNeverCycle : events_.next_cycle();
  if (target <= now_) return;  // next cycle is live; nothing to skip
  target = std::min(target, next_event_cycle(now_ - 1));
  if (target <= now_) return;
  // kNeverCycle: no component will ever act again and no event is queued.
  // For an unfinished node that is a deadlock, and the jump to `limit`
  // makes the cycle cap fast and bit-identical to stepping there.
  target = std::min(target, limit);
  if (cfg_.skip.verify) {
    verify_idle_window_(target);
    return;
  }
  const Cycle skipped = target - now_;
  cycles_skipped_ += skipped;
  stat_cycles_skipped_->inc(skipped);
  now_ = target;
}

void Node::verify_idle_window_(Cycle target) {
  // Cross-check mode: execute the window the jump would have skipped and
  // fail loudly on any sign of work — an event due before the target, a
  // tick scheduling a new event, or a component moving its next-event
  // estimate earlier. Any of these means some next_event_cycle()
  // over-promised and a release-mode jump would have corrupted the run.
  while (now_ < target) {
    NTC_CHECK_MSG(events_.empty() || events_.next_cycle() >= target,
                  "skip.verify: node %u: event due at cycle %llu inside the "
                  "idle window claimed until %llu (now %llu)",
                  id_, static_cast<unsigned long long>(events_.next_cycle()),
                  static_cast<unsigned long long>(target),
                  static_cast<unsigned long long>(now_));
    const std::uint64_t pushes_before = events_.total_pushes();
    step_();
    NTC_CHECK_MSG(events_.total_pushes() == pushes_before,
                  "skip.verify: node %u: a tick at cycle %llu scheduled an "
                  "event inside the idle window claimed until %llu",
                  id_, static_cast<unsigned long long>(now_ - 1),
                  static_cast<unsigned long long>(target));
    const Cycle recomputed =
        std::min(events_.empty() ? kNeverCycle : events_.next_cycle(),
                 next_event_cycle(now_ - 1));
    NTC_CHECK_MSG(recomputed >= target,
                  "skip.verify: node %u: next-event estimate moved from %llu "
                  "to %llu after the supposedly idle cycle %llu — a "
                  "next_event_cycle() over-promised",
                  id_, static_cast<unsigned long long>(target),
                  static_cast<unsigned long long>(recomputed),
                  static_cast<unsigned long long>(now_ - 1));
  }
}

Cycle Node::next_event_cycle(Cycle now) const {
  // Same component set step_() ticks; a finished core is a permanent no-op
  // (step_() skips it). Early-out: once any component pins now + 1 the node
  // cannot jump, so the remaining queries are skipped.
  Cycle next = kNeverCycle;
  for (const auto& c : cores_) {
    if (c->finished()) continue;
    next = std::min(next, c->next_event_cycle(now));
    if (next <= now + 1) return next;
  }
  for (const auto& n : ntcs_) {
    next = std::min(next, n->next_event_cycle(now));
    if (next <= now + 1) return next;
  }
  if (kiln_ != nullptr) {
    next = std::min(next, kiln_->next_event_cycle(now));
    if (next <= now + 1) return next;
  }
  next = std::min(next, hier_->next_event_cycle(now));
  if (next <= now + 1) return next;
  return std::min(next, mem_->next_event_cycle(now));
}

bool Node::drained() const {
  for (const auto& c : cores_) {
    if (!c->finished()) return false;
  }
  if (!hier_->quiesced() || !mem_->idle()) return false;
  for (const auto& n : ntcs_) {
    if (!n->drained()) return false;
  }
  return true;
}

recovery::WordImage Node::crash_and_recover() const {
  NTC_ASSERT(durable_ != nullptr,
             "crash_and_recover requires track_recovery_state");
  return domain_->recover(*durable_);
}

void NodeRaw::merge(const NodeRaw& o) {
  for (std::uint64_t NodeRaw::* f :
       {&NodeRaw::retired, &NodeRaw::txs, &NodeRaw::llc_hits,
        &NodeRaw::llc_misses, &NodeRaw::nvm_writes, &NodeRaw::nvm_reads,
        &NodeRaw::dram_writes, &NodeRaw::llc_wb_dropped, &NodeRaw::ntc_spills,
        &NodeRaw::ntc_stalls, &NodeRaw::pload_n, &NodeRaw::req_n,
        &NodeRaw::check_violations}) {
    this->*f += o.*f;
  }
  pload_sum += o.pload_sum;
  req_sum += o.req_sum;
  pload_hist.merge(o.pload_hist);
  req_hist.merge(o.req_hist);
}

Metrics derive(const NodeRaw& r, Cycle cycles, std::uint64_t cores) {
  Metrics m;
  m.cycles = cycles;
  m.retired_uops = r.retired;
  m.committed_txs = r.txs;
  if (m.cycles > 0) {
    m.ipc = static_cast<double>(m.retired_uops) / static_cast<double>(m.cycles);
    m.tx_per_kilocycle = 1000.0 * static_cast<double>(m.committed_txs) /
                         static_cast<double>(m.cycles);
    m.ntc_stall_frac = static_cast<double>(r.ntc_stalls) /
                       static_cast<double>(m.cycles * cores);
  }
  if (r.llc_hits + r.llc_misses > 0) {
    m.llc_miss_rate = static_cast<double>(r.llc_misses) /
                      static_cast<double>(r.llc_hits + r.llc_misses);
  }
  m.nvm_writes = r.nvm_writes;
  m.nvm_reads = r.nvm_reads;
  m.dram_writes = r.dram_writes;
  m.llc_wb_dropped = r.llc_wb_dropped;
  m.ntc_spills = r.ntc_spills;
  if (r.pload_n > 0) {
    m.pload_latency = r.pload_sum / static_cast<double>(r.pload_n);
  }
  // Percentiles from the merged per-core histograms (bucketed: edges are
  // power-of-two upper bounds).
  if (r.pload_hist.total() > 0) {
    m.pload_latency_p50 = r.pload_hist.percentile_edge(50.0);
    m.pload_latency_p99 = r.pload_hist.percentile_edge(99.0);
  }
  m.requests = r.req_n;
  if (r.req_n > 0) m.req_latency = r.req_sum / static_cast<double>(r.req_n);
  if (r.req_hist.total() > 0) {
    m.req_latency_p50 = r.req_hist.percentile_edge(50.0);
    m.req_latency_p95 = r.req_hist.percentile_edge(95.0);
    m.req_latency_p99 = r.req_hist.percentile_edge(99.0);
    m.req_latency_p999 = r.req_hist.percentile_edge(99.9);
  }
  m.check_violations = r.check_violations;
  return m;
}

NodeRaw Node::raw() const {
  NodeRaw r;
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    r.retired += m_retired_[c]->value();
    r.txs += m_txs_[c]->value();
    r.pload_sum += m_pload_lat_[c]->sum();
    r.pload_n += m_pload_lat_[c]->count();
    r.req_sum += m_req_lat_[c]->sum();
    r.req_n += m_req_lat_[c]->count();
    r.ntc_stalls += m_ntc_stalls_[c]->value();
    r.pload_hist.merge(*m_pload_hist_[c]);
    r.req_hist.merge(*m_req_hist_[c]);
  }
  r.llc_hits = m_llc_hits_->value();
  r.llc_misses = m_llc_misses_->value();
  r.nvm_writes = m_nvm_writes_->value();
  r.nvm_reads = m_nvm_reads_->value();
  r.dram_writes = m_dram_writes_->value();
  r.llc_wb_dropped = m_llc_wb_dropped_->value();
  for (const CounterHandle& h : m_ntc_spills_) r.ntc_spills += h->value();
  if (checker_ != nullptr) r.check_violations = checker_->violation_count();
  return r;
}

}  // namespace ntcsim::sim
