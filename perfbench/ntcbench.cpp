// ntcbench: runs one benchmark workload of ntcsim through the library's
// public calls, timing the boundaries between them, and writes a raw JSON
// report (per-batch, per-cell timings and simulated work, output checks, a
// digest of every simulated output, and spans when tracing). perfbench/run.py
// builds this program, runs it and turns the report into metrics.
//
//   ntcbench --workload matrix|serve-cluster|crash-campaign --seed N
//            --seconds S --trace 0|1 --out REPORT.json [--spans SPANS.json]
//
// Each workload is a closed batch of independent cells. Batches repeat until
// --seconds have elapsed (at least one). With --trace 1 the first half of the
// time runs untraced and the second half traced, so the report carries the
// tracing overhead. After the timed batches the benchmark's reassembled
// cells are compared against sim::run_cell / faultsim::run_cell.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "faultsim/campaign.hpp"
#include "faultsim/planner.hpp"
#include "persist/domain.hpp"
#include "persist/policy.hpp"
#include "recovery/journal.hpp"
#include "recovery/recovery.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "topo/interconnect.hpp"
#include "tracer.hpp"
#include "workload/service.hpp"
#include "workload/sim_heap.hpp"
#include "workload/workloads.hpp"

namespace perfbench {
namespace {

using namespace ntcsim;

// --- Workload parameters ----------------------------------------------------
// matrix: the figure matrix as the paper benches run it — full-size setup
// structures — with a short measured phase (half the default measured ops).
constexpr double kMatrixScale = 0.5;
// serve-cluster: 4-node open-loop Poisson service on hashtable. The rate is
// below SP's saturation knee (SP is the slower mechanism), so neither cell
// builds a growing backlog. The setup structure is small, so caches start
// mostly cold and the measured phase is most of the host time. Two lanes,
// each a TC cell then an SP cell on its own seed, run side by side: one
// lane alone samples a single CPU of a shared host and its timings drift
// too much between runs, while two lanes still leave half the pool idle
// for work that parallelises inside a cluster.
constexpr unsigned kServeNodes = 4;
constexpr unsigned kServeLanes = 2;
constexpr double kServeRate = 1.0;  // requests per kilocycle per core
constexpr std::uint64_t kServeRequests = 500;  // per core
constexpr double kServeSetupScale = 0.02;
// crash-campaign: the default campaign cells on the experiment preset, for
// one seed. The structure must outgrow the 2 MB LLC so the negative
// controls see dirty evictions; the crash-point budget is fixed.
constexpr std::uint64_t kCrashPoints = 8;
constexpr std::uint64_t kCrashSetup = 10000;
constexpr std::uint64_t kCrashOps = 150;

// Fig. 6 IPC / Fig. 7 throughput as a share of Optimal, from the paper.
struct PaperPoint {
  const char* mech;
  double ipc;
  double throughput;
};
constexpr PaperPoint kPaper[] = {
    {"sp", 0.477, 0.306}, {"tc", 0.985, 0.985}, {"kiln", 0.878, 0.878}};

// --- Per-cell record --------------------------------------------------------

using Counters = std::map<std::string, double>;

struct CellRecord {
  std::string label;
  bool failed = false;
  std::string why;  ///< Failure reason.
  double total_s = 0.0;
  double setup_s = 0.0;     ///< Before the measured phase can start.
  double measured_s = 0.0;  ///< Measured run (crash: plan + replay).
  std::uint64_t uops = 0;    ///< Simulated retired micro-ops, measured part.
  std::uint64_t cycles = 0;  ///< Simulated cycles, measured part.
  std::uint64_t checks = 0;  ///< Atomicity-oracle checks.
  Counters counters;         ///< Per-layer counts; filled when tracing.
  std::string outputs;       ///< Simulated outputs, serialized for the digest.
};

void fail(CellRecord& rec, const std::string& why) {
  if (!rec.failed) rec.why = why;
  rec.failed = true;
}

// "core3.stall.load" -> "core.stall.load", "ntc0.writes" -> "ntc.writes":
// per-core / per-NTC counters sum into one per-layer counter.
std::string layer_key(const std::string& name) {
  const std::size_t dot = name.find('.');
  for (const char* prefix : {"core", "ntc"}) {
    const std::size_t n = std::strlen(prefix);
    if (dot != std::string::npos && dot > n && name.compare(0, n, prefix) == 0 &&
        std::all_of(name.begin() + static_cast<long>(n),
                    name.begin() + static_cast<long>(dot),
                    [](char ch) { return ch >= '0' && ch <= '9'; })) {
      return prefix + name.substr(dot);
    }
  }
  return name;
}

void add_stats(const StatSet& st, Counters& out) {
  for (const std::string& name : st.counter_names()) {
    out[layer_key(name)] += static_cast<double>(st.counter_value(name));
  }
}

std::string stats_text(const sim::System& sys) {
  std::ostringstream os;
  for (NodeId n = 0; n < sys.nodes(); ++n) sys.node(n).stats().dump(os);
  return os.str();
}

// --- Exact serialization of simulated outputs --------------------------------

template <typename T>
void put(std::string& out, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

void put_str(std::string& out, const std::string& s) {
  put(out, s.size());
  out += s;
}

std::string metrics_bytes(const sim::Metrics& m) {
  std::string out;
  put(out, m.cycles);
  put(out, m.retired_uops);
  put(out, m.committed_txs);
  put(out, m.ipc);
  put(out, m.tx_per_kilocycle);
  put(out, m.llc_miss_rate);
  put(out, m.nvm_writes);
  put(out, m.pload_latency);
  put(out, m.pload_latency_p50);
  put(out, m.pload_latency_p99);
  put(out, m.requests);
  put(out, m.req_latency);
  put(out, m.req_latency_p50);
  put(out, m.req_latency_p95);
  put(out, m.req_latency_p99);
  put(out, m.req_latency_p999);
  put(out, m.nvm_reads);
  put(out, m.dram_writes);
  put(out, m.llc_wb_dropped);
  put(out, m.ntc_spills);
  put(out, m.ntc_stall_frac);
  put(out, m.check_violations);
  put(out, m.per_node.size());
  for (const sim::Metrics& n : m.per_node) out += metrics_bytes(n);
  put(out, m.xshard_requests);
  put(out, m.xshard_fwd_delay);
  return out;
}

std::string crash_bytes(const faultsim::CellResult& r) {
  std::string out;
  put(out, r.status);
  put(out, r.hazard_events);
  put(out, r.crash_points);
  put(out, r.checks);
  put(out, r.violations);
  put(out, r.end_cycle);
  put(out, r.first_violation_cycle);
  put_str(out, r.first_violation);
  put(out, r.total_txs);
  return out;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 14695981039346656037ULL) {
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

// --- Simulation cells (matrix, serve-cluster) --------------------------------

struct SimCell {
  Mechanism mech = Mechanism::kTc;
  WorkloadKind wl = WorkloadKind::kSps;
  SystemConfig cfg;
  sim::ExperimentOptions opts;
};

std::string sim_label(const SimCell& c) {
  return std::string(sim::mechanism_label(c.mech)) + "/" +
         std::string(to_string(c.wl));
}

/// sim::run_cell reassembled from its public calls, with every call timed.
sim::Metrics run_sim_cell(const SimCell& c, Tracer& tr, CellRecord& rec) {
  rec.label = sim_label(c);
  Scope cell_scope(tr, "bench.cell", &rec.total_s);
  SystemConfig cfg = c.cfg;
  cfg.mechanism = c.mech;
  cfg.track_recovery_state = c.opts.track_recovery ||
                             persist::policy_for(c.mech).needs_recovery_images;
  workload::WorkloadParams params = workload::default_params(c.wl);
  params.seed = c.opts.seed;
  params.ops = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(params.ops) * c.opts.scale));
  params.setup_elems = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(params.setup_elems) *
                                  c.opts.setup_scale));
  if (cfg.service.enabled && cfg.service.requests > 0) {
    params.ops = cfg.service.requests;
  }
  const unsigned nodes = std::max(1u, cfg.topo.nodes);

  std::vector<std::vector<workload::TraceBundle>> bundles(nodes);
  std::vector<std::size_t> offered(nodes, 0);
  std::uint64_t generated_uops = 0;
  {
    Scope s(tr, "workload.generate", &rec.setup_s);
    for (NodeId n = 0; n < nodes; ++n) {
      workload::SimHeap heap(cfg.address_space, cfg.cores);
      workload::WorkloadParams p = params;
      p.seed = params.seed + n * 0x9e3779b9ULL;
      for (CoreId core = 0; core < cfg.cores; ++core) {
        bundles[n].push_back(workload::generate_phased(p, core, heap, nullptr));
        offered[n] += workload::stamp_service_arrivals(
            bundles[n].back().measured, cfg.service, core, params.seed, n);
        generated_uops +=
            bundles[n].back().setup.size() + bundles[n].back().measured.size();
      }
    }
  }
  topo::RouteStats route;
  if (nodes > 1 && cfg.service.enabled && cfg.service.open_loop) {
    Scope s(tr, "topo.route", &rec.setup_s);
    std::vector<std::vector<core::Trace*>> measured(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
      for (CoreId core = 0; core < cfg.cores; ++core) {
        measured[n].push_back(&bundles[n][core].measured);
      }
    }
    route = topo::route_service_arrivals(measured, cfg.topo, cfg.ghz,
                                         params.seed);
  }
  std::unique_ptr<sim::System> sys;
  {
    Scope s(tr, "sim.construct", &rec.setup_s);
    sys = std::make_unique<sim::System>(cfg);
  }
  {
    Scope s(tr, "sim.load", &rec.setup_s);
    for (NodeId n = 0; n < nodes; ++n) {
      for (CoreId core = 0; core < cfg.cores; ++core) {
        sys->load_trace(n, core, std::move(bundles[n][core].setup));
      }
    }
  }
  {
    Scope s(tr, "sim.warm", &rec.setup_s);
    sys->run();
  }
  if (sys->timed_out()) fail(rec, "cycle cap in the setup phase");
  const Cycle warm_cycles = sys->now();
  const std::uint64_t warm_ticks = sys->ticks_executed();
  const std::uint64_t warm_skipped = sys->cycles_skipped();
  sys->reset_stats();
  sys->note_route_stats(route);
  {
    Scope s(tr, "sim.load", &rec.setup_s);
    for (NodeId n = 0; n < nodes; ++n) {
      for (CoreId core = 0; core < cfg.cores; ++core) {
        sys->load_trace(n, core, std::move(bundles[n][core].measured));
      }
    }
  }
  {
    Scope s(tr, "sim.run", &rec.measured_s);
    sys->run();
  }
  if (sys->timed_out()) fail(rec, "cycle cap in the measured phase");
  sim::Metrics m;
  {
    Scope s(tr, "sim.metrics");
    m = sys->metrics();
  }
  rec.uops = m.retired_uops;
  rec.cycles = m.cycles;
  if (cfg.service.enabled) {
    // Every offered request commits, on every node.
    for (NodeId n = 0; n < nodes; ++n) {
      const std::uint64_t committed =
          nodes > 1 ? m.per_node[n].requests : m.requests;
      if (committed != offered[n]) {
        fail(rec, "node " + std::to_string(n) + " committed " +
                      std::to_string(committed) + " of " +
                      std::to_string(offered[n]) + " offered requests");
      }
    }
  }
  rec.outputs = metrics_bytes(m) + stats_text(*sys);
  if (tr.on()) {
    Counters& k = rec.counters;
    for (NodeId n = 0; n < nodes; ++n) add_stats(sys->node(n).stats(), k);
    k["workload.uops"] += static_cast<double>(generated_uops);
    k["topo.requests"] += static_cast<double>(route.requests);
    k["topo.xshard"] += static_cast<double>(route.xshard);
    k["sim.warm_cycles"] += static_cast<double>(warm_cycles);
    k["sim.warm_ticks"] += static_cast<double>(warm_ticks);
    k["sim.measured_ticks"] +=
        static_cast<double>(sys->ticks_executed() - warm_ticks);
    k["sim.measured_skipped"] +=
        static_cast<double>(sys->cycles_skipped() - warm_skipped);
    k["events.pushes"] += static_cast<double>(sys->events().total_pushes());
    k["events.ticks"] += static_cast<double>(sys->ticks_executed());
    k["core.core_cycles"] +=
        static_cast<double>(m.cycles) * cfg.cores * nodes;
  }
  return m;
}

// --- Crash cells -------------------------------------------------------------

/// faultsim::run_cell reassembled from its public calls (plan_cell, then a
/// replay that crash-recovers at every planned point and once after
/// draining, each recovered image judged by the atomicity oracle).
faultsim::CellResult run_crash_cell(const SystemConfig& base,
                                    const faultsim::CellSpec& spec,
                                    Tracer& tr, CellRecord& rec) {
  rec.label = spec.variant + "/" + std::string(to_string(spec.wl)) + "/" +
              std::to_string(spec.seed);
  Scope cell_scope(tr, "bench.cell", &rec.total_s);
  SystemConfig cfg = base;
  cfg.mechanism = spec.mech;
  cfg.check = CheckMode::kOff;
  sim::SystemOptions sopts;
  sopts.sp_ordered = spec.sp_ordered;
  sopts.force_check_off = true;

  recovery::Journal journal(cfg.cores);
  std::vector<core::Trace> traces;
  std::uint64_t generated_uops = 0;
  {
    Scope s(tr, "workload.generate", &rec.setup_s);
    workload::WorkloadParams p = workload::default_params(spec.wl);
    // The campaign's sizing rule: sps elements are single words, so that
    // workload needs a 7x larger index range to outgrow the LLC.
    p.setup_elems = static_cast<std::size_t>(cfg.crash.setup) *
                    (spec.wl == WorkloadKind::kSps ? 7 : 1);
    p.ops = static_cast<std::size_t>(std::max<std::uint64_t>(1, cfg.crash.ops));
    p.seed = spec.seed;
    workload::SimHeap heap(cfg.address_space, cfg.cores);
    for (CoreId core = 0; core < cfg.cores; ++core) {
      traces.push_back(workload::generate(p, core, heap, &journal));
      generated_uops += traces.back().size();
    }
  }
  faultsim::CellResult r;
  r.spec = spec;
  faultsim::CrashPlan plan;
  {
    Scope s(tr, "faultsim.plan", &rec.measured_s);
    plan = faultsim::plan_cell(cfg, sopts, traces, cfg.crash.points);
  }
  r.hazard_events = plan.hazard_events;
  r.crash_points = plan.points.size();
  r.end_cycle = plan.end_cycle;
  {
    Scope replay(tr, "faultsim.replay", &rec.measured_s);
    std::unique_ptr<sim::System> sys;
    {
      Scope s(tr, "sim.construct");
      sys = std::make_unique<sim::System>(cfg, sopts);
    }
    {
      Scope s(tr, "sim.load");
      for (CoreId core = 0; core < cfg.cores; ++core) {
        sys->load_trace(core, traces[core]);
      }
    }
    auto check_now = [&] {
      recovery::WordImage img;
      {
        Scope s(tr, "recovery.crash_recover");
        img = sys->crash_and_recover();
      }
      recovery::AtomicityReport report;
      {
        Scope s(tr, "recovery.atomicity");
        report = recovery::check_atomicity(img, journal);
      }
      ++r.checks;
      if (!report.consistent) {
        if (r.violations == 0) {
          r.first_violation_cycle = sys->now();
          r.first_violation = report.violation;
        }
        ++r.violations;
      }
    };
    for (const Cycle pt : plan.points) {
      if (sys->finished()) break;
      if (pt <= sys->now()) continue;
      {
        Scope s(tr, "sim.run");
        sys->run_for(pt - sys->now());
      }
      check_now();
    }
    {
      Scope s(tr, "sim.run");
      sys->run();
    }
    check_now();
    if (sys->timed_out()) fail(rec, "cycle cap in the replay run");
    const sim::Metrics m = sys->metrics();
    // The planning run and the replay both run the same traces to drained,
    // so each retires every micro-op once.
    rec.uops = 2 * m.retired_uops;
    rec.cycles = plan.end_cycle + sys->now();
    if (tr.on()) {
      Counters& k = rec.counters;
      add_stats(sys->stats(), k);
      k["sim.measured_ticks"] += static_cast<double>(sys->ticks_executed());
      k["sim.measured_skipped"] += static_cast<double>(sys->cycles_skipped());
      k["events.pushes"] += static_cast<double>(sys->events().total_pushes());
      k["events.ticks"] += static_cast<double>(sys->ticks_executed());
      k["core.core_cycles"] += static_cast<double>(m.cycles) * cfg.cores;
    }
  }
  if (spec.expect_consistent) {
    r.status = r.violations == 0 ? faultsim::CellStatus::kPass
                                 : faultsim::CellStatus::kFail;
  } else {
    r.status = r.violations == 0 ? faultsim::CellStatus::kVacuous
                                 : faultsim::CellStatus::kExpectedFail;
  }
  r.total_txs = traces.empty() ? 0 : traces[0].transactions();
  rec.checks = r.checks;
  if (r.status == faultsim::CellStatus::kFail) {
    fail(rec, "atomicity violated: " + r.first_violation);
  }
  rec.outputs = crash_bytes(r);
  if (tr.on()) {
    rec.counters["workload.uops"] += static_cast<double>(generated_uops);
    rec.counters["faultsim.hazards"] += static_cast<double>(r.hazard_events);
    rec.counters["faultsim.points"] += static_cast<double>(r.crash_points);
  }
  return r;
}

// --- Workloads ---------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Batch {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<CellRecord> cells;
  std::uint64_t digest = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One closed batch of cells; appends whole-output checks to `checks`.
  virtual std::vector<CellRecord> run_batch(Tracer& tr,
                                            std::vector<Check>& checks) = 0;
  /// Compare the benchmark's reassembled cells against the library's own
  /// cell runners.
  virtual void check_equivalence(std::vector<Check>& checks) = 0;
  /// max |gmean - paper| over Fig. 6 and Fig. 7, where the workload runs
  /// the figure matrix.
  virtual std::optional<double> paper_gap() const { return std::nullopt; }
  /// Worker threads a batch runs on.
  virtual unsigned threads() const = 0;
};

unsigned worker_threads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

class MatrixWorkload final : public Workload {
 public:
  explicit MatrixWorkload(std::uint64_t seed) {
    sim::ExperimentOptions opts;
    opts.scale = kMatrixScale;
    opts.seed = seed;
    for (const WorkloadKind wl : sim::kAllWorkloads) {
      for (const Mechanism mech : sim::matrix_mechanisms()) {
        cells_.push_back({mech, wl, SystemConfig::experiment(), opts});
      }
    }
  }

  std::vector<CellRecord> run_batch(Tracer& tr,
                                    std::vector<Check>& checks) override {
    std::vector<CellRecord> recs(cells_.size());
    metrics_.assign(cells_.size(), {});
    sim::parallel_for(cells_.size(), worker_threads(), [&](std::size_t i) {
      t_cell = static_cast<int>(i);
      metrics_[i] = run_sim_cell(cells_[i], tr, recs[i]);
      t_cell = -1;
    });
    check_ordering(checks);
    return recs;
  }

  std::optional<double> paper_gap() const override {
    double gap = 0.0;
    for (const PaperPoint& p : kPaper) {
      const Mechanism mech = find_mech(p.mech);
      gap = std::max(gap, std::abs(gmean(mech, ipc) - p.ipc));
      gap = std::max(gap, std::abs(gmean(mech, throughput) - p.throughput));
    }
    return gap;
  }

  void check_equivalence(std::vector<Check>& checks) override {
    // One reference cell per mechanism, rotating through the workloads.
    std::vector<std::size_t> picks;
    const std::size_t nmech = sim::matrix_mechanisms().size();
    for (std::size_t m = 0; m < nmech; ++m) {
      picks.push_back((m % std::size(sim::kAllWorkloads)) * nmech + m);
    }
    const std::vector<sim::Metrics> ref =
        sim::run_jobs(picks.size(), worker_threads(), [&](std::size_t i) {
          const SimCell& c = cells_[picks[i]];
          return sim::run_cell(c.mech, c.wl, c.cfg, c.opts);
        });
    for (std::size_t i = 0; i < picks.size(); ++i) {
      const bool same =
          metrics_bytes(ref[i]) == metrics_bytes(metrics_[picks[i]]);
      checks.push_back({"equivalence " + sim_label(cells_[picks[i]]), same,
                        same ? "" : "differs from sim::run_cell"});
    }
  }

  unsigned threads() const override { return worker_threads(); }

 private:
  static double ipc(const sim::Metrics& m) { return m.ipc; }
  static double throughput(const sim::Metrics& m) { return m.tx_per_kilocycle; }

  static Mechanism find_mech(const char* name) {
    return persist::DomainRegistry::instance().find(name)->id;
  }

  double gmean(Mechanism mech, double (*metric)(const sim::Metrics&)) const {
    std::vector<double> norm;
    for (const WorkloadKind wl : sim::kAllWorkloads) {
      double base = 0.0, v = 0.0;
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (cells_[i].wl != wl) continue;
        if (cells_[i].mech == Mechanism::kOptimal) base = metric(metrics_[i]);
        if (cells_[i].mech == mech) v = metric(metrics_[i]);
      }
      if (base > 0.0 && v > 0.0) norm.push_back(v / base);
    }
    return norm.size() == std::size(sim::kAllWorkloads)
               ? sim::geometric_mean(norm)
               : 0.0;
  }

  void check_ordering(std::vector<Check>& checks) const {
    const Mechanism sp = find_mech("sp"), tc = find_mech("tc"),
                    kiln = find_mech("kiln");
    for (const auto& [fig, metric] :
         {std::pair{"Fig. 6 IPC", &ipc}, std::pair{"Fig. 7 throughput", &throughput}}) {
      const double g_tc = gmean(tc, metric), g_kiln = gmean(kiln, metric),
                   g_sp = gmean(sp, metric);
      char detail[160];
      std::snprintf(detail, sizeof detail, "gmean TC %.4f, Kiln %.4f, SP %.4f",
                    g_tc, g_kiln, g_sp);
      checks.push_back({std::string("ordering TC > Kiln > SP, ") + fig,
                        g_tc > g_kiln && g_kiln > g_sp && g_sp > 0.0, detail});
    }
  }

  std::vector<SimCell> cells_;
  std::vector<sim::Metrics> metrics_;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed) {
    SystemConfig cfg = SystemConfig::experiment();
    cfg.topo.nodes = kServeNodes;
    cfg.service.enabled = true;
    cfg.service.open_loop = true;
    cfg.service.poisson = true;
    cfg.service.rate = kServeRate;
    cfg.service.requests = kServeRequests;
    sim::ExperimentOptions opts;
    opts.setup_scale = kServeSetupScale;
    for (unsigned lane = 0; lane < kServeLanes; ++lane) {
      opts.seed = seed * kServeLanes + lane;
      for (const char* name : {"tc", "sp"}) {
        const Mechanism mech = persist::DomainRegistry::instance().find(name)->id;
        cells_.push_back({mech, WorkloadKind::kHashtable, cfg, opts});
      }
    }
  }

  std::vector<CellRecord> run_batch(Tracer& tr, std::vector<Check>&) override {
    // Within a lane the cells run one after the other, each a whole 4-node
    // cluster.
    std::vector<CellRecord> recs(cells_.size());
    metrics_.assign(cells_.size(), {});
    const std::size_t per_lane = cells_.size() / kServeLanes;
    sim::parallel_for(kServeLanes, kServeLanes, [&](std::size_t lane) {
      for (std::size_t i = lane * per_lane; i < (lane + 1) * per_lane; ++i) {
        t_cell = static_cast<int>(i);
        metrics_[i] = run_sim_cell(cells_[i], tr, recs[i]);
        t_cell = -1;
      }
    });
    return recs;
  }

  void check_equivalence(std::vector<Check>& checks) override {
    // The first lane holds one cell per mechanism.
    for (std::size_t i = 0; i < cells_.size() / kServeLanes; ++i) {
      const SimCell& c = cells_[i];
      const bool same = metrics_bytes(sim::run_cell(c.mech, c.wl, c.cfg,
                                                    c.opts)) ==
                        metrics_bytes(metrics_[i]);
      checks.push_back({"equivalence " + sim_label(c), same,
                        same ? "" : "differs from sim::run_cell"});
    }
  }

  unsigned threads() const override { return kServeLanes; }

 private:
  std::vector<SimCell> cells_;
  std::vector<sim::Metrics> metrics_;
};

class CrashWorkload final : public Workload {
 public:
  explicit CrashWorkload(std::uint64_t seed) : cfg_(SystemConfig::experiment()) {
    cfg_.crash.points = kCrashPoints;
    cfg_.crash.setup = kCrashSetup;
    cfg_.crash.ops = kCrashOps;
    // The default cells, with each variant's costliest workload (rbtree)
    // first so that the pool's tail is short.
    std::vector<WorkloadKind> wls = faultsim::default_workloads();
    std::stable_partition(wls.begin(), wls.end(), [](WorkloadKind w) {
      return w == WorkloadKind::kRbtree;
    });
    cells_ = faultsim::make_cells(faultsim::default_variants(), wls, {seed});
  }

  std::vector<CellRecord> run_batch(Tracer& tr,
                                    std::vector<Check>& checks) override {
    std::vector<CellRecord> recs(cells_.size());
    results_.assign(cells_.size(), {});
    sim::parallel_for(cells_.size(), worker_threads(), [&](std::size_t i) {
      t_cell = static_cast<int>(i);
      results_[i] = run_crash_cell(cfg_, cells_[i], tr, recs[i]);
      t_cell = -1;
    });
    // A negative control must expose a violation in at least one cell.
    std::map<std::string, std::size_t> control_violations;
    for (const faultsim::CellResult& r : results_) {
      if (!r.spec.expect_consistent) {
        control_violations[r.spec.variant] += r.violations;
      }
    }
    for (const auto& [variant, violations] : control_violations) {
      checks.push_back({"negative control " + variant + " has teeth",
                        violations > 0,
                        std::to_string(violations) + " violations"});
    }
    return recs;
  }

  void check_equivalence(std::vector<Check>& checks) override {
    // One reference cell per variant: the cheap hashtable cell, or for a
    // negative control the sps cell, where it exposes violations.
    std::vector<std::size_t> picks;
    std::set<std::string> picked;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const faultsim::CellSpec& c = cells_[i];
      const WorkloadKind want = c.expect_consistent ? WorkloadKind::kHashtable
                                                    : WorkloadKind::kSps;
      if (c.wl == want && picked.insert(c.variant).second) picks.push_back(i);
    }
    const std::vector<faultsim::CellResult> ref =
        sim::run_jobs(picks.size(), worker_threads(), [&](std::size_t i) {
          return faultsim::run_cell(cfg_, cells_[picks[i]], {});
        });
    for (std::size_t i = 0; i < picks.size(); ++i) {
      const faultsim::CellResult& mine = results_[picks[i]];
      const bool same = crash_bytes(ref[i]) == crash_bytes(mine);
      checks.push_back({"equivalence " + mine.spec.variant + "/" +
                            std::string(to_string(mine.spec.wl)),
                        same, same ? "" : "differs from faultsim::run_cell"});
    }
  }

  unsigned threads() const override { return worker_threads(); }

 private:
  SystemConfig cfg_;
  std::vector<faultsim::CellSpec> cells_;
  std::vector<faultsim::CellResult> results_;
};

// --- Report ------------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_cell(std::ostream& os, const CellRecord& c) {
  os << "{\"label\":" << json_str(c.label)
     << ",\"failed\":" << (c.failed ? "true" : "false")
     << ",\"why\":" << json_str(c.why) << ",\"total_s\":" << json_num(c.total_s)
     << ",\"setup_s\":" << json_num(c.setup_s)
     << ",\"measured_s\":" << json_num(c.measured_s) << ",\"uops\":" << c.uops
     << ",\"cycles\":" << c.cycles << ",\"checks\":" << c.checks
     << ",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : c.counters) {
    os << (first ? "" : ",") << json_str(k) << ':' << json_num(v);
    first = false;
  }
  os << "}}";
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], v = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (flag == "--out") {
        a.out = v;
      } else if (flag == "--spans") {
        a.spans = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() &&
         a.seconds > 0.0 && std::isfinite(a.seconds);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ntcbench --workload matrix|serve-cluster|crash-campaign"
                 " --seed N --seconds S --trace 0|1 --out FILE [--spans FILE]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl;
  if (args.workload == "matrix") {
    wl = std::make_unique<MatrixWorkload>(args.seed);
  } else if (args.workload == "serve-cluster") {
    wl = std::make_unique<ServeWorkload>(args.seed);
  } else if (args.workload == "crash-campaign") {
    wl = std::make_unique<CrashWorkload>(args.seed);
  } else {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }

  Tracer untraced(false), traced(true);
  std::vector<Batch> batches;
  std::vector<Check> checks;
  const Clock::time_point begin = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - begin).count();
  };
  // --trace 1: untraced batches for the first half, traced for the second.
  const double untraced_until = args.trace ? args.seconds / 2 : args.seconds;
  bool traced_phase = false;
  double rss = 0.0;
  while (true) {
    if (!traced_phase && elapsed() >= untraced_until && !batches.empty()) {
      if (!args.trace) break;
      traced_phase = true;
    }
    if (traced_phase && elapsed() >= args.seconds && batches.back().traced) {
      break;
    }
    Tracer& tr = traced_phase ? traced : untraced;
    Batch b;
    b.traced = traced_phase;
    const Clock::time_point t0 = Clock::now();
    b.cells = wl->run_batch(tr, checks);
    b.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    b.digest = 14695981039346656037ULL;
    for (const CellRecord& c : b.cells) b.digest = fnv1a(c.outputs, b.digest);
    batches.push_back(std::move(b));
    // The high-water mark after the first batch: later batches only add
    // allocator fragmentation that depends on the host's timing.
    if (batches.size() == 1) rss = peak_rss_mb();
  }
  for (std::size_t i = 1; i < batches.size(); ++i) {
    checks.push_back({"digest batch " + std::to_string(i) + " = batch 0",
                      batches[i].digest == batches[0].digest, ""});
  }
  try {
    wl->check_equivalence(checks);
  } catch (const std::exception& e) {
    // sim::run_cell throws when a reference cell hits the cycle cap.
    checks.push_back({"equivalence", false, e.what()});
  }

  std::ofstream os(args.out);
  os << "{\"workload\":" << json_str(args.workload) << ",\"seed\":" << args.seed
     << ",\"threads\":" << wl->threads()
     << ",\"peak_rss_mb\":" << json_num(rss)
     << ",\"digest\":\"" << hex(batches[0].digest) << '"';
  if (const std::optional<double> gap = wl->paper_gap()) {
    os << ",\"paper_gap\":" << json_num(*gap);
  }
  os << ",\n\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    os << (i ? ",\n" : "\n") << "{\"name\":" << json_str(checks[i].name)
       << ",\"ok\":" << (checks[i].ok ? "true" : "false")
       << ",\"detail\":" << json_str(checks[i].detail) << '}';
  }
  os << "],\n\"batches\":[";
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const Batch& b = batches[i];
    os << (i ? ",\n" : "\n") << "{\"traced\":" << (b.traced ? "true" : "false")
       << ",\"wall_s\":" << json_num(b.wall_s) << ",\"cells\":[";
    for (std::size_t j = 0; j < b.cells.size(); ++j) {
      os << (j ? ",\n" : "\n");
      write_cell(os, b.cells[j]);
    }
    os << "]}";
  }
  os << "]}\n";
  if (!args.spans.empty()) {
    std::ofstream ss(args.spans);
    traced.write_json(ss);
    ss << '\n';
  }
  if (!os || !os.good()) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  return 0;
}
