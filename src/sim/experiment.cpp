#include "sim/experiment.hpp"

#include <cmath>
#include <stdexcept>

#include <chrono>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "persist/domain.hpp"
#include "recovery/journal.hpp"
#include "sim/profiler.hpp"
#include "sim/sweep.hpp"
#include "workload/service.hpp"

namespace ntcsim::sim {

std::vector<Mechanism> matrix_mechanisms() {
  return persist::DomainRegistry::instance().matrix_mechanisms();
}

std::string_view mechanism_label(Mechanism mech) {
  return persist::DomainRegistry::instance().display_name(mech);
}

CellWorkload generate_cell(const SystemConfig& cfg,
                           const workload::WorkloadParams& params,
                           recovery::Journal* journal) {
  const unsigned nodes = std::max(1u, cfg.topo.nodes);
  // Each node is its own shard with its own heap and a node-mixed seed, so
  // shards hold distinct data.
  CellWorkload w;
  w.traces.resize(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    workload::SimHeap heap(cfg.address_space, cfg.cores);
    workload::WorkloadParams p = params;
    p.seed = params.seed + n * 0x9e3779b9ULL;
    for (CoreId c = 0; c < cfg.cores; ++c) {
      w.traces[n].push_back(
          workload::generate_phased(p, c, heap, n == 0 ? journal : nullptr));
      // Open-loop service: stamp arrival cycles (relative to the measured
      // phase's start; the core rebases them at bind time).
      workload::stamp_service_arrivals(w.traces[n].back().measured,
                                       cfg.service, c, params.seed, n);
    }
  }
  // Shard the request stream: pick each request's entry node and charge
  // cross-shard traffic the interconnect round trip (stamp-time, so the
  // cell stays a pure function of its inputs).
  if (nodes > 1 && cfg.service.enabled && cfg.service.open_loop) {
    std::vector<std::vector<core::Trace*>> measured(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
      for (workload::TraceBundle& b : w.traces[n]) {
        measured[n].push_back(&b.measured);
      }
    }
    w.route = topo::route_service_arrivals(measured, cfg.topo, cfg.ghz,
                                           params.seed);
  }
  return w;
}

void load_phase(System& sys, CellWorkload& w, bool measured) {
  for (NodeId n = 0; n < w.traces.size(); ++n) {
    for (CoreId c = 0; c < w.traces[n].size(); ++c) {
      workload::TraceBundle& b = w.traces[n][c];
      sys.load_trace(n, c, std::move(measured ? b.measured : b.setup));
    }
  }
}

Metrics run_cell(Mechanism mech, WorkloadKind wl, const SystemConfig& base,
                 const ExperimentOptions& opts) {
  SystemConfig cfg = base;
  cfg.mechanism = mech;
  cfg.track_recovery_state =
      opts.track_recovery ||
      persist::policy_for(mech).needs_recovery_images;
  // Even when the caller skips recovery *checking*, most mechanisms need
  // the volatile/durable images to carry functional payloads (their
  // recovery paths read them); Optimal does not.

  workload::WorkloadParams params = workload::default_params(wl);
  params.seed = opts.seed;
  params.ops = static_cast<std::size_t>(
      static_cast<double>(params.ops) * opts.scale);
  if (params.ops == 0) params.ops = 1;
  params.setup_elems = static_cast<std::size_t>(
      static_cast<double>(params.setup_elems) * opts.setup_scale);
  if (params.setup_elems == 0) params.setup_elems = 1;
  if (cfg.service.enabled && cfg.service.requests > 0) {
    // Service cells pin the request count explicitly; --scale untouched.
    params.ops = cfg.service.requests;
  }

  // ntclint-suppress(determinism): self-profiling wall time, never simulated state
  const auto cell_start = std::chrono::steady_clock::now();
  CellWorkload w;
  {
    NTC_PROF_SCOPE("cell.generate");
    w = generate_cell(cfg, params);
  }
  System sys(cfg);
  auto require_finished = [&](const char* phase) {
    if (!sys.timed_out()) return;
    throw std::runtime_error(
        std::string("cell ") + std::string(mechanism_label(mech)) + "/" +
        std::string(to_string(wl)) + " hit the cycle cap in the " + phase +
        " phase (deadlock or under-budgeted run)");
  };
  {
    // Phase 1: build the structures (warm caches/NTC/NVM), unmeasured.
    NTC_PROF_SCOPE("cell.setup");
    load_phase(sys, w, /*measured=*/false);
    sys.run();
    require_finished("setup");
  }
  sys.reset_stats();
  sys.note_route_stats(w.route);
  {
    // Phase 2: the steady state the paper's figures report.
    NTC_PROF_SCOPE("cell.measured");
    load_phase(sys, w, /*measured=*/true);
    sys.run();
    require_finished("measured");
  }
  if (Profiler::enabled()) {
    // ntclint-suppress(determinism): self-profiling wall time, never simulated state
    const auto cell_end = std::chrono::steady_clock::now();
    Profiler::add_cell(
        std::string(mechanism_label(mech)) + "/" + std::string(to_string(wl)),
        std::chrono::duration<double>(cell_end - cell_start).count());
  }
  return sys.metrics();
}

Matrix run_matrix(const SystemConfig& base, const ExperimentOptions& opts) {
  const std::vector<Mechanism> mechs = matrix_mechanisms();
  std::vector<JobSpec> specs;
  for (WorkloadKind wl : kAllWorkloads) {
    for (Mechanism mech : mechs) {
      specs.push_back({mech, wl, base, opts});
    }
  }
  const std::vector<Metrics> cells = run_sweep(specs, opts.jobs);
  Matrix m;
  std::size_t i = 0;
  for (WorkloadKind wl : kAllWorkloads) {
    for (Mechanism mech : mechs) {
      m[wl][mech] = cells[i++];
    }
  }
  return m;
}

double geometric_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    NTC_ASSERT(x > 0.0, "geometric mean requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void print_figure(std::ostream& os, const std::string& title,
                  const Matrix& matrix, double (*metric)(const Metrics&),
                  const std::string& caption) {
  os << title << '\n' << caption << '\n';
  // Columns are the mechanisms actually present in this matrix (a caller
  // may build a custom one), ordered as the registry's matrix columns.
  std::vector<Mechanism> mechs;
  for (Mechanism mech : matrix_mechanisms()) {
    if (!matrix.empty() && matrix.begin()->second.count(mech) > 0) {
      mechs.push_back(mech);
    }
  }
  std::vector<std::string> header{"workload"};
  for (Mechanism mech : mechs) {
    header.emplace_back(mechanism_label(mech));
  }
  Table table(std::move(header));

  std::map<Mechanism, std::vector<double>> columns;
  for (const auto& [wl, row] : matrix) {
    const double base = metric(row.at(Mechanism::kOptimal));
    std::vector<double> cells;
    for (Mechanism mech : mechs) {
      const double v = metric(row.at(mech));
      const double norm = base == 0.0 ? 0.0 : v / base;
      cells.push_back(norm);
      if (norm > 0.0) columns[mech].push_back(norm);
    }
    table.add_row(std::string(to_string(wl)), cells);
  }
  std::vector<double> gmeans;
  for (Mechanism mech : mechs) {
    gmeans.push_back(columns[mech].empty() ? 0.0
                                           : geometric_mean(columns[mech]));
  }
  table.add_row("gmean", gmeans);
  table.print(os);
  os << '\n';
}

}  // namespace ntcsim::sim
