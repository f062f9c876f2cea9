// Experiment runner used by the bench harness: builds the mechanism x
// workload matrix of the paper's §5 and provides the normalization and
// printing helpers the figures need.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "recovery/journal.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::sim {

/// The evaluation-matrix mechanism columns, in figure order (SP, TC, Kiln,
/// Optimal, then any registered extensions). Enumerated from the
/// persist::DomainRegistry, so mechanisms added there appear in --matrix
/// and the sweep CSVs with no changes here.
std::vector<Mechanism> matrix_mechanisms();

/// Figure/CSV label for any registered mechanism ("TC", "TC-NODRAIN", ...);
/// unlike to_string(Mechanism) this also covers registry-defined ids.
std::string_view mechanism_label(Mechanism mech);

inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kGraph, WorkloadKind::kRbtree, WorkloadKind::kSps,
    WorkloadKind::kBtree, WorkloadKind::kHashtable};

struct ExperimentOptions {
  /// Scale factor on measured ops, letting bench binaries offer a quick
  /// mode (`<bench> 0.2` or `--scale=0.2`).
  double scale = 1.0;
  /// Scale factor on the setup-phase structure size. Defaults to full
  /// size (the figures' cache pressure depends on it); tests shrink it to
  /// keep whole-matrix runs cheap.
  double setup_scale = 1.0;
  std::uint64_t seed = 1;
  /// Skip functional recovery tracking for pure performance sweeps (~15 %
  /// faster); the figure benches leave it on.
  bool track_recovery = false;
  /// Width of run_matrix / run_sweep batches. 0 = the thread budget
  /// (NTCSIM_JOBS or hardware_concurrency, see sweep.hpp); 1 = the serial
  /// path.
  unsigned jobs = 0;
  /// Self-profiling (`--profile[=FILE]`): time the simulator's own phases
  /// and emit a machine-readable report when the sweep finishes. Purely
  /// observational — simulated metrics are unaffected.
  bool profile = false;
  std::string profile_out = "BENCH_selfperf.json";
};

/// One cell's traces[node][core], arrivals stamped and (multi-node open
/// loop) routed to their home shards. Node n uses seed params.seed +
/// n * 0x9e3779b9, so node 0 reproduces single-node traces bit for bit;
/// `journal` records node 0's transactions for the atomicity oracle.
struct CellWorkload {
  std::vector<std::vector<workload::TraceBundle>> traces;
  topo::RouteStats route;
};
CellWorkload generate_cell(const SystemConfig& cfg,
                           const workload::WorkloadParams& params,
                           recovery::Journal* journal = nullptr);

/// Install every node's setup traces, or with `measured` its measured ones.
void load_phase(System& sys, CellWorkload& w, bool measured);

/// One cell of the evaluation matrix.
Metrics run_cell(Mechanism mech, WorkloadKind wl, const SystemConfig& base,
                 const ExperimentOptions& opts = {});

/// Full matrix; cells[workload][mechanism]. Cells run on opts.jobs worker
/// threads (see sweep.hpp); results are bit-identical to the serial path
/// because every cell is an independent simulation.
using Matrix = std::map<WorkloadKind, std::map<Mechanism, Metrics>>;
Matrix run_matrix(const SystemConfig& base, const ExperimentOptions& opts = {});

/// Normalized-to-Optimal figure printer: one row per workload plus a
/// geometric-mean row, one column per mechanism. `metric` extracts the
/// plotted quantity; `higher_is_better` only affects the caption.
void print_figure(std::ostream& os, const std::string& title,
                  const Matrix& matrix, double (*metric)(const Metrics&),
                  const std::string& caption);

/// Parse bench argv: optional positional scale factor, `--scale=X` (or
/// `--scale X`), `--jobs=N`/`--jobs N` (the process's thread budget, set
/// here via sim::set_thread_budget; NTCSIM_JOBS is the env equivalent, the
/// flag wins), and `--profile[=FILE]` (self-perf
/// report, default BENCH_selfperf.json). NTCSIM_SCALE overrides any argv
/// scale. These are rows of the `ntcsim` flag table (sim/config_io.hpp);
/// a bad or unknown argument prints a message and exits 1.
ExperimentOptions parse_bench_args(int argc, char** argv);

double geometric_mean(const std::vector<double>& v);

}  // namespace ntcsim::sim
