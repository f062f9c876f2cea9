// The simulator's one option surface: every configuration key, every
// `ntcsim` flag and every bench argument is a row of a table in
// config_io.cpp, parsed by one strict scalar parser and validated at the
// boundary (SystemConfig::validate()), so bad input is rejected with a
// message instead of aborting deep inside the simulator.
//
// Machines are described by INI-style `key = value` lines (`cores = 4`,
// `llc.size_kb = 2048`, `ntc.threshold = 0.9`, ...); `#` starts a comment
// and unknown keys are hard errors (silent typos corrupt experiments).
// `ntcsim --dump-config` prints every key.
#pragma once

#include <iosfwd>
#include <set>
#include <string>
#include <string_view>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::sim {

struct ConfigParseResult {
  bool ok = true;
  std::string error;  ///< First problem, with line number.
};

/// Apply `key = value` lines from `is` on top of `cfg` (so files are
/// overlays over a preset). Returns the first error, if any.
ConfigParseResult apply_config(std::istream& is, SystemConfig& cfg);

/// Apply a single `key=value` assignment (the CLI's `--set key=value`).
ConfigParseResult apply_config_line(const std::string& line,
                                    SystemConfig& cfg);

/// Serialize every supported key with its current value — the output
/// round-trips through apply_config.
void write_config(std::ostream& os, const SystemConfig& cfg);

/// The one scalar parser behind every numeric key, flag and bench argument:
/// all of `text` must be a T (no sign on unsigned types, finite doubles) in
/// [lo, hi], or (lo, hi] if `lo_open`. Returns "" and sets `out`, or says
/// what was expected.
template <typename T>
std::string parse_scalar(std::string_view text, T& out, T lo, T hi,
                         bool lo_open = false);

/// Parse a mechanism name or alias against the persist::DomainRegistry
/// (case-insensitive); false and an unmodified `out` on unknown names.
bool parse_mechanism(const std::string& name, Mechanism& out);
bool parse_workload(const std::string& name, WorkloadKind& out);

/// The one checker-mode parser shared by `--check=MODE`, the `check`
/// config key and the NTCSIM_CHECK environment override, so all three
/// agree on accepted spellings: "off"/"0", "collect"/"1", "fatal".
/// False and an unmodified `out` on anything else.
bool parse_check_mode(const std::string& value, CheckMode& out);

/// `configured` with the NTCSIM_CHECK environment override applied
/// (parse_check_mode spellings; unset or unparsable values leave the
/// configured mode in force).
CheckMode check_mode_from_env(CheckMode configured);

/// Everything an `ntcsim` command line sets: the bench options (--jobs,
/// --scale, --profile, --seed), the machine (flags that set machine state
/// are sugar for config keys) and the driver's own options.
struct CliOptions : ExperimentOptions {
  std::string preset = "experiment";
  SystemConfig cfg;
  WorkloadKind workload = WorkloadKind::kRbtree;
  std::uint64_t ops = 0;
  std::uint64_t setup = 0;
  unsigned lookup = 0;
  Cycle crash_at = 0;
  std::string crash_report = "CRASH_sweep.json";
  /// Flags that appeared on the command line. Driver switches (--csv,
  /// --matrix, ...) are just their presence; explicit --mechanism etc.
  /// narrow the crash sweep's cell set.
  std::set<std::string, std::less<>> given;

  /// Whether `flag` (a name from the flag table) was given.
  bool has(std::string_view flag) const;
  /// The workload's defaults overlaid with --ops/--setup/--lookup/--seed
  /// (and --requests, which wins over --ops in service mode).
  workload::WorkloadParams params() const;
};

/// Parse an `ntcsim` command line: --preset first, then every argument in
/// order, then NTCSIM_SCALE, then SystemConfig::validate(). The error
/// names the offending flag, key or environment variable. Parsing stops
/// early (successfully) at --help or --list-mechanisms.
ConfigParseResult parse_cli(int argc, const char* const* argv,
                            CliOptions& out);

/// Like parse_bench_args(argc, argv) (sim/experiment.hpp), but returns the
/// first bad argument instead of exiting, and leaves the thread budget
/// alone.
ConfigParseResult parse_bench_args(int argc, const char* const* argv,
                                   ExperimentOptions& out);

/// `ntcsim --help`, generated from the flag table.
std::string cli_help();

}  // namespace ntcsim::sim
