// Time-series sampling of a running system: cumulative and windowed
// metrics at a fixed cycle interval, for plotting warm-up behaviour, NTC
// occupancy waves, and write-drain bursts that end-of-run averages hide.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/types.hpp"
#include "sim/system.hpp"

namespace ntcsim::sim {

struct TimelineSample {
  Cycle cycle = 0;
  std::uint64_t committed_txs = 0;   ///< Cumulative.
  std::uint64_t nvm_writes = 0;      ///< Cumulative.
  std::uint64_t nvm_reads = 0;       ///< Cumulative.
  double window_tx_per_kilocycle = 0.0;  ///< Rate within this window.
  std::size_t ntc_occupancy = 0;     ///< Max across cores at sample time.
  std::size_t nvm_write_queue = 0;   ///< Controller occupancy at sample time.
  std::uint64_t requests = 0;        ///< Cumulative completed requests.
  /// p99 request latency of the requests retired within this window
  /// (power-of-two bucket edge; 0 when the window retired nothing) — the
  /// time-resolved view of a drain burst or commit stall that a whole-run
  /// percentile averages away.
  std::uint64_t window_req_p99 = 0;
  /// Fraction of this window's node-cycles the quiescence-aware clock
  /// advance jumped over (0 with `--no-skip` or skip.verify). Diagnostic only:
  /// high values mark genuinely idle stretches of the run.
  double window_skip_ratio = 0.0;
};

/// Run `sys` to completion, recording one sample every `interval` cycles.
/// The system must already have its traces loaded.
std::vector<TimelineSample> run_with_timeline(System& sys, Cycle interval);

/// CSV with a header row; one line per sample.
void write_timeline_csv(std::ostream& os,
                        const std::vector<TimelineSample>& samples);

}  // namespace ntcsim::sim
