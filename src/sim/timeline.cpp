#include "sim/timeline.hpp"

#include <algorithm>

namespace ntcsim::sim {

std::vector<TimelineSample> run_with_timeline(System& sys, Cycle interval) {
  std::vector<TimelineSample> samples;
  std::uint64_t prev_txs = 0;
  std::uint64_t prev_skipped = sys.cycles_skipped();
  Cycle prev_cycle = sys.now();
  Histogram prev_hist;
  bool done = false;
  while (!done) {
    done = sys.run_for(interval);
    TimelineSample s;
    s.cycle = sys.now();
    // The final window can be shorter than `interval` (the run drained),
    // so both window rates use the cycles actually elapsed in this window.
    // Skip counts are node-cycle sums, so the skip ratio's denominator is
    // nodes x elapsed.
    const Cycle elapsed = s.cycle - prev_cycle;
    const std::uint64_t skipped = sys.cycles_skipped() - prev_skipped;
    const Metrics m = sys.metrics();
    if (elapsed > 0) {
      s.window_skip_ratio = static_cast<double>(skipped) /
                            static_cast<double>(elapsed * sys.nodes());
      s.window_tx_per_kilocycle =
          1000.0 * static_cast<double>(m.committed_txs - prev_txs) /
          static_cast<double>(elapsed);
    }
    prev_cycle = s.cycle;
    prev_skipped = sys.cycles_skipped();
    s.committed_txs = m.committed_txs;
    s.nvm_writes = m.nvm_writes;
    s.nvm_reads = m.nvm_reads;
    prev_txs = m.committed_txs;
    s.requests = m.requests;
    Histogram cur;  // request latencies since reset_stats(), every node
    for (NodeId n = 0; n < sys.nodes(); ++n) {
      Node& node = sys.node(n);
      cur.merge(node.raw().req_hist);
      for (CoreId c = 0; c < sys.config().cores; ++c) {
        if (node.ntc(c) != nullptr) {
          s.ntc_occupancy = std::max(s.ntc_occupancy, node.ntc(c)->occupancy());
        }
      }
      s.nvm_write_queue += node.memory().nvm_pending_writes();
    }
    const Histogram window = cur.diff_since(prev_hist);
    if (window.total() > 0) s.window_req_p99 = window.percentile_edge(99.0);
    prev_hist = cur;
    samples.push_back(s);
  }
  return samples;
}

void write_timeline_csv(std::ostream& os,
                        const std::vector<TimelineSample>& samples) {
  os << "cycle,committed_txs,nvm_writes,nvm_reads,window_tx_per_kilocycle,"
        "ntc_occupancy,nvm_write_queue,requests,window_req_p99,"
        "window_skip_ratio\n";
  for (const TimelineSample& s : samples) {
    os << s.cycle << ',' << s.committed_txs << ',' << s.nvm_writes << ','
       << s.nvm_reads << ',' << s.window_tx_per_kilocycle << ','
       << s.ntc_occupancy << ',' << s.nvm_write_queue << ',' << s.requests
       << ',' << s.window_req_p99 << ',' << s.window_skip_ratio << '\n';
  }
}

}  // namespace ntcsim::sim
