#include "common/config.hpp"

#include <cmath>
#include <tuple>
#include <utility>

namespace ntcsim {

std::string SystemConfig::validate() const {
  const auto pow2 = [](std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; };
  if (cores < 1) return "cores must be at least 1";
  if (!(std::isfinite(ghz) && ghz > 0.0)) return "ghz must be finite and > 0";
  for (const auto& [key, c] : {std::pair<std::string, const CacheConfig*>{
                                   "l1", &l1},
                               {"l2", &l2},
                               {"llc", &llc}}) {
    if (c->ways < 1) return key + ".ways must be at least 1";
    if (!pow2(c->sets())) {
      return key + ".size_kb / " + key + ".ways must give a power-of-two " +
             "set count (got " + std::to_string(c->sets()) + ")";
    }
  }
  if (ntc.entries() < 2) {
    return "ntc.size_bytes must hold at least 2 lines (" +
           std::to_string(2 * kLineBytes) + " bytes)";
  }
  if (!(ntc.overflow_threshold > 0.0 && ntc.overflow_threshold <= 1.0)) {
    return "ntc.threshold must be in (0, 1]";
  }
  for (const auto& [key, m] : {std::pair<std::string, const MemCtrlConfig*>{
                                   "nvm", &nvm},
                               {"dram", &dram}}) {
    if (!pow2(m->ranks)) return key + ".ranks must be a power of two";
    if (!pow2(m->banks_per_rank)) return key + ".banks must be a power of two";
    if (m->channels < 1) return key + ".channels must be at least 1";
    if (!(m->drain_low_watermark >= 0.0 &&
          m->drain_low_watermark <= m->drain_high_watermark &&
          m->drain_high_watermark <= 1.0)) {
      return key + ".drain_low / " + key +
             ".drain_high must satisfy 0 <= drain_low <= drain_high <= 1";
    }
  }
  if (topo.nodes < 1) return "topo.nodes must be at least 1";
  for (const auto& [key, v, zero_ok] :
       {std::tuple<const char*, double, bool>{"serve.rate", service.rate, false},
        {"topo.hop_ns", topo.hop_ns, true},
        {"topo.link_gbps", topo.link_gbps, false}}) {
    if (!(std::isfinite(v) && (v > 0.0 || (zero_ok && v == 0.0)))) {
      return std::string(key) + " must be finite and " + (zero_ok ? ">= 0" : "> 0");
    }
  }
  return {};
}

DeviceTiming DeviceTiming::ddr3() {
  // DDR3/DDR4-class timings at a 2 GHz CPU clock (0.5 ns/cycle):
  // tCAS ~= 14 ns => ~28 cycles row hit; PRE+ACT+CAS ~= 41 ns => ~82
  // cycles row miss; 64 B burst over a ~21 GB/s channel => ~3 ns => 6
  // cycles of data-bus occupancy.
  DeviceTiming t;
  t.row_hit = 28;
  t.row_miss = 82;
  t.write_extra = 0;
  t.burst = 6;
  return t;
}

DeviceTiming DeviceTiming::sttram() {
  // Table 2: 65 ns read, 76 ns write. We charge the full array access on a
  // row miss (130 cycles) and a CAS-like latency on a row-buffer hit; writes
  // take 11 ns (22 cycles) longer than reads.
  DeviceTiming t;
  t.row_hit = 30;
  t.row_miss = 130;
  t.write_extra = 22;
  t.burst = 6;
  return t;
}

SystemConfig SystemConfig::paper() {
  SystemConfig c;
  c.cores = 4;
  c.ghz = 2.0;

  c.core.issue_width = 4;
  c.core.rob_entries = 128;

  c.l1 = CacheConfig{32ULL << 10, 4, 1, 16, 8};     // 32 KB, 4-way, 0.5 ns
  c.l2 = CacheConfig{256ULL << 10, 8, 9, 16, 8};    // 256 KB, 8-way, 4.5 ns
  c.llc = CacheConfig{64ULL << 20, 16, 20, 32, 16}; // 64 MB, 16-way, 10 ns

  c.ntc = TxCacheConfig{};  // 4 KB, 0.5 ns, 90 % overflow threshold.

  c.dram.timing = DeviceTiming::ddr3();
  // DDR3 refresh at 2 GHz: tREFI = 7.8 us => 15600 cycles; tRFC(4 Gb)
  // ~= 260 ns => 520 cycles. The NVM channel never refreshes.
  c.dram.refresh_interval = 15600;
  c.dram.refresh_cycles = 520;
  c.nvm.timing = DeviceTiming::sttram();
  return c;
}

SystemConfig SystemConfig::experiment() {
  SystemConfig c = paper();
  // The paper simulates 1.7 G instructions per benchmark; our runs are
  // ~1000x shorter, so the LLC is scaled with the workload footprint to
  // preserve the capacity-pressure ratio that Fig. 8 depends on.
  c.llc = CacheConfig{2ULL << 20, 16, 20, 32, 16};  // 2 MB shared LLC.
  return c;
}

SystemConfig SystemConfig::tiny() {
  SystemConfig c = paper();
  c.cores = 1;
  c.l1 = CacheConfig{1ULL << 10, 2, 1, 4, 4};
  c.l2 = CacheConfig{2ULL << 10, 2, 3, 4, 4};
  c.llc = CacheConfig{4ULL << 10, 4, 6, 8, 4};
  c.ntc.size_bytes = 512;  // 8 entries.
  c.dram.read_queue = 4;
  c.dram.write_queue = 8;
  c.nvm.read_queue = 4;
  c.nvm.write_queue = 8;
  c.nvm.ranks = 1;
  c.nvm.banks_per_rank = 2;
  c.dram.ranks = 1;
  c.dram.banks_per_rank = 2;
  // Unit tests always run under the persistence-order checker: a perf PR
  // that silently reorders drains or leaks an uncommitted line fails fast
  // here rather than skewing figures. The checker only observes, so golden
  // numbers are unchanged; measured presets (paper/experiment) stay off.
  c.check = CheckMode::kFatal;
  // ... and under skip verification: every clock jump is cross-checked by
  // single-stepping the gap, even in Release unit-test runs. A component
  // returning a too-late next_event_cycle() fails here loudly instead of
  // silently corrupting measured figures.
  c.skip.verify = true;
  return c;
}

}  // namespace ntcsim
