// ntcsim — command-line driver for the persistent-memory-accelerator
// simulator. Runs one workload under one mechanism on a configurable
// machine and reports metrics (human-readable or CSV), optionally with
// crash injection + recovery checking.
//
//   ntcsim --workload=rbtree --mechanism=tc
//   ntcsim --workload=sps --mechanism=sp --ops=2000 --set cores=2 --csv
//   ntcsim --config=machine.cfg --set llc.size_kb=1024
//   ntcsim --workload=hashtable --mechanism=tc --crash-at=50000
//   ntcsim --serve --rate=4 --requests=2000 --workload=hashtable
//   ntcsim --matrix --jobs=8 --csv
//   ntcsim --dump-config
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "faultsim/campaign.hpp"
#include "persist/domain.hpp"
#include "recovery/recovery.hpp"
#include "sim/config_io.hpp"
#include "sim/experiment.hpp"
#include "sim/profiler.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace ntcsim;
using sim::CliOptions;

void list_mechanisms() {
  for (Mechanism m : persist::DomainRegistry::instance().all()) {
    const persist::DomainInfo& info =
        persist::DomainRegistry::instance().info(m);
    std::string aliases;
    for (const std::string& alias : info.aliases) {
      aliases += aliases.empty() ? " (alias " : ", ";
      aliases += alias;
    }
    if (!aliases.empty()) aliases += ")";
    std::printf("%-12s %-10s %s%s\n", info.name.c_str(), info.display.c_str(),
                info.summary.c_str(), aliases.c_str());
  }
}

// --crash-sweep: the deterministic fault-injection campaign (src/faultsim/).
// By default every mechanism variant x {sps, hashtable, rbtree} x seeds
// 1..crash.seeds is swept; explicit --mechanism / --workload / --seed narrow
// the cell set (a mechanism filter keeps its negative-control sibling, e.g.
// sp!unordered rides with sp). Exit 2 when any expected-consistent cell
// violated atomicity.
int run_crash_sweep_mode(const CliOptions& cli) {
  SystemConfig cfg = cli.cfg;
  if (cli.has("--ops")) cfg.crash.ops = cli.ops;
  if (cli.has("--setup")) cfg.crash.setup = cli.setup;
  cfg.crash.ops = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(cfg.crash.ops) * cli.scale));

  std::vector<faultsim::VariantSpec> variants = faultsim::default_variants();
  if (cli.has("--mechanism")) {
    std::erase_if(variants, [&](const faultsim::VariantSpec& v) {
      return v.mech != cli.cfg.mechanism;
    });
    if (variants.empty()) {
      std::fprintf(stderr, "--crash-sweep: mechanism \"%s\" has no campaign "
                           "variant\n",
                   persist::DomainRegistry::instance()
                       .info(cli.cfg.mechanism).name.c_str());
      return 1;
    }
  }
  const std::vector<WorkloadKind> workloads =
      cli.has("--workload") ? std::vector<WorkloadKind>{cli.workload}
                            : faultsim::default_workloads();
  std::vector<std::uint64_t> seeds;
  if (cli.has("--seed")) {
    seeds.push_back(cli.seed);
  } else {
    for (unsigned s = 1; s <= std::max(1u, cfg.crash.seeds); ++s) {
      seeds.push_back(s);
    }
  }

  faultsim::CampaignOptions opts;
  opts.jobs = cli.jobs;
  opts.repro_prefix = "ntcsim";
  if (cli.preset != "experiment") opts.repro_prefix += " --preset=" + cli.preset;

  const std::vector<faultsim::CellSpec> cells =
      faultsim::make_cells(variants, workloads, seeds);
  const faultsim::CampaignReport report =
      faultsim::run_campaign(cfg, cells, opts);

  if (cli.crash_report == "-") {
    // Keep stdout pure JSON so `--crash-report=- | jq` works; the human
    // summary moves to stderr.
    faultsim::write_report_text(std::cerr, report);
    faultsim::write_report_json(std::cout, report, cfg);
  } else if (!cli.crash_report.empty()) {
    faultsim::write_report_text(std::cout, report);
    std::ofstream out(cli.crash_report);
    if (!out) {
      std::fprintf(stderr, "cannot write crash report \"%s\"\n",
                   cli.crash_report.c_str());
      return 1;
    }
    faultsim::write_report_json(out, report, cfg);
    std::printf("crash-sweep: report written to %s\n",
                cli.crash_report.c_str());
  } else {
    faultsim::write_report_text(std::cout, report);
  }
  return report.ok() ? 0 : 2;
}

// --matrix: the full mechanism x workload evaluation of the paper's §5 in
// one invocation, cells fanned out over worker threads. CSV mode emits one
// row per cell; otherwise the Fig. 6/7-style normalized tables print.
int run_matrix_mode(const CliOptions& cli) {
  sim::Matrix matrix;
  try {
    matrix = sim::run_matrix(cli.cfg, cli);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "ntcsim: matrix aborted: %s\n", e.what());
    return 4;
  }
  std::uint64_t check_violations = 0;
  for (const auto& [wl, row] : matrix) {
    for (const auto& [mech, m] : row) check_violations += m.check_violations;
  }
  if (cli.has("--csv")) {
    sim::write_matrix_csv(std::cout, matrix);
  } else {
    sim::print_figure(
        std::cout, "Matrix: IPC", matrix,
        [](const sim::Metrics& m) { return m.ipc; },
        "IPC normalized to Optimal; higher is better.");
    sim::print_figure(
        std::cout, "Matrix: throughput", matrix,
        [](const sim::Metrics& m) { return m.tx_per_kilocycle; },
        "Transactions/kcycle normalized to Optimal; higher is better.");
  }
  if (cli.cfg.check != CheckMode::kOff) {
    std::fprintf(stderr, "persistence-order checker: %llu violation(s)\n",
                 static_cast<unsigned long long>(check_violations));
    if (check_violations > 0) return 3;
  }
  return 0;
}

int run(const CliOptions& cli) {
  // The atomicity oracle (--crash-at) follows node 0, where the crash is
  // injected; other nodes' shards run without a journal.
  recovery::Journal journal(cli.cfg.cores);
  sim::CellWorkload w = sim::generate_cell(cli.cfg, cli.params(), &journal);

  sim::System sys(cli.cfg);
  sim::load_phase(sys, w, /*measured=*/false);
  if (sys.run() != sim::RunStatus::kFinished) {
    std::fprintf(stderr,
                 "ntcsim: setup phase hit the cycle cap — truncated run, "
                 "results discarded\n");
    return 4;
  }
  sys.reset_stats();
  sys.note_route_stats(w.route);
  sim::load_phase(sys, w, /*measured=*/true);

  if (cli.crash_at > 0) {
    const Cycle epoch = sys.now();
    while (sys.now() < epoch + cli.crash_at && !sys.run_for(1000)) {
    }
    const recovery::WordImage img = sys.crash_and_recover();
    const auto report = recovery::check_atomicity(img, journal);
    std::printf("crash at cycle %llu (measured-phase cycle %llu)\n",
                static_cast<unsigned long long>(sys.now()),
                static_cast<unsigned long long>(sys.now() - epoch));
    if (report.consistent) {
      std::printf("recovery: CONSISTENT\n");
      for (CoreId c = 0; c < cli.cfg.cores; ++c) {
        std::printf("  core %u: %zu/%zu transactions durable\n", c,
                    report.durable_tx_prefix[c],
                    journal.per_core(c).size());
      }
      return 0;
    }
    std::printf("recovery: ATOMICITY VIOLATION\n  %s\n",
                report.violation.c_str());
    return 2;
  }

  if (sys.run() != sim::RunStatus::kFinished) {
    std::fprintf(stderr,
                 "ntcsim: measured phase hit the cycle cap — truncated run, "
                 "results discarded\n");
    return 4;
  }
  const sim::Metrics m = sys.metrics();

  const std::string label = std::string(to_string(cli.workload)) + "/" +
                            std::string(sim::mechanism_label(cli.cfg.mechanism));
  if (cli.has("--csv")) {
    sim::write_metrics_csv_row(std::cout, label, m, /*header=*/true);
  } else {
    std::printf("%s on %s preset (%u cores)\n", label.c_str(),
                cli.preset.c_str(), cli.cfg.cores);
    std::printf("  cycles               %llu\n",
                static_cast<unsigned long long>(m.cycles));
    std::printf("  IPC (aggregate)      %.3f\n", m.ipc);
    std::printf("  transactions/kcycle  %.3f\n", m.tx_per_kilocycle);
    std::printf("  LLC miss rate        %.4f\n", m.llc_miss_rate);
    std::printf("  NVM writes / reads   %llu / %llu\n",
                static_cast<unsigned long long>(m.nvm_writes),
                static_cast<unsigned long long>(m.nvm_reads));
    std::printf("  pload latency        %.1f cy (p50<=%llu, p99<=%llu)\n",
                m.pload_latency,
                static_cast<unsigned long long>(m.pload_latency_p50),
                static_cast<unsigned long long>(m.pload_latency_p99));
    std::printf("  NTC stalls / spills  %.5f / %llu\n", m.ntc_stall_frac,
                static_cast<unsigned long long>(m.ntc_spills));
    if (cli.cfg.service.enabled) {
      const auto& sv = cli.cfg.service;
      std::printf("  service              %llu requests, %s, %s arrivals"
                  " (offered %.2f/kcycle/core)\n",
                  static_cast<unsigned long long>(m.requests),
                  sv.open_loop ? "open-loop" : "closed-loop",
                  sv.open_loop ? (sv.poisson ? "poisson" : "uniform")
                               : "back-to-back",
                  sv.open_loop ? sv.rate : 0.0);
      std::printf("  request latency      %.1f cy mean (p50<=%llu p95<=%llu"
                  " p99<=%llu p99.9<=%llu)\n",
                  m.req_latency,
                  static_cast<unsigned long long>(m.req_latency_p50),
                  static_cast<unsigned long long>(m.req_latency_p95),
                  static_cast<unsigned long long>(m.req_latency_p99),
                  static_cast<unsigned long long>(m.req_latency_p999));
    }
    if (!m.per_node.empty()) {
      std::printf("  cluster              %u nodes, %llu cross-shard"
                  " requests (avg fwd delay %.1f cy)\n",
                  sys.nodes(),
                  static_cast<unsigned long long>(m.xshard_requests),
                  m.xshard_fwd_delay);
      for (std::size_t n = 0; n < m.per_node.size(); ++n) {
        const sim::Metrics& pm = m.per_node[n];
        std::printf("    node %zu: %.3f tx/kcycle, %llu NVM writes, "
                    "%llu requests (p99<=%llu)\n",
                    n, pm.tx_per_kilocycle,
                    static_cast<unsigned long long>(pm.nvm_writes),
                    static_cast<unsigned long long>(pm.requests),
                    static_cast<unsigned long long>(pm.req_latency_p99));
      }
    }
  }
  if (cli.has("--stats")) {
    std::cout << "\n-- raw statistics --\n";
    for (NodeId n = 0; n < sys.nodes(); ++n) {
      sys.node(n).stats().dump(
          std::cout, sys.nodes() > 1 ? "node" + std::to_string(n) + "." : "");
    }
  }
  if (sys.node(0).checker() != nullptr) {
    std::fprintf(stderr, "persistence-order checker: %llu violation(s)\n",
                 static_cast<unsigned long long>(m.check_violations));
    if (m.check_violations > 0) {
      for (NodeId n = 0; n < sys.nodes(); ++n) {
        const check::PersistOrderChecker* checker = sys.node(n).checker();
        if (checker->violation_count() > 0) checker->report(stderr);
      }
      return 3;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (const auto r = sim::parse_cli(argc, argv, cli); !r.ok) {
    std::fprintf(stderr, "ntcsim: %s\n", r.error.c_str());
    return 1;
  }
  if (cli.has("--help")) {
    std::fputs(sim::cli_help().c_str(), stdout);
    return 0;
  }
  if (cli.has("--list-mechanisms")) {
    list_mechanisms();
    return 0;
  }
  if (cli.has("--dump-config")) {
    sim::write_config(std::cout, cli.cfg);
    return 0;
  }
  sim::set_thread_budget(cli.jobs);
  // Opened here (not in run_matrix_mode) so single-cell runs profile too;
  // the inner session run_sweep would open is inert while this one lives.
  std::unique_ptr<sim::ProfileSession> session;
  if (cli.profile) {
    session = std::make_unique<sim::ProfileSession>(cli.profile_out);
  }
  if (cli.has("--crash-sweep") || cli.has("--crash-points")) {
    return run_crash_sweep_mode(cli);
  }
  if (cli.has("--matrix")) return run_matrix_mode(cli);
  return run(cli);
}
