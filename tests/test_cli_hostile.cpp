// Boundary validation of the option surface (sim/config_io.hpp): every
// hostile input below must be rejected up front — exit status exactly 1 and
// a stderr line naming the offending flag, key or environment variable —
// never an abort deep in the simulator (134), a SIGFPE (136), or a silent
// run on nonsense (0). The ntcsim cases drive the real binary; the bench
// cases go through parse_bench_args, the entry point every bench shares.
// Also pins `--dump-config` for each preset against tests/data goldens so a
// table edit cannot reorder or reformat the dump silently, and the
// `--stats` dump of single- and multi-node runs against the library's own
// StatSets.
#include "sim/config_io.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "recovery/journal.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"

namespace ntcsim::sim {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;  // the stream the command captured
};

/// Run ntcsim with `args`, capturing its stderr (or its stdout).
RunResult run_ntcsim(const std::string& args, const std::string& env = "",
                     bool want_stderr = true) {
  const std::string redirect = want_stderr ? " 2>&1 >/dev/null" : " 2>/dev/null";
  const std::string cmd =
      env + " " + std::string(NTC_NTCSIM_BIN) + " " + args + redirect;
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "cannot launch " << cmd;
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.out.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return r;
}

struct Hostile {
  const char* args;
  const char* env;    ///< Environment assignment prefix, or "".
  const char* names;  ///< What the error line must mention.
};

constexpr Hostile kHostile[] = {
    {"--ops=abc", "", "--ops"},
    {"--jobs=abc", "", "--jobs"},
    {"--crash-at=x", "", "--crash-at"},
    {"--nodes=-1", "", "--nodes"},
    {"--set topo.nodes=-1", "", "topo.nodes"},
    {"--rate=nan", "", "--rate"},
    {"--rate=inf", "", "--rate"},
    {"--rate=-1", "", "--rate"},
    {"--set cores=0", "", "cores"},
    {"--set cores=4x", "", "cores"},
    {"--set l1.ways=0", "", "l1.ways"},
    {"--set ghz=0", "", "ghz"},
    {"--set ntc.threshold=7", "", "ntc.threshold"},
    {"--set nvm.banks=3", "", "nvm.banks"},
    {"--set nvm.drain_low=0.9", "", "nvm.drain_low"},
    {"--scale=-1", "", "--scale"},
    {"--matrix --scale=-1", "", "--scale"},
    {"--config=/nonexistent", "", "--config"},
    {"--no-such-flag", "", "--no-such-flag"},
    {"", "NTCSIM_SCALE=-1", "NTCSIM_SCALE"},
};

TEST(CliHostile, EveryHostileInputExitsOneWithAMessage) {
  for (const Hostile& h : kHostile) {
    SCOPED_TRACE(std::string(h.env) + " ntcsim ... " + h.args);
    const RunResult r = run_ntcsim(
        std::string("--preset=tiny --workload=sps --ops=50 ") + h.args, h.env);
    EXPECT_EQ(r.exit_code, 1) << r.out;
    EXPECT_NE(r.out.find("ntcsim: "), std::string::npos) << r.out;
    EXPECT_NE(r.out.find(h.names), std::string::npos) << r.out;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream oss;
  oss << f.rdbuf();
  return oss.str();
}

TEST(CliHostile, DumpConfigMatchesTheGoldens) {
  for (const char* preset : {"paper", "experiment", "tiny"}) {
    SCOPED_TRACE(preset);
    std::string golden = read_file(std::string(NTC_DATA_DIR) +
                                   "/dump_config_" + preset + ".cfg");
#ifndef NDEBUG
    // The goldens are release dumps; debug builds default the checker and
    // skip verification on (config.hpp), which only the tiny preset pins.
    for (const auto& [from, to] : {std::pair<std::string, std::string>{
                                       "check = off\n", "check = fatal\n"},
                                   {"skip.verify = 0\n", "skip.verify = 1\n"}}) {
      if (const std::size_t at = golden.find(from); at != std::string::npos) {
        golden.replace(at, from.size(), to);
      }
    }
#endif
    const RunResult r = run_ntcsim(std::string("--dump-config --preset=") +
                                       preset,
                                   "", /*want_stderr=*/false);
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.out, golden);
  }
}

/// What `ntcsim <args> --stats` prints after its "-- raw statistics --"
/// line, computed in-process the way tools/ntcsim.cpp runs a cell: a
/// single node's StatSet dump as it is, or every node's under `nodeK.`.
std::string expected_stats(const std::vector<const char*>& args) {
  std::vector<const char*> argv = {"ntcsim"};
  argv.insert(argv.end(), args.begin(), args.end());
  CliOptions cli;
  EXPECT_TRUE(parse_cli(static_cast<int>(argv.size()), argv.data(), cli).ok);
  set_thread_budget(1);
  recovery::Journal journal(cli.cfg.cores);
  CellWorkload w = generate_cell(cli.cfg, cli.params(), &journal);
  System sys(cli.cfg);
  load_phase(sys, w, /*measured=*/false);
  EXPECT_EQ(sys.run(), RunStatus::kFinished);
  sys.reset_stats();
  sys.note_route_stats(w.route);
  load_phase(sys, w, /*measured=*/true);
  EXPECT_EQ(sys.run(), RunStatus::kFinished);
  set_thread_budget(0);
  std::ostringstream out;
  for (NodeId n = 0; n < sys.nodes(); ++n) {
    std::ostringstream dump;
    sys.node(n).stats().dump(dump);
    std::istringstream lines(dump.str());
    for (std::string line; std::getline(lines, line);) {
      if (sys.nodes() > 1) out << "node" << n << '.';
      out << line << '\n';
    }
  }
  return out.str();
}

TEST(CliStats, DumpsEveryNodeUnderItsPrefix) {
  for (const char* nodes : {"--nodes=1", "--nodes=3"}) {
    SCOPED_TRACE(nodes);
    const std::vector<const char*> args = {
        "--preset=tiny", "--workload=hashtable", "--serve", "--rate=2",
        "--requests=20",  "--setup=300",          nodes};
    std::string cmd;
    for (const char* a : args) cmd += std::string(a) + " ";
    const RunResult r = run_ntcsim(cmd + "--stats", "", /*want_stderr=*/false);
    ASSERT_EQ(r.exit_code, 0);
    const std::string marker = "\n-- raw statistics --\n";
    const std::size_t at = r.out.find(marker);
    ASSERT_NE(at, std::string::npos) << r.out;
    const std::string dumped = r.out.substr(at + marker.size());
    EXPECT_EQ(dumped, expected_stats(args));
    const bool prefixed = dumped.rfind("node0.", 0) == 0;
    EXPECT_EQ(prefixed, std::string(nodes) != "--nodes=1");
  }
}

/// argv for parse_bench_args: argv[0] is the program name.
struct Argv {
  explicit Argv(std::vector<std::string> a) : args(std::move(a)) {
    args.insert(args.begin(), "bench");
    for (std::string& s : args) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  std::vector<std::string> args;
  std::vector<char*> ptrs;
};

TEST(BenchArgsHostile, RejectedWithTheArgumentNamed) {
  const struct {
    std::vector<std::string> args;
    const char* names;
  } cases[] = {
      {{"--jobs=abc"}, "--jobs"},
      {{"--jobs", "abc"}, "--jobs"},
      {{"--scale=-3"}, "--scale"},
      {{"-3"}, "--scale: invalid value \"-3\""},  // the positional scale
      {{"0.5", "--no-such-flag"}, "--no-such-flag"},
  };
  for (const auto& c : cases) {
    Argv argv(c.args);
    SCOPED_TRACE(c.names);
    ExperimentOptions opts;
    const ConfigParseResult r = parse_bench_args(argv.argc(), argv.ptrs.data(), opts);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find(c.names), std::string::npos) << r.error;
  }
}

TEST(BenchArgsHostile, EnvScaleIsValidatedToo) {
  Argv argv({"0.5"});
  ExperimentOptions opts;
  setenv("NTCSIM_SCALE", "0.25", 1);
  EXPECT_TRUE(parse_bench_args(argv.argc(), argv.ptrs.data(), opts).ok);
  EXPECT_DOUBLE_EQ(opts.scale, 0.25);  // the env overrides argv
  setenv("NTCSIM_SCALE", "nan", 1);
  const ConfigParseResult r = parse_bench_args(argv.argc(), argv.ptrs.data(), opts);
  unsetenv("NTCSIM_SCALE");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("NTCSIM_SCALE"), std::string::npos) << r.error;
}

TEST(BenchArgsHostileDeathTest, BenchBinariesExitOne) {
  Argv argv({"--jobs=abc"});
  EXPECT_EXIT(parse_bench_args(argv.argc(), argv.ptrs.data()),
              ::testing::ExitedWithCode(1), "--jobs");
}

}  // namespace
}  // namespace ntcsim::sim
