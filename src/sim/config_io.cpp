#include "sim/config_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "persist/domain.hpp"
#include "sim/sweep.hpp"

namespace ntcsim::sim {

namespace {

constexpr double kMax = std::numeric_limits<double>::max();

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Integers print exactly; doubles print the shortest text that parses
/// back to the same value, so write_config round-trips bit for bit.
template <typename T>
std::string format_value(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else {
    return std::to_string(v);
  }
}

}  // namespace

template <typename T>
std::string parse_scalar(std::string_view text, T& out, T lo, T hi,
                         bool lo_open) {
  constexpr bool kFloat = std::is_floating_point_v<T>;
  const char* expected =
      kFloat ? "expected a finite number" : "expected an unsigned integer";
  T v{};
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec == std::errc::result_out_of_range) return "out of range";
  if (text.empty() || ec != std::errc() || ptr != last) return expected;
  if constexpr (kFloat) {
    if (!std::isfinite(v)) return expected;
  }
  if (v < lo || v > hi || (lo_open && v == lo)) {
    if (hi == std::numeric_limits<T>::max()) {
      return (lo_open ? "must be > " : "must be >= ") + format_value(lo);
    }
    return std::string("must be in ") + (lo_open ? "(" : "[") +
           format_value(lo) + ", " + format_value(hi) + "]";
  }
  out = v;
  return {};
}

template std::string parse_scalar(std::string_view, unsigned&, unsigned,
                                  unsigned, bool);
template std::string parse_scalar(std::string_view, std::uint64_t&,
                                  std::uint64_t, std::uint64_t, bool);
template std::string parse_scalar(std::string_view, double&, double, double,
                                  bool);

namespace {

template <typename T>
struct Range {
  T lo = 0;
  T hi = std::numeric_limits<T>::max();
  bool lo_open = false;
};

// ---------------------------------------------------------------------------
// Configuration keys: one row per key.

/// `set` parses `value` into the config and returns "" or what was
/// expected; `get` prints the current value in a form `set` accepts.
struct KeyRow {
  std::function<std::string(SystemConfig&, std::string_view)> set;
  std::function<std::string(const SystemConfig&)> get;
};

/// Typed accessor for the member a row edits (`get` only reads through
/// it, so casting const away there is safe).
template <typename T>
using Field = std::function<T&(SystemConfig&)>;

template <typename C, typename T>
Field<T> field(T C::* m) {
  return [m](SystemConfig& c) -> T& { return c.*m; };
}
template <typename C, typename S, typename T>
Field<T> field(S C::* sub, T S::* m) {
  return [sub, m](SystemConfig& c) -> T& { return (c.*sub).*m; };
}

/// A numeric key over `f`, counted in units of `scale` (the size_kb keys
/// store bytes).
template <typename T>
KeyRow number(Field<T> f, Range<T> r, T scale = 1) {
  return {[f, r, scale](SystemConfig& c, std::string_view v) {
            T parsed{};
            std::string e = parse_scalar(v, parsed, r.lo, r.hi, r.lo_open);
            if (e.empty()) f(c) = parsed * scale;
            return e;
          },
          [f, scale](const SystemConfig& c) {
            return format_value(f(const_cast<SystemConfig&>(c)) / scale);
          }};
}

KeyRow boolean(Field<bool> f) {
  return {[f](SystemConfig& c, std::string_view v) -> std::string {
            if (v != "0" && v != "1") return "expected 0 or 1";
            f(c) = v == "1";
            return {};
          },
          [f](const SystemConfig& c) {
            return std::string(f(const_cast<SystemConfig&>(c)) ? "1" : "0");
          }};
}

KeyRow replacement(CacheConfig SystemConfig::* level) {
  return {[level](SystemConfig& c, std::string_view v) -> std::string {
            for (ReplacementPolicy p :
                 {ReplacementPolicy::kLru, ReplacementPolicy::kRandom,
                  ReplacementPolicy::kSrrip}) {
              if (v == to_string(p)) {
                (c.*level).replacement = p;
                return {};
              }
            }
            return "one of: lru, random, srrip";
          },
          [level](const SystemConfig& c) {
            return std::string(to_string((c.*level).replacement));
          }};
}

using KeyTable = std::map<std::string, KeyRow, std::less<>>;

/// Every configuration key. std::map keeps write_config's output sorted.
const KeyTable& keys() {
  static const KeyTable table = [] {
    KeyTable k;
    k["cores"] = number(field(&SystemConfig::cores), {1, 1024});
    k["ghz"] = number(field(&SystemConfig::ghz), {0.0, kMax, true});
    k["mechanism"] = {
        [](SystemConfig& c, std::string_view v) -> std::string {
          if (parse_mechanism(std::string(v), c.mechanism)) return {};
          return "known mechanisms: " +
                 persist::DomainRegistry::instance().known_names();
        },
        [](const SystemConfig& c) {
          // Canonical registry name (already lower-case), e.g. "sp-adr".
          return persist::DomainRegistry::instance().info(c.mechanism).name;
        }};
    k["track_recovery"] = boolean(field(&SystemConfig::track_recovery_state));
    k["check"] = {
        [](SystemConfig& c, std::string_view v) -> std::string {
          if (parse_check_mode(std::string(v), c.check)) return {};
          return "one of: off, collect, fatal";
        },
        [](const SystemConfig& c) { return std::string(to_string(c.check)); }};

    const auto topo = [](auto m) { return field(&SystemConfig::topo, m); };
    k["topo.nodes"] = number(topo(&TopoConfig::nodes), {1, 1024});
    k["topo.hop_ns"] = number(topo(&TopoConfig::hop_ns), {0.0});
    k["topo.link_gbps"] = number(topo(&TopoConfig::link_gbps), {0.0, kMax, true});
    k["topo.msg_bytes"] = number(topo(&TopoConfig::msg_bytes), {1});

    k["skip.enabled"] = boolean(field(&SystemConfig::skip, &SkipConfig::enabled));
    k["skip.verify"] = boolean(field(&SystemConfig::skip, &SkipConfig::verify));

    for (const auto& [prefix, level] :
         {std::pair<std::string, CacheConfig SystemConfig::*>{
              "l1", &SystemConfig::l1},
          {"l2", &SystemConfig::l2},
          {"llc", &SystemConfig::llc}}) {
      const auto cache = [level = level](auto m) { return field(level, m); };
      k[prefix + ".size_kb"] = number<std::uint64_t>(
          cache(&CacheConfig::size_bytes), {1, 1ULL << 40}, 1024);
      k[prefix + ".ways"] = number(cache(&CacheConfig::ways), {1});
      k[prefix + ".latency"] = number(cache(&CacheConfig::latency_cycles), {});
      k[prefix + ".mshrs"] = number(cache(&CacheConfig::mshrs), {1});
      k[prefix + ".replacement"] = replacement(level);
    }

    const auto core = [](auto m) { return field(&SystemConfig::core, m); };
    k["core.issue_width"] = number(core(&CoreConfig::issue_width), {1});
    k["core.rob"] = number(core(&CoreConfig::rob_entries), {1});
    k["core.store_buffer"] = number(core(&CoreConfig::store_buffer_entries), {1});

    const auto ntc = [](auto m) { return field(&SystemConfig::ntc, m); };
    k["ntc.size_bytes"] = number(ntc(&TxCacheConfig::size_bytes), {});
    k["ntc.latency"] = number(ntc(&TxCacheConfig::latency_cycles), {});
    k["ntc.threshold"] =
        number(ntc(&TxCacheConfig::overflow_threshold), {0.0, 1.0, true});
    k["ntc.drain_per_cycle"] = number(ntc(&TxCacheConfig::drain_per_cycle), {1});

    const auto serve = [](auto m) { return field(&SystemConfig::service, m); };
    k["serve.enabled"] = boolean(serve(&ServiceConfig::enabled));
    k["serve.open_loop"] = boolean(serve(&ServiceConfig::open_loop));
    k["serve.poisson"] = boolean(serve(&ServiceConfig::poisson));
    k["serve.rate"] = number(serve(&ServiceConfig::rate), {0.0, kMax, true});
    k["serve.requests"] = number(serve(&ServiceConfig::requests), {});

    const auto crash = [](auto m) { return field(&SystemConfig::crash, m); };
    k["crash.points"] = number(crash(&CrashCampaignConfig::points), {});
    k["crash.seeds"] = number(crash(&CrashCampaignConfig::seeds), {});
    k["crash.ops"] = number(crash(&CrashCampaignConfig::ops), {});
    k["crash.setup"] = number(crash(&CrashCampaignConfig::setup), {});
    k["crash.minimize"] = boolean(crash(&CrashCampaignConfig::minimize));

    for (const auto& [prefix, mc] :
         {std::pair<std::string, MemCtrlConfig SystemConfig::*>{
              "nvm", &SystemConfig::nvm},
          {"dram", &SystemConfig::dram}}) {
      const auto mem = [mc = mc](auto m) { return field(mc, m); };
      k[prefix + ".read_queue"] = number(mem(&MemCtrlConfig::read_queue), {1});
      k[prefix + ".write_queue"] = number(mem(&MemCtrlConfig::write_queue), {1});
      k[prefix + ".drain_high"] =
          number(mem(&MemCtrlConfig::drain_high_watermark), {0.0, 1.0});
      k[prefix + ".drain_low"] =
          number(mem(&MemCtrlConfig::drain_low_watermark), {0.0, 1.0});
      k[prefix + ".ranks"] = number(mem(&MemCtrlConfig::ranks), {1});
      k[prefix + ".banks"] = number(mem(&MemCtrlConfig::banks_per_rank), {1});
      k[prefix + ".channels"] = number(mem(&MemCtrlConfig::channels), {1});
      k[prefix + ".bus_latency"] = number(mem(&MemCtrlConfig::bus_latency), {});
      k[prefix + ".refresh_interval"] =
          number(mem(&MemCtrlConfig::refresh_interval), {});
      k[prefix + ".refresh_cycles"] =
          number(mem(&MemCtrlConfig::refresh_cycles), {});
      k[prefix + ".tfaw"] = number(mem(&MemCtrlConfig::tfaw), {});
      k[prefix + ".twtr"] = number(mem(&MemCtrlConfig::twtr), {});
    }
    return k;
  }();
  return table;
}

/// Assign one key; the error names the key and the offending value.
std::string assign(SystemConfig& cfg, std::string_view key,
                   std::string_view value) {
  const auto it = keys().find(key);
  if (it == keys().end()) {
    return "unknown configuration key \"" + std::string(key) + "\"";
  }
  const std::string e = it->second.set(cfg, value);
  if (e.empty()) return {};
  return "invalid value \"" + std::string(value) + "\" for key \"" +
         std::string(key) + "\"; " + e;
}

}  // namespace

bool parse_mechanism(const std::string& name, Mechanism& out) {
  return persist::DomainRegistry::instance().parse(name, out);
}

bool parse_check_mode(const std::string& value, CheckMode& out) {
  if (value == "off" || value == "0") {
    out = CheckMode::kOff;
  } else if (value == "collect" || value == "1") {
    out = CheckMode::kCollect;
  } else if (value == "fatal") {
    out = CheckMode::kFatal;
  } else {
    return false;
  }
  return true;
}

CheckMode check_mode_from_env(CheckMode configured) {
  const char* env = std::getenv("NTCSIM_CHECK");
  if (env == nullptr) return configured;
  CheckMode mode = configured;
  parse_check_mode(env, mode);
  return mode;
}

bool parse_workload(const std::string& name, WorkloadKind& out) {
  for (WorkloadKind k :
       {WorkloadKind::kGraph, WorkloadKind::kRbtree, WorkloadKind::kSps,
        WorkloadKind::kBtree, WorkloadKind::kHashtable,
        WorkloadKind::kQueue, WorkloadKind::kSkiplist}) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

ConfigParseResult apply_config_line(const std::string& raw,
                                    SystemConfig& cfg) {
  const std::string line = trim(std::string_view(raw).substr(0, raw.find('#')));
  if (line.empty()) return {};
  const std::size_t eq = line.find('=');
  if (eq == std::string::npos) {
    return {false, "expected `key = value`: \"" + line + "\""};
  }
  std::string e = assign(cfg, trim(std::string_view(line).substr(0, eq)),
                         trim(std::string_view(line).substr(eq + 1)));
  return {e.empty(), std::move(e)};
}

ConfigParseResult apply_config(std::istream& is, SystemConfig& cfg) {
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    ConfigParseResult r = apply_config_line(line, cfg);
    if (!r.ok) {
      r.error = "line " + std::to_string(lineno) + ": " + r.error;
      return r;
    }
  }
  return {};
}

void write_config(std::ostream& os, const SystemConfig& cfg) {
  for (const auto& [key, row] : keys()) {
    os << key << " = " << row.get(cfg) << '\n';
  }
}

// ---------------------------------------------------------------------------
// Command-line flags: one row per flag. Flags that set machine state are
// sugar for config keys; the rest fill CliOptions.

namespace {

/// Applies one flag; `value` is null for a switch or an omitted optional
/// value. The error is prefixed with the flag's name by the caller.
using ApplyFn = std::function<std::string(CliOptions&, const char* value)>;

/// `arg` is the value as --help spells it: "=N" (required; `--flag N`
/// works too), "[=MODE]" (optional), " KEY=VALUE" (required) or "" (a
/// switch). `apply` is null for driver switches (--csv, --matrix, ...),
/// whose presence in CliOptions::given is the setting.
struct FlagRow {
  const char* name;
  const char* arg;
  const char* help;  ///< Word-wrapped by cli_help().
  ApplyFn apply;
  bool bench = false;  ///< Also accepted by parse_bench_args.
};

/// Sugar for config keys: space-separated `key=value` assignments, `{}`
/// standing for the flag's value.
ApplyFn sets(std::string assignments) {
  return [assignments](CliOptions& o, const char* v) -> std::string {
    std::istringstream is(assignments);
    for (std::string a; is >> a;) {
      if (const std::size_t at = a.find("{}"); at != std::string::npos) {
        a.replace(at, 2, v);
      }
      const std::size_t eq = a.find('=');
      std::string e = assign(o.cfg, a.substr(0, eq), a.substr(eq + 1));
      if (!e.empty()) return e;
    }
    return {};
  };
}

/// A numeric driver option (bench options included: CliOptions is one).
template <typename C, typename T>
ApplyFn value(T C::* m, Range<T> r = {}) {
  return [m, r](CliOptions& o, const char* v) -> std::string {
    const std::string e =
        parse_scalar(std::string_view(v), o.*m, r.lo, r.hi, r.lo_open);
    return e.empty() ? e : "invalid value \"" + std::string(v) + "\"; " + e;
  };
}

ApplyFn text(std::string CliOptions::* m) {
  return [m](CliOptions& o, const char* v) {
    o.*m = v;
    return std::string();
  };
}

const std::vector<FlagRow>& flags() {
  static const std::vector<FlagRow> table = {
      {"--workload", "=NAME", "graph | rbtree | sps | btree | hashtable",
       [](CliOptions& o, const char* v) {
         return parse_workload(v, o.workload)
                    ? std::string()
                    : "unknown workload \"" + std::string(v) + "\"";
       }},
      {"--mechanism", "=NAME",
       "a registered persistence mechanism (default tc; see "
       "--list-mechanisms)",
       sets("mechanism={}")},
      {"--list-mechanisms", "",
       "list every registered persistence mechanism and exit", nullptr},
      // Loaded by parse_cli before any other flag, wherever it appears.
      {"--preset", "=NAME", "paper | experiment | tiny (default experiment)",
       text(&CliOptions::preset)},
      {"--config", "=FILE", "apply key=value overrides from FILE",
       [](CliOptions& o, const char* v) -> std::string {
         std::ifstream f(v);
         if (!f) return "cannot open \"" + std::string(v) + "\"";
         const ConfigParseResult r = apply_config(f, o.cfg);
         return r.ok ? std::string() : std::string(v) + ": " + r.error;
       }},
      {"--set", " KEY=VALUE", "apply one override (repeatable)",
       [](CliOptions& o, const char* v) {
         return apply_config_line(v, o.cfg).error;
       }},
      {"--ops", "=N", "measured operations per core", value(&CliOptions::ops)},
      {"--setup", "=N", "structure size built before measuring",
       value(&CliOptions::setup)},
      {"--lookup", "=PCT", "percentage of measured ops that are searches",
       value(&CliOptions::lookup, {0, 100})},
      {"--seed", "=N", "workload RNG seed", value(&CliOptions::seed)},
      {"--crash-at", "=CYCLE", "crash in the measured phase, recover, check",
       value(&CliOptions::crash_at)},
      {"--crash-sweep", "",
       "run the fault-injection campaign: hazard-guided crash points per "
       "(mechanism x workload x seed) cell, each recovered and checked "
       "against the atomicity oracle; unexpected violations exit 2. "
       "--mechanism/--workload/--seed narrow the cell set; "
       "--jobs/--scale/--ops/--setup apply",
       nullptr},
      {"--crash-points", "=N",
       "crash points kept per cell (0 = every hazard; implies --crash-sweep)",
       sets("crash.points={}")},
      {"--minimize", "",
       "shrink failing cells to the shortest reproducing transaction prefix",
       sets("crash.minimize=1")},
      {"--crash-report", "=FILE",
       "campaign JSON report destination (default CRASH_sweep.json; - = "
       "stdout)",
       text(&CliOptions::crash_report)},
      {"--check", "[=MODE]",
       "online persistence-order checker: collect (default), fatal, or off; "
       "violations exit 3. NTCSIM_CHECK is the env equivalent",
       [](CliOptions& o, const char* v) {
         return assign(o.cfg, "check", v != nullptr ? v : "collect");
       }},
      {"--serve", "",
       "service mode: measured transactions become requests arriving at "
       "--rate, with per-request tail-latency (p50/p95/p99/p99.9) accounting",
       sets("serve.enabled=1")},
      {"--rate", "=R",
       "offered load, requests per kilocycle per core (implies --serve; "
       "default 1)",
       sets("serve.rate={} serve.enabled=1")},
      {"--requests", "=N", "measured requests per core (implies --serve)",
       sets("serve.requests={} serve.enabled=1")},
      {"--closed-loop", "",
       "issue each request as soon as the previous one retires instead of "
       "open-loop timed arrivals",
       sets("serve.open_loop=0")},
      {"--uniform", "",
       "evenly spaced arrivals instead of the default Poisson process",
       sets("serve.poisson=0")},
      {"--nodes", "=N",
       "simulate an N-node cluster: each node is a full machine holding one "
       "data shard; open-loop service requests are routed to their home "
       "shard over the modeled interconnect (topo.* config keys set hop "
       "latency and link bandwidth). Default 1 — the paper's single-socket "
       "machine",
       sets("topo.nodes={}")},
      {"--no-skip", "",
       "execute every cycle instead of jumping the clock over provably idle "
       "windows. Outputs are bit-identical either way; this is the escape "
       "hatch for debugging the skip machinery itself (skip.enabled / "
       "skip.verify config keys)",
       sets("skip.enabled=0")},
      {"--matrix", "",
       "run the full workload x mechanism evaluation matrix instead of a "
       "single cell", nullptr},
      {"--jobs", "=N",
       "the process's thread budget: matrix and crash-sweep cells and a "
       "cluster's node rounds run on at most N threads at once (default: "
       "all cores; 1 = serial, no thread started; NTCSIM_JOBS is the env "
       "equivalent)",
       value(&CliOptions::jobs, {0, 1024}), true},
      {"--scale", "=X",
       "scale factor on measured ops for --matrix (NTCSIM_SCALE overrides it)",
       value(&CliOptions::scale, {0.0, kMax, true}), true},
      {"--profile", "[=FILE]",
       "time the simulator's own phases and write a self-perf report "
       "(default BENCH_selfperf.json); simulated metrics are unaffected",
       [](CliOptions& o, const char* v) {
         o.profile = true;
         if (v != nullptr) o.profile_out = v;
         return std::string();
       },
       true},
      {"--csv", "", "machine-readable one-row output", nullptr},
      {"--stats", "", "dump every raw statistic after the run", nullptr},
      {"--dump-config", "", "print the effective configuration and exit", nullptr},
      {"--help", "", "", nullptr},
  };
  return table;
}

struct FlagUse {
  const FlagRow* row;
  const char* value;
  const char* source = nullptr;  ///< Names the input in errors, if not the flag.
};

const FlagRow* find_flag(std::string_view name, bool bench) {
  for (const FlagRow& f : flags()) {
    if (name == f.name && (f.bench || !bench)) return &f;
  }
  return nullptr;
}

/// Match argv against the flag table (bench rows only for a bench, whose
/// positional argument is its scale), then append NTCSIM_SCALE, which
/// overrides any argv scale.
std::string tokenize(int argc, const char* const* argv, bool bench,
                     std::vector<FlagUse>& uses) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a =
        argv[i] == std::string_view("-h") ? "--help" : argv[i];
    if (bench && a.rfind("--", 0) != 0) {
      uses.push_back({find_flag("--scale", true), argv[i]});
      continue;
    }
    const std::size_t eq = a.find('=');
    const FlagRow* row = find_flag(a.substr(0, eq), bench);
    if (row == nullptr) {
      return "unknown argument \"" + std::string(a) + "\" (try --help)";
    }
    const char* value =
        eq == std::string_view::npos ? nullptr : argv[i] + eq + 1;
    const char kind = row->arg[0];
    if (kind == '\0' && value != nullptr) {
      return std::string(row->name) + " takes no value";
    }
    if ((kind == '=' || kind == ' ') && value == nullptr) {
      if (i + 1 >= argc) return std::string(row->name) + " needs a value";
      value = argv[++i];
    }
    uses.push_back({row, value});
  }
  if (const char* env = std::getenv("NTCSIM_SCALE")) {
    uses.push_back({find_flag("--scale", true), env, "NTCSIM_SCALE"});
  }
  return {};
}

std::string apply(CliOptions& o, const FlagUse& use) {
  o.given.insert(use.row->name);
  const std::string e = use.row->apply ? use.row->apply(o, use.value) : "";
  if (e.empty()) return e;
  return std::string(use.source != nullptr ? use.source : use.row->name) +
         ": " + e;
}

}  // namespace

bool CliOptions::has(std::string_view flag) const {
  NTC_ASSERT(find_flag(flag, false) != nullptr, "not a flag in the table");
  return given.count(flag) > 0;
}

workload::WorkloadParams CliOptions::params() const {
  workload::WorkloadParams p = workload::default_params(workload);
  if (has("--ops")) p.ops = ops;
  if (cfg.service.enabled && cfg.service.requests > 0) {
    p.ops = cfg.service.requests;  // --requests wins over --ops
  }
  if (has("--setup")) p.setup_elems = setup;
  if (has("--lookup")) p.lookup_pct = lookup;
  if (has("--seed")) p.seed = seed;
  return p;
}

ConfigParseResult parse_cli(int argc, const char* const* argv,
                            CliOptions& out) {
  std::vector<FlagUse> uses;
  if (std::string e = tokenize(argc, argv, false, uses); !e.empty()) {
    return {false, std::move(e)};
  }
  // The preset comes first wherever it appears; every other flag overlays
  // it, left to right.
  for (const FlagUse& use : uses) {
    if (std::string_view(use.row->name) == "--preset") apply(out, use);
  }
  static const std::map<std::string, SystemConfig (*)()> kPresets = {
      {"paper", &SystemConfig::paper},
      {"experiment", &SystemConfig::experiment},
      {"tiny", &SystemConfig::tiny}};
  const auto preset = kPresets.find(out.preset);
  if (preset == kPresets.end()) {
    return {false, "--preset: unknown preset \"" + out.preset +
                       "\" (paper | experiment | tiny)"};
  }
  out.cfg = preset->second();
  out.cfg.mechanism = Mechanism::kTc;
  for (const FlagUse& use : uses) {
    if (std::string e = apply(out, use); !e.empty()) {
      return {false, std::move(e)};
    }
    if (out.has("--help") || out.has("--list-mechanisms")) return {};
  }
  if (std::string e = out.cfg.validate(); !e.empty()) {
    return {false, "invalid configuration: " + e};
  }
  return {};
}

ConfigParseResult parse_bench_args(int argc, const char* const* argv,
                                   ExperimentOptions& out) {
  CliOptions o;
  std::vector<FlagUse> uses;
  std::string e = tokenize(argc, argv, true, uses);
  for (std::size_t i = 0; e.empty() && i < uses.size(); ++i) {
    e = apply(o, uses[i]);
  }
  if (!e.empty()) return {false, std::move(e)};
  // jobs == 0 ("auto") defers to NTCSIM_JOBS / hardware_concurrency
  // (sim::set_thread_budget), so the flag wins over the environment.
  out = o;
  return {};
}

ExperimentOptions parse_bench_args(int argc, char** argv) {
  ExperimentOptions opts;
  const ConfigParseResult r = parse_bench_args(argc, argv, opts);
  if (!r.ok) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "bench",
                 r.error.c_str());
    std::exit(1);
  }
  set_thread_budget(opts.jobs);
  return opts;
}

std::string cli_help() {
  constexpr std::size_t kColumn = 23, kWidth = 71;
  std::string s =
      "ntcsim — nonvolatile-transaction-cache persistent memory simulator\n\n";
  for (const FlagRow& f : flags()) {
    std::string line = "  " + std::string(f.name) + f.arg;
    std::istringstream words(f.help);
    for (std::string w; words >> w;) {
      if (line.size() >= kColumn && line.size() + 1 + w.size() > kWidth) {
        s += line + '\n';
        line.clear();
      }
      line.resize(std::max(line.size() + 1, kColumn), ' ');
      line += w;
    }
    s += line + '\n';
  }
  return s;
}

}  // namespace ntcsim::sim
