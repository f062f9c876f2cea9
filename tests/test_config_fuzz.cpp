// Deterministic fuzz of the configuration-key parser: every registered key
// crossed with mutated values (empty, signs, trailing garbage, hex
// prefixes, huge numbers, nan/inf, stray whitespace). apply_config_line
// must never abort; every accepted machine must either pass
// SystemConfig::validate() or fail it with a message; and every accepted,
// valid machine must round-trip byte-identically through write_config ->
// apply_config -> write_config.
#include "sim/config_io.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace ntcsim::sim {
namespace {

std::string dump(const SystemConfig& cfg) {
  std::ostringstream os;
  write_config(os, cfg);
  return os.str();
}

/// Registered keys and their values in `cfg`, read back from the dump.
std::vector<std::pair<std::string, std::string>> key_values(
    const SystemConfig& cfg) {
  std::vector<std::pair<std::string, std::string>> kv;
  std::istringstream is(dump(cfg));
  for (std::string line; std::getline(is, line);) {
    const std::size_t eq = line.find(" = ");
    kv.emplace_back(line.substr(0, eq), line.substr(eq + 3));
  }
  return kv;
}

std::string mutate(Rng& rng, const std::string& base) {
  static const char* const kWhole[] = {
      "",     "0",      "1",    "2",     "3",       "7",     "16",
      "0.5",  "0.9",    "1.5",  "-1",    "-0",      "+1",    "1e3",
      "1e-3", "0x10",   "0x",   "nan",   "inf",     "-inf",  "NaN",
      "1e400", "99999999999999999999999", "18446744073709551615",
      "4294967295", "4294967296", "lru", "srrip", "tc", "kiln", "collect",
      "fatal", "  ", "\t", "abc", "1 2", "1,5", ".", "e5"};
  static const char* const kPrefix[] = {"-", "+", " ", "\t", "0x", "0"};
  static const char* const kSuffix[] = {"x", " ", "\t", "0", "e", ".", "%",
                                         "k", "e999", "1", "9999999999"};
  switch (rng.below(5)) {
    case 0: return base;
    case 1: return kWhole[rng.below(std::size(kWhole))];
    case 2: return kPrefix[rng.below(std::size(kPrefix))] + base;
    case 3: return base + kSuffix[rng.below(std::size(kSuffix))];
    default: return " " + base.substr(0, rng.below(base.size() + 1)) + " ";
  }
}

SystemConfig preset(Rng& rng) {
  switch (rng.below(3)) {
    case 0: return SystemConfig::paper();
    case 1: return SystemConfig::experiment();
    default: return SystemConfig::tiny();
  }
}

TEST(ConfigFuzz, ParseValidateRoundTrip) {
  Rng rng(0x5eed);
  const auto keys = key_values(SystemConfig::paper());
  ASSERT_GT(keys.size(), 50u);
  constexpr int kLines = 12000;
  SystemConfig cfg = SystemConfig::tiny();
  int rejected = 0, invalid = 0, round_trips = 0;
  std::vector<bool> key_accepted(keys.size(), false);
  for (int i = 0; i < kLines; ++i) {
    // Every key gets lines; values start from this key's value in some
    // preset (or another key's, to cross types) before mutation.
    const std::size_t k = static_cast<std::size_t>(i) % keys.size();
    const auto donor = key_values(preset(rng));
    const std::string& base =
        donor[rng.chance(3, 4) ? k : rng.below(donor.size())].second;
    const std::string line = keys[k].first + " = " + mutate(rng, base);
    SCOPED_TRACE(line);

    if (!apply_config_line(line, cfg).ok) {
      ++rejected;
      continue;
    }
    key_accepted[k] = true;
    if (const std::string why = cfg.validate(); !why.empty()) {
      ++invalid;
      cfg = preset(rng);
      continue;
    }
    const std::string first = dump(cfg);
    SystemConfig back = preset(rng);
    std::istringstream is(first);
    const ConfigParseResult r = apply_config(is, back);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(dump(back), first);
    ++round_trips;
  }
  // The fuzz really explored all three outcomes and every key.
  EXPECT_GT(rejected, kLines / 10);
  EXPECT_GT(invalid, 0);
  EXPECT_GT(round_trips, kLines / 10);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    EXPECT_TRUE(key_accepted[k]) << keys[k].first << " never accepted";
  }
}

}  // namespace
}  // namespace ntcsim::sim
