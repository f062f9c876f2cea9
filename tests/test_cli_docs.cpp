// CLI/documentation drift guard: the flag set in `ntcsim --help`
// (generated from the flag table by sim::cli_help()) and the CLI reference
// in EXPERIMENTS.md (the region between the cli-flags-begin/end markers)
// must list exactly the same flags. Adding a flag to one without the other
// fails here.
#include "sim/config_io.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace ntcsim::sim {
namespace {

std::set<std::string> extract_flags(const std::string& text) {
  std::set<std::string> flags;
  for (std::size_t i = 0; i + 2 < text.size(); ++i) {
    if (text[i] != '-' || text[i + 1] != '-' ||
        !std::islower(static_cast<unsigned char>(text[i + 2]))) {
      continue;
    }
    if (i > 0 && text[i - 1] == '-') continue;  // inside a longer dash run
    std::size_t end = i + 2;
    while (end < text.size() &&
           (std::islower(static_cast<unsigned char>(text[end])) ||
            std::isdigit(static_cast<unsigned char>(text[end])) ||
            text[end] == '-')) {
      ++end;
    }
    flags.insert(text.substr(i, end - i));
    i = end;
  }
  return flags;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream oss;
  oss << f.rdbuf();
  return oss.str();
}

std::string cli_reference_region() {
  const std::string doc = read_file(NTC_EXPERIMENTS_MD);
  const std::string begin_marker = "<!-- cli-flags-begin -->";
  const std::string end_marker = "<!-- cli-flags-end -->";
  const std::size_t b = doc.find(begin_marker);
  const std::size_t e = doc.find(end_marker);
  EXPECT_NE(b, std::string::npos) << "EXPERIMENTS.md lost its " << begin_marker;
  EXPECT_NE(e, std::string::npos) << "EXPERIMENTS.md lost its " << end_marker;
  if (b == std::string::npos || e == std::string::npos || e <= b) return "";
  return doc.substr(b, e - b);
}

TEST(CliDocs, EveryDocumentedFlagIsInHelp) {
  const std::set<std::string> help = extract_flags(cli_help());
  for (const std::string& flag : extract_flags(cli_reference_region())) {
    EXPECT_TRUE(help.count(flag) > 0)
        << flag << " is documented in EXPERIMENTS.md but missing from "
        << "`ntcsim --help` (the flag table in src/sim/config_io.cpp)";
  }
}

TEST(CliDocs, EveryHelpFlagIsDocumented) {
  const std::set<std::string> documented = extract_flags(cli_reference_region());
  for (const std::string& flag : extract_flags(cli_help())) {
    EXPECT_TRUE(documented.count(flag) > 0)
        << flag << " is in `ntcsim --help` but missing from the CLI "
        << "reference in EXPERIMENTS.md (between the cli-flags markers)";
  }
}

TEST(CliDocs, HelpMentionsTheEnvEquivalents) {
  const std::string help = cli_help();
  EXPECT_NE(help.find("NTCSIM_JOBS"), std::string::npos);
  EXPECT_NE(help.find("NTCSIM_CHECK"), std::string::npos);
}

}  // namespace
}  // namespace ntcsim::sim
