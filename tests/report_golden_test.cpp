// Report goldens: the `--no-timing` report of every `*-fast` preset, plus
// quickstart, e14-hostile and e14-survival, on each backend its family
// serves, must match tests/golden/reports/ byte for byte at 1 and at 4
// engine threads.  Reports are the engines' observable output, so this is
// the byte-identity gate for engine refactors: a change that moves any
// report field fails here, and a change that means to must re-record the
// goldens (run this test with ANON_UPDATE_REPORT_GOLDENS=1, then review
// the diff).  The test spawns the real anonsim binary built next to it and
// skips when it has not been built yet.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace {

struct GoldenRun {
  const char* preset;
  // nullptr: the family serves one backend and rejects --backend and
  // --engine-threads, so the preset runs once with neither flag.
  const char* backend;
};

constexpr GoldenRun kRuns[] = {
    // consensus
    {"e1-fast", "expanded"},      {"e1-fast", "cohort"},
    {"e2-fast", "expanded"},      {"e2-fast", "cohort"},
    {"e8-fast", "expanded"},      {"e10-fast", "expanded"},
    {"e12-fast", "expanded"},     {"e12-fast", "cohort"},
    {"e13-fast", "expanded"},     {"e13-fast", "cohort"},
    {"e14-fast", "expanded"},     {"e14-fast", "cohort"},
    {"e14-hostile", "expanded"},  {"e14-hostile", "cohort"},
    {"e14-survival", "expanded"}, {"e14-survival", "cohort"},
    {"quickstart", "expanded"},   {"quickstart", "cohort"},
    // weakset
    {"e4-fast", "expanded"},          {"e4-fast", "cohort"},
    {"e6-register-fast", "expanded"}, {"e6-register-fast", "cohort"},
    {"e16-ws-fast", "expanded"},      {"e16-ws-fast", "cohort"},
    // emulation
    {"e5-fast", "expanded"},       {"e5-fast", "cohort"},
    {"e16-emul-fast", "expanded"}, {"e16-emul-fast", "cohort"},
    // omega, abd, weakset-shm
    {"e9-omega-fast", nullptr}, {"e6-abd-fast", nullptr}, {"e7-fast", nullptr},
};

struct CmdResult {
  int rc = -1;
  std::string output;
};

CmdResult run_cmd(const std::string& cmd) {
  CmdResult res;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return res;
  std::array<char, 4096> buf;
  std::size_t got;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    res.output.append(buf.data(), got);
  const int status = pclose(pipe);
  res.rc = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return res;
}

const std::filesystem::path kGoldenDir =
    std::filesystem::path(ANON_REPO_DIR) / "tests" / "golden" / "reports";

std::string golden_name(const GoldenRun& g) {
  const std::string backend = g.backend ? std::string(".") + g.backend : "";
  return g.preset + backend + ".json";
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ReportGolden, EveryReportMatchesItsGoldenAtOneAndFourThreads) {
  if (!std::ifstream("./anonsim").good())
    GTEST_SKIP() << "anonsim not built in this tree";
  const bool update = std::getenv("ANON_UPDATE_REPORT_GOLDENS") != nullptr;
  for (const GoldenRun& g : kRuns) {
    const std::filesystem::path golden = kGoldenDir / golden_name(g);
    std::string base = std::string("./anonsim run --preset ") + g.preset +
                       " --quiet --no-timing";
    if (g.backend == nullptr) {
      const CmdResult r = run_cmd(base);
      ASSERT_EQ(r.rc, 0) << base;
      if (update) std::ofstream(golden, std::ios::binary) << r.output;
      EXPECT_EQ(read_file(golden), r.output) << base;
      continue;
    }
    base += std::string(" --backend ") + g.backend;
    for (const char* threads : {"1", "4"}) {
      const std::string cmd = base + " --engine-threads " + threads;
      const CmdResult r = run_cmd(cmd);
      ASSERT_EQ(r.rc, 0) << cmd;
      if (update && threads[0] == '1')
        std::ofstream(golden, std::ios::binary) << r.output;
      EXPECT_EQ(read_file(golden), r.output) << cmd;
    }
  }
}

TEST(ReportGolden, EveryGoldenFileIsChecked) {
  std::set<std::string> expected;
  for (const GoldenRun& g : kRuns) expected.insert(golden_name(g));
  std::set<std::string> present;
  for (const auto& entry : std::filesystem::directory_iterator(kGoldenDir))
    present.insert(entry.path().filename().string());
  EXPECT_EQ(expected, present);
}

}  // namespace
