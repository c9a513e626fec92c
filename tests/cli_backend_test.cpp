// The anonsim CLI's backend surface: `describe` states each preset's
// backend support, and `run --backend cohort` flips the trace switches and
// produces the expanded backend's reports for the consensus, weakset and
// emulation families.  These tests spawn the real binary (built next to
// the test in the build tree, so every size trait and template copy is
// linked exactly as in production) and skip when it has not been built
// yet.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "scenario/json.hpp"

namespace {

struct CmdResult {
  int rc = -1;
  std::string output;
};

// Runs `cmd` under sh, capturing the requested stream(s).
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

bool have_anonsim() { return std::ifstream("./anonsim").good(); }

// `v` with every object member named in `drop` removed, at any depth.
anon::JsonValue without_keys(const anon::JsonValue& v,
                             const std::set<std::string>& drop) {
  if (v.is_array()) {
    anon::JsonValue out = anon::JsonValue::array();
    for (const anon::JsonValue& item : v.items())
      out.push(without_keys(item, drop));
    return out;
  }
  if (!v.is_object()) return v;
  anon::JsonValue out = anon::JsonValue::object();
  for (const auto& [key, member] : v.entries())
    if (drop.count(key) == 0) out.set(key, without_keys(member, drop));
  return out;
}

#define REQUIRE_ANONSIM() \
  if (!have_anonsim()) GTEST_SKIP() << "anonsim not built in this tree"

TEST(CliBackend, DescribeStatesBackendSupportPerFamily) {
  REQUIRE_ANONSIM();
  // The note rides on stderr; stdout stays the canonical golden JSON.
  const auto weakset =
      run_cmd("./anonsim describe e4-fast 2>&1 1>/dev/null");
  ASSERT_EQ(weakset.rc, 0);
  EXPECT_NE(weakset.output.find("backends: expanded, cohort"),
            std::string::npos)
      << weakset.output;

  const auto emulation =
      run_cmd("./anonsim describe e5-fast 2>&1 1>/dev/null");
  ASSERT_EQ(emulation.rc, 0);
  EXPECT_NE(emulation.output.find("cohort"), std::string::npos)
      << emulation.output;
  EXPECT_NE(emulation.output.find("interned"), std::string::npos)
      << emulation.output;

  const auto shm = run_cmd("./anonsim describe e7-fast 2>&1 1>/dev/null");
  ASSERT_EQ(shm.rc, 0);
  EXPECT_NE(shm.output.find("expanded only"), std::string::npos)
      << shm.output;

  // The stdout contract is untouched: no note leaks into the JSON.
  const auto json = run_cmd("./anonsim describe e4-fast 2>/dev/null");
  ASSERT_EQ(json.rc, 0);
  EXPECT_EQ(json.output.find("backends:"), std::string::npos);
}

TEST(CliBackend, WeaksetCohortRunIsByteIdentical) {
  REQUIRE_ANONSIM();
  const auto expanded =
      run_cmd("./anonsim run --preset e4-fast --quiet --no-timing");
  const auto cohort = run_cmd(
      "./anonsim run --preset e4-fast --backend cohort --quiet --no-timing");
  ASSERT_EQ(expanded.rc, 0);
  ASSERT_EQ(cohort.rc, 0);
  EXPECT_EQ(expanded.output, cohort.output);
  EXPECT_NE(cohort.output.find("\"spec_ok\": true"), std::string::npos);
}

TEST(CliBackend, EmulationCohortRunMatchesModuloCertification) {
  REQUIRE_ANONSIM();
  // --backend cohort force-flips certify, so ms_certified goes false;
  // every other field must match the expanded run byte-for-byte.
  const auto expanded =
      run_cmd("./anonsim run --preset e5-fast --quiet --no-timing");
  const auto cohort = run_cmd(
      "./anonsim run --preset e5-fast --backend cohort --quiet --no-timing");
  ASSERT_EQ(expanded.rc, 0);
  ASSERT_EQ(cohort.rc, 0);
  std::string normalized = expanded.output;
  for (std::size_t pos;
       (pos = normalized.find("\"ms_certified\": true")) != std::string::npos;)
    normalized.replace(pos, 20, "\"ms_certified\": false");
  EXPECT_EQ(normalized, cohort.output);
}

TEST(CliBackend, ConsensusCohortRunMatchesExpandedRun) {
  REQUIRE_ANONSIM();
  // The cohort backend reports its class counts and records no trace, so
  // it has no `env` certificate; every other field — `bytes` included —
  // must equal the expanded run's.
  const std::set<std::string> cohort_only = {"cohorts_max", "cohorts_final",
                                             "env"};
  for (const char* preset : {"e1-fast", "e14-fast", "quickstart"}) {
    const std::string run = std::string("./anonsim run --preset ") + preset +
                            " --quiet --no-timing";
    const auto expanded = run_cmd(run + " --backend expanded");
    const auto cohort = run_cmd(run + " --backend cohort");
    ASSERT_EQ(expanded.rc, 0) << preset;
    ASSERT_EQ(cohort.rc, 0) << preset;
    const auto e = anon::JsonValue::parse(expanded.output);
    const auto c = anon::JsonValue::parse(cohort.output);
    ASSERT_TRUE(e.value.has_value()) << preset << ": " << e.error;
    ASSERT_TRUE(c.value.has_value()) << preset << ": " << c.error;
    const anon::JsonValue want = without_keys(*e.value, cohort_only);
    const anon::JsonValue got = without_keys(*c.value, cohort_only);
    EXPECT_EQ(want, got) << preset << "\nexpanded:\n"
                         << want.dump() << "\ncohort:\n"
                         << got.dump();
  }
}

TEST(CliBackend, EngineThreadsComposeWithTheCohortBackend) {
  REQUIRE_ANONSIM();
  const auto one = run_cmd(
      "./anonsim run --preset e4-fast --backend cohort --engine-threads 1 "
      "--quiet --no-timing");
  const auto four = run_cmd(
      "./anonsim run --preset e4-fast --backend cohort --engine-threads 4 "
      "--quiet --no-timing");
  ASSERT_EQ(one.rc, 0);
  ASSERT_EQ(four.rc, 0);
  EXPECT_EQ(one.output, four.output);
}

TEST(CliBackend, BackendRejectsTraceFreeFamilies) {
  REQUIRE_ANONSIM();
  const auto res = run_cmd(
      "./anonsim run --preset e7-fast --backend cohort --quiet 2>&1");
  EXPECT_EQ(res.rc, 2);
  EXPECT_NE(res.output.find("--backend"), std::string::npos) << res.output;
}

}  // namespace
