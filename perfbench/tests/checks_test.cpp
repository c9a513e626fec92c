// Feeds each of the benchmark's output checkers a correct history and a
// hand-built violating one, and expects acceptance and rejection.
//
//   cmake --build .bench_build --target perfbench_checks_test
//   .bench_build/perfbench_checks_test
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

using anon::RegOpRecord;
using anon::Value;
using anon::WsOpRecord;
using perfbench::check_consensus;
using perfbench::check_emulation_rounds;
using perfbench::check_full_delivery;
using perfbench::check_register_naive;
using perfbench::check_weak_set_naive;

int failures = 0;

void expect_ok(const std::string& name, const std::string& verdict) {
  if (verdict.empty()) return;
  ++failures;
  std::printf("FAIL %s: rejected a correct output: %s\n", name.c_str(), verdict.c_str());
}

void expect_rejected(const std::string& name, const std::string& verdict) {
  if (!verdict.empty()) {
    std::printf("ok   %s: %s\n", name.c_str(), verdict.c_str());
    return;
  }
  ++failures;
  std::printf("FAIL %s: accepted a violating output\n", name.c_str());
}

WsOpRecord add(std::int64_t v, std::uint64_t start, std::uint64_t end) {
  return {WsOpRecord::Kind::kAdd, Value(v), {}, start, end, 0};
}

WsOpRecord get(std::vector<std::int64_t> vs, std::uint64_t start, std::uint64_t end) {
  WsOpRecord r{WsOpRecord::Kind::kGet, Value(), {}, start, end, 1};
  for (std::int64_t v : vs) r.result.insert(Value(v));
  return r;
}

RegOpRecord write(std::int64_t v, std::uint64_t start, std::uint64_t end) {
  return {RegOpRecord::Kind::kWrite, Value(v), start, end, 0};
}

RegOpRecord read(std::optional<std::int64_t> v, std::uint64_t start, std::uint64_t end) {
  std::optional<Value> val;
  if (v) val = Value(*v);
  return {RegOpRecord::Kind::kRead, val, start, end, 1};
}

void consensus_cases() {
  const std::vector<Value> proposals = {Value(5), Value(7), Value(9)};
  const std::vector<bool> none(3, false);
  expect_ok("consensus/agree", check_consensus({Value(7), Value(7), Value(7)}, proposals, none));
  expect_ok("consensus/crashed-undecided",
            check_consensus({Value(7), std::nullopt, Value(7)}, proposals, {false, true, false}));
  expect_rejected("consensus/disagreement",
                  check_consensus({Value(7), Value(9), Value(7)}, proposals, none));
  expect_rejected("consensus/invalid-value",
                  check_consensus({Value(8), Value(8), Value(8)}, proposals, none));
  expect_rejected("consensus/no-termination",
                  check_consensus({Value(7), std::nullopt, Value(7)}, proposals, none));
  expect_ok("deliveries/full", check_full_delivery(7, 128, 113'792));
  expect_ok("deliveries/full-large", check_full_delivery(7, 100'000, 69'999'300'000));
  expect_rejected("deliveries/short", check_full_delivery(7, 128, 113'791));
}

void weak_set_cases() {
  expect_ok("weak-set/visible", check_weak_set_naive({add(1, 0, 2), get({1}, 3, 4)}));
  expect_ok("weak-set/concurrent-may-miss",
            check_weak_set_naive({add(1, 0, 5), get({}, 3, 4)}));
  expect_ok("weak-set/concurrent-may-see",
            check_weak_set_naive({add(1, 3, 9), get({1}, 2, 4)}));
  expect_rejected("weak-set/missed-completed-add",
                  check_weak_set_naive({add(1, 0, 2), add(2, 0, 2), get({2}, 3, 4)}));
  expect_rejected("weak-set/value-from-thin-air",
                  check_weak_set_naive({add(1, 0, 2), get({1, 3}, 3, 4)}));
  expect_rejected("weak-set/value-before-its-add",
                  check_weak_set_naive({get({1}, 0, 1), add(1, 2, 3)}));
}

void register_cases() {
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  expect_ok("register/initial-bottom", check_register_naive({read(std::nullopt, 0, 1)}));
  expect_ok("register/last-write",
            check_register_naive({write(1, 0, 1), write(2, 2, 3), read(2, 4, 5)}));
  expect_ok("register/concurrent-old",
            check_register_naive({write(1, 0, 1), write(2, 3, 6), read(1, 4, 5)}));
  expect_ok("register/concurrent-new",
            check_register_naive({write(1, 0, 1), write(2, 3, 6), read(2, 4, 5)}));
  expect_ok("register/unfinished-write",
            check_register_naive({write(1, 0, 1), write(2, 3, kNever), read(2, 4, 5)}));
  expect_rejected("register/stale-read",
                  check_register_naive({write(1, 0, 1), write(2, 2, 3), read(1, 4, 5)}));
  expect_rejected("register/bottom-after-write",
                  check_register_naive({write(1, 0, 1), read(std::nullopt, 2, 3)}));
  expect_rejected("register/value-from-the-future",
                  check_register_naive({write(1, 0, 1), read(2, 2, 3), write(2, 4, 5)}));
  expect_rejected("register/never-written",
                  check_register_naive({write(1, 0, 1), read(3, 2, 3)}));
}

void emulation_cases() {
  expect_ok("emulation/reached", check_emulation_rounds({160, 161, 170}, 160));
  expect_rejected("emulation/short", check_emulation_rounds({160, 159, 170}, 160));
}

}  // namespace

int main() {
  consensus_cases();
  weak_set_cases();
  register_cases();
  emulation_cases();
  std::printf("%s (%d failures)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
