// The benchmark's own output checks, written from the definitions (the
// paper's consensus properties, the weak-set spec in weakset/weak_set.hpp,
// register regularity) and computed apart from the library's checkers.
// They are deliberately naive: quadratic scans with no indexing, so they
// share no shortcut with the code they check.
//
// Every check returns an empty string when the output is correct and a
// one-line description of the first violation otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/value.hpp"
#include "weakset/weak_set.hpp"
#include "weakset/ws_register.hpp"

namespace perfbench {

// Consensus over one instance: `decisions[p]` is process p's decision (if
// any), `in_crash_plan[p]` marks the processes the plan crashes, and
// `proposals` are the values the benchmark generated.  Checks agreement among
// all deciders, validity against the proposals and termination of every
// process outside the crash plan.
std::string check_consensus(const std::vector<std::optional<anon::Value>>& decisions,
                            const std::vector<anon::Value>& proposals,
                            const std::vector<bool>& in_crash_plan);

// On a failure-free, GST-0, fault-free lock-step run every process
// receives every other process's message once per round.
std::string check_full_delivery(std::uint64_t rounds, std::uint64_t n,
                                std::uint64_t deliveries);

// Weak-set spec: a get returns every value whose add completed before the
// get started, and no value none of whose adds started before the get
// ended.
std::string check_weak_set_naive(const std::vector<anon::WsOpRecord>& ops);

// Regular register: a read returns ⊥ only if no write completed before it
// started; otherwise it returns the value of a write that started before
// the read ended and is not superseded, where a write W is superseded when
// some other write started after W ended and completed before the read
// started.  On a single-writer history this is exactly "the last completed
// write or a concurrent one".
std::string check_register_naive(const std::vector<anon::RegOpRecord>& ops);

// Emulation: every process completed at least `target` emulated rounds.
std::string check_emulation_rounds(const std::vector<std::uint64_t>& rounds_completed,
                                   std::uint64_t target);

}  // namespace perfbench
