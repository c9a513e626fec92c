// Convenience harness: build a consensus instance (automatons + environment
// + crash plan + lock-step net), run it, and report the paper's three
// consensus properties plus performance metrics.  Used by tests, benches
// and examples; for bespoke instrumentation use LockstepNet directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/value.hpp"
#include "core/sweep.hpp"
#include "env/faults.hpp"
#include "env/generate.hpp"
#include "env/validate.hpp"
#include "net/lockstep.hpp"

namespace anon {

enum class ConsensusAlgo { kEs, kEss };

const char* to_string(ConsensusAlgo a);

// Execution backend for a consensus instance.
//   kExpanded — LockstepNet: one automaton per process (the reference).
//   kCohort   — CohortNet (net/cohort.hpp): one representative per
//               state-equivalence class, grouped by initial value.  Exact
//               same decisions/rounds/metrics (property-tested), no trace:
//               validate_env must be false and trace_out null (checked).
enum class ConsensusBackend { kExpanded, kCohort };

const char* to_string(ConsensusBackend b);

struct ConsensusConfig {
  EnvParams env;                // env.n = number of processes
  CrashPlan crashes;
  std::vector<Value> initial;   // one per process; must have size env.n
  LockstepOptions net;
  bool validate_env = true;     // run the trace validator afterwards
  ConsensusBackend backend = ConsensusBackend::kExpanded;
  // Schedule override: when set, this model replaces the EnvDelayModel the
  // runner would build from `env` (the scenario layer's adversarial
  // schedules — bivalent two-camp, hostile-MS — enter here).  Expanded
  // backend only; must outlive the run.
  const DelayModel* delays = nullptr;
  // Fault plan parameters (env/faults.hpp), by value: configs are copied
  // into sweep grids, so the runner compiles the FaultPlan per run on its
  // own frame.  Inactive (the default) costs nothing.
  FaultParams faults;
  // Watchdog: stop a run that makes no decision progress for this many
  // consecutive rounds and report it `undecided` (graceful degradation for
  // fault-heavy cells that would otherwise spin to max_rounds).  0 = off.
  Round watchdog_rounds = 0;
};

struct ConsensusReport {
  // Consensus properties over the observed run.
  bool all_correct_decided = false;
  bool agreement = true;   // no two decided processes decided differently
  bool validity = true;    // every decided value was proposed
  std::optional<Value> value;       // the decided value (if any)
  Round first_decision_round = kNoRound;
  Round last_decision_round = kNoRound;  // over correct processes
  // Run metrics.
  Round rounds_executed = 0;
  bool hit_round_limit = false;
  // The watchdog stopped the run with correct processes still undecided
  // (set only by the watchdog — a plain max_rounds exhaustion keeps
  // reporting through hit_round_limit as before).
  bool undecided = false;
  std::uint64_t deliveries = 0;
  std::uint64_t sends = 0;
  std::uint64_t bytes_sent = 0;
  // Fault-plan metrics (0 on the fault-free network).
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_dups = 0;
  std::uint64_t inbox_overflow_dropped = 0;
  // Environment certification of the recorded trace.
  EnvCheckResult env_check;
  // Cohort backend only: how far the run collapsed (0/0 for expanded).
  std::size_t cohorts_max = 0;
  std::size_t cohorts_final = 0;

  std::string to_string() const;
};

// Assembles the consensus-property report of a finished run on any engine
// exposing the LockstepNet observation surface (shared by run_consensus and
// the scenario layer's probe paths, which drive nets the ConsensusConfig
// surface cannot describe).
template <typename Net>
ConsensusReport summarize_consensus_run(Net& net,
                                        const std::vector<Value>& initial,
                                        const CrashPlan& crashes,
                                        RunResult run, bool validate_env) {
  constexpr bool kHasTrace = requires { net.trace(); };
  ConsensusReport rep;
  rep.rounds_executed = run.rounds;
  rep.hit_round_limit = !run.stopped;
  rep.all_correct_decided = net.all_correct_decided();
  rep.deliveries = net.deliveries();
  rep.sends = net.sends();
  rep.bytes_sent = net.bytes_sent();

  // Validity is checked once per distinct decided value (one, under
  // agreement) by a scan of the proposals.
  std::vector<Value> checked;
  for (ProcId p = 0; p < net.n(); ++p) {
    auto d = net.decision(p);
    if (!d.has_value()) continue;
    if (rep.value.has_value() && !(*rep.value == *d)) rep.agreement = false;
    if (!rep.value.has_value()) rep.value = d;
    if (std::find(checked.begin(), checked.end(), *d) == checked.end()) {
      checked.push_back(*d);
      if (std::find(initial.begin(), initial.end(), *d) == initial.end())
        rep.validity = false;
    }
    const Round r = net.decision_round(p);
    if (rep.first_decision_round == kNoRound || r < rep.first_decision_round)
      rep.first_decision_round = r;
    if (net.is_correct(p))
      rep.last_decision_round = std::max(rep.last_decision_round, r);
  }
  if constexpr (kHasTrace) {
    if (validate_env)
      rep.env_check =
          check_environment(net.trace(), net.n(), crashes.correct(net.n()));
  } else {
    rep.cohorts_max = net.stats().max_cohorts;
    rep.cohorts_final = net.stats().cohorts;
  }
  if constexpr (requires { net.fault_drops(); }) {
    rep.fault_drops = net.fault_drops();
    rep.fault_dups = net.fault_dups();
    rep.inbox_overflow_dropped = net.inbox_overflow_dropped();
  }
  return rep;
}

// Drives a net until all correct processes decide, with an optional
// no-progress watchdog: if no process reaches a new decision for
// `watchdog_rounds` consecutive engine rounds, the run stops and
// `*undecided` is set.  watchdog_rounds == 0 is the plain driver.
template <typename Net>
RunResult run_decided_with_watchdog(Net& net, Round watchdog_rounds,
                                    bool* undecided) {
  if (watchdog_rounds == 0) return net.run_until_all_correct_decided();
  std::size_t decided_count = 0;
  Round last_progress = net.round();
  bool fired = false;
  const RunResult run = net.run([&](const Net& n) {
    if (n.all_correct_decided()) return true;
    std::size_t count = 0;
    for (ProcId p = 0; p < n.n(); ++p)
      if (n.decision(p).has_value()) ++count;
    if (count > decided_count) {
      decided_count = count;
      last_progress = n.round();
    }
    if (n.round() - last_progress >= watchdog_rounds) {
      fired = true;
      return true;
    }
    return false;
  });
  if (fired && undecided != nullptr) *undecided = true;
  return run;
}

// `trace_out`, when given, receives the full execution trace of the run
// (used by the determinism regression tests; traces can be voluminous).
ConsensusReport run_consensus(ConsensusAlgo algo, const ConsensusConfig& cfg,
                              Trace* trace_out = nullptr);

// Runs one consensus instance per config, sharded across worker threads
// (core/sweep.hpp).  Each instance builds its own net/arena/RNGs, so cells
// are independent; the result vector is index-aligned with `configs` and
// identical for any thread count.
std::vector<ConsensusReport> run_consensus_sweep(
    ConsensusAlgo algo, const std::vector<ConsensusConfig>& configs,
    SweepOptions opt = {});

// Helpers for building workloads.
std::vector<Value> distinct_values(std::size_t n);          // 100, 101, …
std::vector<Value> identical_values(std::size_t n, std::int64_t v);
std::vector<Value> random_values(std::size_t n, std::uint64_t seed,
                                 std::int64_t lo, std::int64_t hi);

// A crash plan hitting `f` processes at hash-chosen rounds in [1, horizon].
CrashPlan random_crashes(std::size_t n, std::size_t f, Round horizon,
                         std::uint64_t seed);

}  // namespace anon
