// Sharded intra-run execution: LockstepNet — per-shard interners,
// calendars and outboxes, canonical payload merge at the round barrier,
// uniform-delay group delivery — must be BYTE-IDENTICAL to the naive
// per-link oracle (serial_lockstep_oracle.hpp): same decisions, decision
// rounds, transport metrics, per-round metric series, and trace event
// streams, at its one-shard default and at every other shard and thread
// count, under every schedule shape (uniform fast path, non-uniform
// fallback, crashing senders, adversarial overrides).
#include "net/lockstep.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "algo/es_consensus.hpp"
#include "algo/ess_consensus.hpp"
#include "algo/runner.hpp"
#include "common/rng.hpp"
#include "env/generate.hpp"
#include "net/cohort.hpp"
#include "serial_lockstep_oracle.hpp"
#include "sim/experiment.hpp"

namespace anon {
namespace {

// ---------------------------------------------------------------------------
// Compile-time lifetime guard (the PR-6 satellite fix): both engines alias
// their DelayModel for the whole run, so binding a temporary must be
// rejected at compile time, not discovered by ASan at the first probe.

static_assert(
    !std::is_constructible_v<LockstepNet<EsMessage>,
                             std::vector<std::unique_ptr<Automaton<EsMessage>>>,
                             SynchronousDelays, CrashPlan, LockstepOptions>,
    "LockstepNet must reject a temporary DelayModel");
static_assert(
    std::is_constructible_v<LockstepNet<EsMessage>,
                            std::vector<std::unique_ptr<Automaton<EsMessage>>>,
                            const SynchronousDelays&, CrashPlan,
                            LockstepOptions>,
    "LockstepNet must accept an lvalue DelayModel");
static_assert(
    !std::is_constructible_v<CohortNet<EsMessage>,
                             std::vector<CohortNet<EsMessage>::InitGroup>,
                             SynchronousDelays, CrashPlan, CohortOptions>,
    "CohortNet must reject a temporary DelayModel");
static_assert(
    std::is_constructible_v<CohortNet<EsMessage>,
                            std::vector<CohortNet<EsMessage>::InitGroup>,
                            const SynchronousDelays&, CrashPlan, CohortOptions>,
    "CohortNet must accept an lvalue DelayModel");

// ---------------------------------------------------------------------------
// Harness: run one configuration on the oracle and on LockstepNet at
// several shard/thread counts, compare everything.

struct Observed {
  Round rounds = 0;
  bool stopped = false;
  std::vector<std::optional<Value>> decisions;
  std::vector<Round> decision_rounds;
  std::uint64_t sends = 0, bytes = 0, deliveries = 0;
  std::uint64_t fault_drops = 0, fault_dups = 0;
  Trace trace;
};

template <typename Net>
Observed observe(Net& net, RunResult run) {
  Observed o;
  o.rounds = run.rounds;
  o.stopped = run.stopped;
  for (ProcId p = 0; p < net.n(); ++p) {
    o.decisions.push_back(net.decision(p));
    o.decision_rounds.push_back(net.decision_round(p));
  }
  o.sends = net.sends();
  o.bytes = net.bytes_sent();
  o.deliveries = net.deliveries();
  o.fault_drops = net.fault_drops();
  o.fault_dups = net.fault_dups();
  o.trace = net.trace();
  return o;
}

void expect_traces_equal(const Trace& a, const Trace& b,
                         const std::string& what) {
  ASSERT_EQ(a.end_of_rounds().size(), b.end_of_rounds().size()) << what;
  for (std::size_t i = 0; i < a.end_of_rounds().size(); ++i) {
    const EndOfRoundEvent &x = a.end_of_rounds()[i], &y = b.end_of_rounds()[i];
    ASSERT_TRUE(x.process == y.process && x.round == y.round &&
                x.time == y.time)
        << what << " eor event " << i;
  }
  ASSERT_EQ(a.deliveries().size(), b.deliveries().size()) << what;
  for (std::size_t i = 0; i < a.deliveries().size(); ++i) {
    const DeliveryEvent &x = a.deliveries()[i], &y = b.deliveries()[i];
    ASSERT_TRUE(x.sender == y.sender && x.msg_round == y.msg_round &&
                x.receiver == y.receiver &&
                x.receiver_round == y.receiver_round && x.time == y.time)
        << what << " delivery event " << i;
  }
  ASSERT_EQ(a.crashes().size(), b.crashes().size()) << what;
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    const CrashEvent &x = a.crashes()[i], &y = b.crashes()[i];
    ASSERT_TRUE(x.process == y.process && x.round == y.round)
        << what << " crash event " << i;
  }
}

void expect_equal(const Observed& ref, const Observed& got,
                  const std::string& what) {
  EXPECT_EQ(ref.rounds, got.rounds) << what;
  EXPECT_EQ(ref.stopped, got.stopped) << what;
  EXPECT_EQ(ref.sends, got.sends) << what;
  EXPECT_EQ(ref.bytes, got.bytes) << what;
  EXPECT_EQ(ref.deliveries, got.deliveries) << what;
  EXPECT_EQ(ref.fault_drops, got.fault_drops) << what;
  EXPECT_EQ(ref.fault_dups, got.fault_dups) << what;
  ASSERT_EQ(ref.decisions.size(), got.decisions.size()) << what;
  for (std::size_t p = 0; p < ref.decisions.size(); ++p) {
    EXPECT_EQ(ref.decisions[p], got.decisions[p]) << what << " p=" << p;
    EXPECT_EQ(ref.decision_rounds[p], got.decision_rounds[p])
        << what << " p=" << p;
  }
  expect_traces_equal(ref.trace, got.trace, what);
}

struct Scenario {
  ConsensusAlgo algo = ConsensusAlgo::kEs;
  EnvParams env;
  CrashPlan crashes;
  std::vector<Value> initial;
  FaultParams faults;   // compiled into a FaultPlan by the harness
  LockstepOptions net;  // engine_threads/engine_shards overridden per run
};

std::vector<std::unique_ptr<Automaton<EsMessage>>> es_autos(
    const std::vector<Value>& initial) {
  std::vector<std::unique_ptr<Automaton<EsMessage>>> autos;
  for (const Value& v : initial)
    autos.push_back(std::make_unique<EsConsensus>(v));
  return autos;
}

std::vector<std::unique_ptr<Automaton<EssMessage>>> ess_autos(
    const std::vector<Value>& initial, HistoryArena* arena) {
  std::vector<std::unique_ptr<Automaton<EssMessage>>> autos;
  for (const Value& v : initial)
    autos.push_back(std::make_unique<EssConsensus>(v, arena));
  return autos;
}

Observed run_once(const Scenario& sc, const DelayModel& delays,
                  std::size_t engine_threads, std::size_t engine_shards,
                  std::size_t* shards_ran = nullptr) {
  LockstepOptions opt = sc.net;
  opt.engine_threads = engine_threads;
  opt.engine_shards = engine_shards;
  if (sc.algo == ConsensusAlgo::kEs) {
    LockstepNet<EsMessage> net(es_autos(sc.initial), delays, sc.crashes, opt);
    if (shards_ran) *shards_ran = net.engine_shards();
    return observe(net, net.run_until_all_correct_decided());
  }
  HistoryArena arena;
  LockstepNet<EssMessage> net(ess_autos(sc.initial, &arena), delays,
                              sc.crashes, opt);
  if (shards_ran) *shards_ran = net.engine_shards();
  return observe(net, net.run_until_all_correct_decided());
}

Observed run_oracle(const Scenario& sc, const DelayModel& delays) {
  if (sc.algo == ConsensusAlgo::kEs) {
    SerialLockstepOracle<EsMessage> net(es_autos(sc.initial), delays,
                                        sc.crashes, sc.net);
    return observe(net, net.run_until_all_correct_decided());
  }
  HistoryArena arena;
  SerialLockstepOracle<EssMessage> net(ess_autos(sc.initial, &arena), delays,
                                       sc.crashes, sc.net);
  return observe(net, net.run_until_all_correct_decided());
}

// The serial oracle vs LockstepNet at its defaults (engine_threads = 1,
// engine_shards = 0: one shard), at engine_threads ∈ {2, 8}, and
// single-threaded at 8 shards, on the env-generated schedule.
void check_thread_invariance(const Scenario& sc0, const std::string& what) {
  Scenario sc = sc0;
  const EnvDelayModel delays(sc.env, sc.crashes);
  const FaultPlan plan(sc.faults, sc.net.seed, sc.env.n, &delays);
  if (plan.active()) sc.net.faults = &plan;
  const Observed oracle = run_oracle(sc, delays);
  std::size_t shards = 0;
  const Observed defaults = run_once(sc, delays, 1, 0, &shards);
  ASSERT_EQ(shards, 1u) << what << ": engine_threads=1 runs one shard";
  expect_equal(oracle, defaults, what + " defaults");
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const Observed sharded = run_once(sc, delays, threads, 0, &shards);
    EXPECT_EQ(shards, std::min(threads, sc.env.n)) << what;
    expect_equal(oracle, sharded,
                 what + " threads=" + std::to_string(threads));
  }
  const Observed aggregated = run_once(sc, delays, 1, 8, &shards);
  EXPECT_EQ(shards, std::min<std::size_t>(8, sc.env.n)) << what;
  expect_equal(oracle, aggregated, what + " threads=1 shards=8");
}

// ---------------------------------------------------------------------------

TEST(ShardedEquivalence, RandomizedConfigsMatchSerialAtEveryThreadCount) {
  // Randomized (seed, env kind, crash plan, trace mode) configurations
  // across both algorithms; every one must match the oracle byte for
  // byte — including full per-link delivery traces on half the configs —
  // at engine_threads ∈ {1, 2, 8} and at engine_shards = 8 on one thread.
  std::size_t checked = 0;
  for (std::uint64_t cfg = 0; cfg < 24; ++cfg) {
    Rng rng(0x5eed + cfg * 131);
    Scenario sc;
    sc.algo = (cfg % 2 == 0) ? ConsensusAlgo::kEs : ConsensusAlgo::kEss;
    sc.env.kind = (cfg % 4 < 2) ? EnvKind::kES : EnvKind::kESS;
    sc.env.n = 3 + static_cast<std::size_t>(rng.below(30));  // 3..32
    sc.env.seed = rng.below(1u << 30);
    sc.env.stabilization = static_cast<Round>(rng.below(6));
    sc.env.max_delay = 1 + static_cast<Round>(rng.below(3));
    sc.env.timely_prob = 0.1 + 0.3 * rng.real();
    const std::size_t f =
        std::min<std::size_t>(sc.env.n - 1, rng.below(4));  // 0..3 crashes
    if (f > 0)
      sc.crashes = random_crashes(
          sc.env.n, f, std::max<Round>(2, sc.env.stabilization + 2),
          sc.env.seed + 13);
    sc.initial = (cfg % 3 == 0)
                     ? distinct_values(sc.env.n)
                     : random_values(sc.env.n, sc.env.seed + 7, 100, 103);
    sc.net.seed = sc.env.seed;
    sc.net.max_rounds = 4000;
    sc.net.record_trace = true;
    sc.net.record_deliveries = (cfg % 2 == 0);  // per-link trace mode
    sc.net.relay_partial_broadcast = (cfg % 5 != 4);
    check_thread_invariance(sc, "cfg " + std::to_string(cfg));
    ++checked;
  }
  EXPECT_GE(checked, 20u);
}

TEST(ShardedEquivalence, MidRoundCrashAudienceStraddlesShardBoundaries) {
  // Directed: a fully uniform environment (the group fast path) with
  // senders crashing mid-run — each crashing sender falls back to exact
  // per-link entries whose final audience and relayed non-audience both
  // span multiple shards.  Run with and without the relay layer.
  for (const bool relay : {true, false}) {
    Scenario sc;
    sc.env.kind = EnvKind::kES;
    sc.env.n = 12;  // 8 shards: shard sizes 2,2,2,2,1,1,1,1
    sc.env.seed = 99;
    sc.env.stabilization = 0;  // GST = 0: every round is uniform
    sc.crashes.crash_at(1, 3);
    sc.crashes.crash_at(5, 3);  // two crashes in the same round
    sc.crashes.crash_at(10, 5);
    sc.initial = random_values(sc.env.n, 7, 100, 102);
    sc.net.seed = 99;
    sc.net.max_rounds = 2000;
    sc.net.record_deliveries = true;
    sc.net.relay_partial_broadcast = relay;
    check_thread_invariance(sc, relay ? "relay on" : "relay off");
  }
}

TEST(ShardedEquivalence, NonUniformRoundsUseTheExactFallback) {
  // Pre-GST ES rounds have genuinely per-link random delays, so the
  // sharded engine must run entire rounds through the exact per-link
  // path and still splice a byte-identical trace.
  Scenario sc;
  sc.env.kind = EnvKind::kES;
  sc.env.n = 17;
  sc.env.seed = 1234;
  sc.env.stabilization = 8;  // rounds 1..8 are non-uniform
  sc.env.max_delay = 3;
  sc.initial = distinct_values(sc.env.n);
  sc.net.seed = 1234;
  sc.net.max_rounds = 2000;
  sc.net.record_deliveries = true;
  check_thread_invariance(sc, "pre-GST non-uniform");
}

TEST(ShardedEquivalence, AdversarialOverrideMatchesSerial) {
  // The E8 bivalent two-camp MS schedule (no uniform_delay hint at all):
  // a bounded no-decision run must produce identical metrics and traces.
  const std::size_t n = 9;
  const BivalentMsModel model(n);
  const std::vector<Value> initial = BivalentMsModel::initial_values(n);
  const CrashPlan no_crashes;
  LockstepOptions opt;
  opt.max_rounds = 60;
  opt.record_deliveries = true;

  SerialLockstepOracle<EsMessage> oracle(es_autos(initial), model, no_crashes,
                                         opt);
  const Observed a = observe(oracle, oracle.run_rounds(50));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    LockstepOptions engine_opt = opt;
    engine_opt.engine_threads = threads;
    LockstepNet<EsMessage> net(es_autos(initial), model, no_crashes,
                               engine_opt);
    const Observed b = observe(net, net.run_rounds(50));
    expect_equal(a, b, "bivalent override threads=" + std::to_string(threads));
  }
  // The adversary keeps the run bivalent: nobody decided.
  for (ProcId p = 0; p < n; ++p) EXPECT_FALSE(a.decisions[p].has_value());
}

TEST(ShardedEquivalence, StopAfterDecideHaltsIdentically) {
  Scenario sc;
  sc.env.kind = EnvKind::kES;
  sc.env.n = 11;
  sc.env.seed = 5;
  sc.env.stabilization = 3;
  sc.initial = random_values(sc.env.n, 5, 100, 101);
  sc.net.seed = 5;
  sc.net.max_rounds = 400;
  sc.net.halt_policy = HaltPolicy::kStopAfterDecide;
  sc.net.record_deliveries = true;
  const EnvDelayModel delays(sc.env, sc.crashes);
  // kStopAfterDecide can starve laggards forever, so run to a fixed
  // horizon instead of to all-decided.
  SerialLockstepOracle<EsMessage> oracle(es_autos(sc.initial), delays,
                                         sc.crashes, sc.net);
  const Observed a = observe(oracle, oracle.run_rounds(60));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    LockstepOptions engine_opt = sc.net;
    engine_opt.engine_threads = threads;
    LockstepNet<EsMessage> net(es_autos(sc.initial), delays, sc.crashes,
                               engine_opt);
    const Observed b = observe(net, net.run_rounds(60));
    expect_equal(a, b, "stop-after-decide threads=" + std::to_string(threads));
  }
}

TEST(ShardedEquivalence, PerRoundMetricSeriesMatchesSerial) {
  // Single-round stepping (the collect_round_series pattern re-enters
  // deliver_due for the same round): the cumulative (sends, bytes,
  // deliveries) series must match round for round.
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    Scenario sc;
    sc.env.kind = EnvKind::kES;
    sc.env.n = 10;
    sc.env.seed = seed;
    sc.env.stabilization = 4;
    sc.crashes.crash_at(2, 3);
    sc.initial = random_values(sc.env.n, seed, 100, 102);
    sc.net.seed = seed;
    sc.net.record_trace = false;
    const EnvDelayModel delays(sc.env, sc.crashes);
    SerialLockstepOracle<EsMessage> oracle(es_autos(sc.initial), delays,
                                           sc.crashes, sc.net);
    const auto sa = collect_round_series(oracle, 30);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      LockstepOptions engine_opt = sc.net;
      engine_opt.engine_threads = threads;
      LockstepNet<EsMessage> net(es_autos(sc.initial), delays, sc.crashes,
                                 engine_opt);
      const auto sb = collect_round_series(net, 30);
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t i = 0; i < sa.size(); ++i)
        EXPECT_EQ(sa[i], sb[i])
            << "seed " << seed << " threads " << threads << " step " << i
            << ": " << sa[i].to_string() << " vs " << sb[i].to_string();
    }
  }
}

TEST(ShardedEquivalence, ConsensusReportsMatchThroughTheRunnerSurface) {
  // End-to-end through run_consensus: the full report (decisions,
  // agreement/validity verdicts, metrics, env certification) and the
  // returned trace must be identical at every engine_threads value (the
  // oracle checks above pin the engine itself).
  for (const ConsensusAlgo algo : {ConsensusAlgo::kEs, ConsensusAlgo::kEss}) {
    ConsensusConfig cfg;
    cfg.env.kind = algo == ConsensusAlgo::kEs ? EnvKind::kES : EnvKind::kESS;
    cfg.env.n = 14;
    cfg.env.seed = 77;
    cfg.env.stabilization = 5;
    cfg.crashes = random_crashes(cfg.env.n, 2, 6, 123);
    cfg.initial = random_values(cfg.env.n, 77, 100, 102);
    cfg.net.seed = 77;
    cfg.net.record_deliveries = true;
    cfg.validate_env = true;

    cfg.net.engine_threads = 1;
    Trace one_shard_trace;
    const ConsensusReport one_shard =
        run_consensus(algo, cfg, &one_shard_trace);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      cfg.net.engine_threads = threads;
      Trace trace;
      const ConsensusReport rep = run_consensus(algo, cfg, &trace);
      EXPECT_EQ(one_shard.to_string(), rep.to_string())
          << to_string(algo) << " threads=" << threads;
      EXPECT_EQ(one_shard.rounds_executed, rep.rounds_executed);
      EXPECT_EQ(one_shard.last_decision_round, rep.last_decision_round);
      EXPECT_EQ(one_shard.deliveries, rep.deliveries);
      EXPECT_EQ(one_shard.bytes_sent, rep.bytes_sent);
      expect_traces_equal(one_shard_trace, trace,
                          std::string(to_string(algo)) + " threads=" +
                              std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Fault injection (PR 7 tentpole): seeded loss/duplication/reorder/omission/
// churn plans are a pure function of (fault seed, round, sender, receiver),
// so the engine must stay byte-identical to the oracle under any plan at
// every shard count — including full per-link delivery traces and the fault
// counters themselves.

TEST(FaultedEquivalence, RandomizedFaultPlansMatchSerialAtEveryThreadCount) {
  std::size_t faulted = 0;
  for (std::uint64_t cfg = 0; cfg < 12; ++cfg) {
    Rng rng(0xfa017 + cfg * 977);
    Scenario sc;
    sc.algo = (cfg % 2 == 0) ? ConsensusAlgo::kEs : ConsensusAlgo::kEss;
    sc.env.kind = (cfg % 4 < 2) ? EnvKind::kES : EnvKind::kESS;
    sc.env.n = 3 + static_cast<std::size_t>(rng.below(14));  // 3..16
    sc.env.seed = rng.below(1u << 30);
    sc.env.stabilization = static_cast<Round>(rng.below(5));
    sc.initial = random_values(sc.env.n, sc.env.seed + 7, 100, 103);
    sc.net.seed = sc.env.seed;
    sc.net.max_rounds = 600;
    sc.net.record_trace = true;
    sc.net.record_deliveries = (cfg % 2 == 0);
    sc.faults.loss_prob = 0.2 * rng.real();
    sc.faults.dup_prob = 0.25 * rng.real();
    sc.faults.dup_extra_delay = 1 + static_cast<Round>(rng.below(3));
    sc.faults.reorder_prob = 0.25 * rng.real();
    sc.faults.max_extra_delay = 1 + static_cast<Round>(rng.below(4));
    if (cfg % 3 == 0)
      sc.faults.omission_senders = {
          static_cast<ProcId>(rng.below(sc.env.n))};
    if (cfg % 4 == 1) {
      ChurnSpec ch;
      ch.process = static_cast<ProcId>(rng.below(sc.env.n));
      ch.leave = 2 + static_cast<Round>(rng.below(4));
      ch.rejoin = (cfg % 8 == 1) ? 0 : ch.leave + 1 +
                                       static_cast<Round>(rng.below(8));
      sc.faults.churn.push_back(ch);
    }
    ASSERT_TRUE(sc.faults.active()) << "cfg " << cfg;
    check_thread_invariance(sc, "fault cfg " + std::to_string(cfg));
    ++faulted;
  }
  EXPECT_EQ(faulted, 12u);
}

TEST(FaultedEquivalence, DirectedFaultMixStraddlesShardBoundaries) {
  // Every fault type at once on an otherwise fully uniform environment
  // (GST = 0): an active plan forces the exact per-link path, and losses /
  // delayed duplicates / churn windows all cross shard boundaries at 8
  // shards over n = 12.
  Scenario sc;
  sc.env.kind = EnvKind::kES;
  sc.env.n = 12;
  sc.env.seed = 4242;
  sc.env.stabilization = 0;
  sc.crashes.crash_at(4, 6);  // crash relay + faults interact
  sc.initial = random_values(sc.env.n, 11, 100, 102);
  sc.net.seed = 4242;
  sc.net.max_rounds = 800;
  sc.net.record_deliveries = true;
  sc.faults.loss_prob = 0.15;
  sc.faults.dup_prob = 0.2;
  sc.faults.dup_extra_delay = 2;
  sc.faults.reorder_prob = 0.2;
  sc.faults.max_extra_delay = 3;
  sc.faults.omission_senders = {3};
  sc.faults.churn.push_back({7, 4, 10});
  sc.faults.churn.push_back({1, 6, 0});  // leaves and never returns
  check_thread_invariance(sc, "directed fault mix");
}

TEST(FaultSafety, AgreementAndValidityHoldUnderAnySeededFaultPlan) {
  // The safety contract: with the planned source exempt (the default),
  // agreement and validity must hold under ANY fault intensity, on both
  // backends — only termination may degrade (bounded here by a watchdog,
  // never by an abort).
  for (std::uint64_t i = 0; i < 20; ++i) {
    Rng rng(0xab5afe + i * 613);
    ConsensusConfig cfg;
    const ConsensusAlgo algo =
        (i % 2 == 0) ? ConsensusAlgo::kEs : ConsensusAlgo::kEss;
    cfg.env.kind = (i % 2 == 0) ? EnvKind::kES : EnvKind::kESS;
    cfg.env.n = 3 + static_cast<std::size_t>(rng.below(10));
    cfg.env.seed = rng.below(1u << 30);
    cfg.env.stabilization = static_cast<Round>(rng.below(5));
    cfg.initial = random_values(cfg.env.n, cfg.env.seed + 3, 100, 104);
    cfg.net.seed = cfg.env.seed;
    cfg.net.max_rounds = 1500;
    cfg.watchdog_rounds = 300;
    cfg.validate_env = false;  // the cohort backend records no trace
    cfg.backend = (i % 3 == 0) ? ConsensusBackend::kCohort
                               : ConsensusBackend::kExpanded;
    cfg.faults.loss_prob = 0.5 * rng.real();  // up to heavy loss
    cfg.faults.dup_prob = 0.4 * rng.real();
    cfg.faults.reorder_prob = 0.4 * rng.real();
    cfg.faults.max_extra_delay = 1 + static_cast<Round>(rng.below(5));
    if (i % 4 == 2)
      cfg.faults.omission_senders = {
          static_cast<ProcId>(rng.below(cfg.env.n))};
    if (i % 5 == 3)
      cfg.faults.churn.push_back(
          {static_cast<ProcId>(rng.below(cfg.env.n)),
           1 + static_cast<Round>(rng.below(6)), 0});
    const ConsensusReport rep = run_consensus(algo, cfg);
    EXPECT_TRUE(rep.agreement) << "i=" << i << " " << rep.to_string();
    EXPECT_TRUE(rep.validity) << "i=" << i << " " << rep.to_string();
  }
}

TEST(FaultWatchdog, TotalLossSplitsIntoSoloDecisions) {
  // exempt_source = false and loss_prob = 1: nobody ever hears anyone
  // else.  Under anonymity total isolation is indistinguishable from
  // n = 1, so every process decides *its own* value within a few rounds —
  // the run terminates, but agreement is gone.  (This is why a starving
  // run cannot be built from isolation alone: see the stalled-run test.)
  for (const ConsensusBackend backend :
       {ConsensusBackend::kExpanded, ConsensusBackend::kCohort}) {
    ConsensusConfig cfg;
    cfg.env.kind = EnvKind::kES;
    cfg.env.n = 4;
    cfg.env.seed = 9;
    cfg.initial = distinct_values(cfg.env.n);
    cfg.net.seed = 9;
    cfg.net.max_rounds = 5000;
    cfg.backend = backend;
    cfg.validate_env = false;
    cfg.faults.loss_prob = 1.0;
    cfg.faults.exempt_source = false;
    const ConsensusReport rep = run_consensus(ConsensusAlgo::kEs, cfg);
    EXPECT_TRUE(rep.all_correct_decided) << to_string(backend);
    EXPECT_FALSE(rep.agreement) << to_string(backend);  // distinct solos
    EXPECT_TRUE(rep.validity) << to_string(backend);
    EXPECT_FALSE(rep.undecided) << to_string(backend);
    EXPECT_LT(rep.last_decision_round, 10u) << to_string(backend);
    EXPECT_GT(rep.fault_drops, 0u) << to_string(backend);
  }
}

// The directed stalled run: at this (seed, fault mix) the free run's last
// straggler needs until round 378 to decide (loss + stale duplicates keep
// resurrecting conflicting values into its PROPOSED), with a > 40-round
// gap after the previous decision at round 46.  Pinned by probing; both
// engines compute identical fates, so the numbers below are exact.
ConsensusConfig stalled_run_config() {
  ConsensusConfig cfg;
  cfg.env.kind = EnvKind::kES;
  cfg.env.n = 8;
  cfg.env.seed = 11;
  cfg.env.stabilization = 6;
  cfg.initial = distinct_values(cfg.env.n);
  cfg.net.seed = 11;
  cfg.net.max_rounds = 6000;
  cfg.validate_env = false;
  cfg.faults.loss_prob = 0.3;
  cfg.faults.dup_prob = 0.3;
  cfg.faults.dup_extra_delay = 3;
  cfg.faults.reorder_prob = 0.4;
  cfg.faults.max_extra_delay = 4;
  cfg.faults.omission_senders = {0};
  cfg.faults.churn.push_back({1, 3, 30});
  cfg.faults.exempt_source = false;
  return cfg;
}

TEST(FaultWatchdog, StalledRunEndsUndecidedInsteadOfSpinning) {
  // The watchdog is a patience bound: no new decision for 40 rounds ends
  // the run with a graceful `undecided` on both backends, hundreds of
  // rounds before the straggler would have decided (or max_rounds hit).
  for (const ConsensusBackend backend :
       {ConsensusBackend::kExpanded, ConsensusBackend::kCohort}) {
    ConsensusConfig cfg = stalled_run_config();
    cfg.watchdog_rounds = 40;
    cfg.backend = backend;
    const ConsensusReport rep = run_consensus(ConsensusAlgo::kEs, cfg);
    EXPECT_TRUE(rep.undecided) << to_string(backend);
    EXPECT_FALSE(rep.all_correct_decided) << to_string(backend);
    EXPECT_FALSE(rep.hit_round_limit) << to_string(backend);
    EXPECT_LT(rep.rounds_executed, 120u) << to_string(backend);
    EXPECT_TRUE(rep.validity) << to_string(backend);
    EXPECT_GT(rep.fault_drops, 0u) << to_string(backend);
    EXPECT_GT(rep.fault_dups, 0u) << to_string(backend);
  }
}

TEST(FaultWatchdog, OffByDefaultStillRunsToTheRoundLimit) {
  // watchdog_rounds = 0 keeps the old contract: the same stalled run
  // exhausts a small max_rounds and reports hit_round_limit, not
  // undecided — and given room, it eventually decides everywhere.
  ConsensusConfig cfg = stalled_run_config();
  cfg.net.max_rounds = 120;
  const ConsensusReport rep = run_consensus(ConsensusAlgo::kEs, cfg);
  EXPECT_FALSE(rep.undecided);
  EXPECT_TRUE(rep.hit_round_limit);
  EXPECT_FALSE(rep.all_correct_decided);

  ConsensusConfig free_cfg = stalled_run_config();
  const ConsensusReport free_rep = run_consensus(ConsensusAlgo::kEs, free_cfg);
  EXPECT_TRUE(free_rep.all_correct_decided);
  EXPECT_EQ(free_rep.last_decision_round, 378u);
  EXPECT_FALSE(free_rep.undecided);
}

TEST(ShardedEngine, ShardCountClampsToProcessCount) {
  Scenario sc;
  sc.env.kind = EnvKind::kES;
  sc.env.n = 3;
  sc.env.seed = 1;
  sc.initial = distinct_values(sc.env.n);
  sc.net.max_rounds = 200;
  const EnvDelayModel delays(sc.env, sc.crashes);
  std::size_t shards = 0;
  const Observed sharded = run_once(sc, delays, 16, 16, &shards);
  EXPECT_EQ(shards, 3u);  // min(16, n)
  expect_equal(run_oracle(sc, delays), sharded,
               "n=3 with 16 requested shards");
}

}  // namespace
}  // namespace anon
