// The workloads.
//
// An operation is one in-process `anonsim run`: parse one spec from JSON
// text, run it through ScenarioRegistry::run with one sweep thread, and
// emit the report JSON.  A workload is a round of distinct specs generated
// from the seed; a run times whole rounds of them, so every run attempts
// the same operations.  live-mixed's specs use transport "live", so each of
// its operations boots, drives and stops a loopback anonsvc cluster.
//
// The traced mode runs the same specs through a decomposed path that calls
// each layer directly (spec decoding, env inputs, the engine or the live
// cluster, the checkers, report emission) with a span around each call.
// The same decomposed path, untraced, is also the verification pass of
// every run: it must agree with the registry path (byte for byte on
// simulated reports, timing aside), and it exposes the per-process
// observations the benchmark's own checkers need.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "algo/es_consensus.hpp"
#include "algo/ess_consensus.hpp"
#include "algo/runner.hpp"
#include "checks.hpp"
#include "common/history.hpp"
#include "emul/echo.hpp"
#include "emul/ms_emulation.hpp"
#include "env/faults.hpp"
#include "env/generate.hpp"
#include "env/validate.hpp"
#include "live.hpp"
#include "net/cohort.hpp"
#include "net/lockstep.hpp"
#include "scenario/registry.hpp"
#include "trace.hpp"
#include "weakset/ms_weak_set.hpp"
#include "weakset/ws_from_mwmr.hpp"
#include "weakset/ws_from_swmr.hpp"
#include "weakset/ws_register.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using anon::Round;
using anon::ScenarioReport;
using anon::ScenarioSpec;
using anon::Value;

// ---------------------------------------------------------------------------
// Operations and their generated inputs
// ---------------------------------------------------------------------------

enum class OpKind {
  kConsensus,
  kWeaksetSet,
  kRegister,
  kEmulation,
  kShm,
  kLiveConsensus,
  kLiveAbd,
};

struct SimOp {
  OpKind kind = OpKind::kConsensus;
  std::string label;      // names the operation in diagnostics
  std::string spec_json;  // the operation's input text
  // Simulated reports are a pure function of the spec; live ones carry
  // wall-clock round counts, so only their verdicts are compared.
  bool deterministic = true;
  // Copies of what the input generator chose, for the checks.
  std::vector<Value> proposals;
  std::vector<bool> in_crash_plan;
  bool full_delivery = false;  // failure-free, GST 0, no fault plan
  std::uint64_t target_rounds = 0;     // emulation
  std::uint64_t expected_records = 0;  // shm
  std::int64_t write_value = 0;        // live ABD probe
};

struct Workload {
  std::vector<SimOp> round;
  // Rounds per run of `seconds`: one round takes about this long on the
  // reference host (README), so a run is sized to the requested length
  // while the work it does stays a fixed function of --seconds.
  double round_cost_s = 1;
};

std::string json_values(const std::vector<Value>& vs) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < vs.size(); ++i) os << (i ? "," : "") << vs[i].get();
  os << "]";
  return os.str();
}

// n distinct proposals drawn from the seed.
std::vector<Value> distinct_proposals(InputRng& rng, std::size_t n) {
  std::set<std::int64_t> seen;
  std::vector<Value> out;
  while (out.size() < n) {
    const std::int64_t v = rng.range(1, 1'000'000'000);
    if (seen.insert(v).second) out.push_back(Value(v));
  }
  return out;
}

// `count` distinct victims crashing at rounds in [1, max_round].
std::vector<std::pair<std::size_t, Round>> crash_entries(InputRng& rng,
                                                         std::size_t n,
                                                         std::size_t count,
                                                         Round max_round) {
  std::set<std::size_t> victims;
  std::vector<std::pair<std::size_t, Round>> out;
  while (out.size() < count) {
    const std::size_t p = rng.below(n);
    if (!victims.insert(p).second) continue;
    out.push_back({p, static_cast<Round>(rng.range(1, static_cast<std::int64_t>(max_round)))});
  }
  return out;
}

std::string crashes_json(const std::vector<std::pair<std::size_t, Round>>& cs) {
  if (cs.empty()) return "{\"kind\":\"none\"}";
  std::ostringstream os;
  os << "{\"kind\":\"explicit\",\"entries\":[";
  for (std::size_t i = 0; i < cs.size(); ++i)
    os << (i ? "," : "") << "{\"process\":" << cs[i].first
       << ",\"round\":" << cs[i].second << "}";
  os << "]}";
  return os.str();
}

struct ConsensusShape {
  std::string algo = "es";  // es | ess
  std::string env = "es";
  std::string backend;      // "" = the default engine
  std::size_t n = 0;
  Round gst = 0;
  std::size_t crashes = 0;
  Round crash_max_round = 3;
  bool cycle8 = false;      // cycle-8 proposals instead of distinct ones
  bool faults = false;      // the e14-shaped seeded fault plan
};

SimOp consensus_op(InputRng& rng, const ConsensusShape& s) {
  SimOp op;
  op.kind = OpKind::kConsensus;
  const std::uint64_t cell_seed = rng.next() >> 16;
  const auto crashes = crash_entries(rng, s.n, s.crashes, s.crash_max_round);
  op.in_crash_plan.assign(s.n, false);
  for (const auto& [p, r] : crashes) op.in_crash_plan[p] = true;

  std::string initial;
  if (s.cycle8) {
    const std::int64_t base = rng.range(1, 1'000'000);
    for (std::int64_t i = 0; i < 8; ++i) op.proposals.push_back(Value(base + i));
    initial = "{\"kind\":\"cycle\",\"base\":" + std::to_string(base) +
              ",\"period\":8}";
  } else {
    op.proposals = distinct_proposals(rng, s.n);
    initial = "{\"kind\":\"explicit\",\"values\":" + json_values(op.proposals) + "}";
  }
  op.full_delivery = s.env == "es" && s.gst == 0 && s.crashes == 0 && !s.faults;

  std::ostringstream label;
  label << s.algo << (s.backend.empty() ? "" : "/" + s.backend) << " n=" << s.n
        << " gst=" << s.gst << " crashes=" << s.crashes
        << (s.faults ? " faults" : "") << " seed=" << cell_seed;
  op.label = label.str();

  std::ostringstream js;
  js << "{\"name\":\"" << op.label << "\",\"family\":\"consensus\",\"seeds\":["
     << cell_seed << "],\"env\":{\"kind\":\"" << s.env << "\",\"n\":" << s.n
     << ",\"stabilization\":" << s.gst;
  if (s.faults)
    js << ",\"faults\":{\"loss_prob\":0.1,\"dup_prob\":0.05,"
          "\"dup_extra_delay\":2,\"reorder_prob\":0.1,\"max_extra_delay\":3,"
          "\"omission_senders\":[3],\"churn\":[{\"process\":5,\"leave\":8,"
          "\"rejoin\":20}]}";
  js << "},\"workload\":{\"initial\":" << initial
     << ",\"crashes\":" << crashes_json(crashes) << "},\"consensus\":{\"algo\":\""
     << s.algo << "\"";
  if (!s.backend.empty()) js << ",\"backend\":\"" << s.backend << "\"";
  if (s.faults) js << ",\"max_rounds\":4000,\"watchdog_rounds\":500";
  if (s.backend == "cohort") js << ",\"record_trace\":false";
  js << "}}";
  op.spec_json = js.str();
  return op;
}

// Algorithm 4's set over MS, e4-shaped: adds at rounds 2+3i cycling the
// processes, each followed one round later by a get on the next process.
SimOp weakset_set_op(InputRng& rng, std::size_t n, std::size_t pairs) {
  SimOp op;
  op.kind = OpKind::kWeaksetSet;
  const std::uint64_t cell_seed = rng.next() >> 16;
  op.label = "weakset-set n=" + std::to_string(n) + " pairs=" +
             std::to_string(pairs) + " seed=" + std::to_string(cell_seed);
  const std::vector<Value> values = distinct_proposals(rng, pairs);
  std::ostringstream js;
  js << "{\"name\":\"" << op.label << "\",\"family\":\"weakset\",\"seeds\":["
     << cell_seed << "],\"env\":{\"kind\":\"ms\",\"n\":" << n
     << "},\"workload\":{\"crashes\":{\"kind\":\"none\"}},\"weakset\":{\"mode\":"
        "\"set\",\"script\":[";
  for (std::size_t i = 0; i < pairs; ++i)
    js << (i ? "," : "") << "{\"round\":" << 2 + 3 * i << ",\"process\":" << i % n
       << ",\"mutate\":true,\"value\":" << values[i].get() << "},{\"round\":"
       << 3 + 3 * i << ",\"process\":" << (i + 1) % n << ",\"mutate\":false}";
  js << "],\"extra_rounds\":50,\"validate_env\":false,\"keep_records\":true}}";
  op.spec_json = js.str();
  return op;
}

// The Prop-1 register over Algorithm 4, e6-shaped: writes at rounds 2+5i
// alternating processes 0 and 1, reads by process 2 two rounds later.
SimOp register_op(InputRng& rng, std::size_t n, std::size_t pairs) {
  SimOp op;
  op.kind = OpKind::kRegister;
  const std::uint64_t cell_seed = rng.next() >> 16;
  op.label = "register n=" + std::to_string(n) + " pairs=" +
             std::to_string(pairs) + " seed=" + std::to_string(cell_seed);
  std::set<std::int64_t> seen;
  std::ostringstream js;
  js << "{\"name\":\"" << op.label << "\",\"family\":\"weakset\",\"seeds\":["
     << cell_seed << "],\"env\":{\"kind\":\"ms\",\"n\":" << n
     << "},\"workload\":{\"crashes\":{\"kind\":\"none\"}},\"weakset\":{\"mode\":"
        "\"register\",\"script\":[";
  for (std::size_t i = 0; i < pairs; ++i) {
    std::int64_t v = 0;
    do v = rng.range(1, 1'000'000);  // the register packs values in 31 bits
    while (!seen.insert(v).second);
    js << (i ? "," : "") << "{\"round\":" << 2 + 5 * i << ",\"process\":" << i % 2
       << ",\"mutate\":true,\"value\":" << v << "},{\"round\":" << 4 + 5 * i
       << ",\"process\":2,\"mutate\":false}";
  }
  js << "],\"extra_rounds\":60,\"validate_env\":false,\"keep_records\":true}}";
  op.spec_json = js.str();
  return op;
}

// Algorithm 5 on the interned engine with environment certification on,
// e5-shaped.
SimOp emulation_op(InputRng& rng, std::size_t n, Round rounds) {
  SimOp op;
  op.kind = OpKind::kEmulation;
  const std::uint64_t cell_seed = rng.next() >> 16;
  op.target_rounds = rounds;
  op.label = "emulation n=" + std::to_string(n) + " rounds=" +
             std::to_string(rounds) + " seed=" + std::to_string(cell_seed);
  std::ostringstream js;
  js << "{\"name\":\"" << op.label << "\",\"family\":\"emulation\",\"seeds\":["
     << cell_seed << "],\"env\":{\"kind\":\"ms\",\"n\":" << n
     << "},\"emulation\":{\"inner\":\"echo\",\"engine\":\"interned\",\"rounds\":"
     << rounds << "}}";
  op.spec_json = js.str();
  return op;
}

// The §5 shared-memory constructions, e7-shaped: Prop 2 (SWMR) or
// Prop 3 (MWMR over a finite domain).
SimOp shm_op(InputRng& rng, bool swmr, std::size_t n, std::uint64_t pairs,
             std::uint64_t domain) {
  SimOp op;
  op.kind = OpKind::kShm;
  const std::uint64_t cell_seed = rng.next() >> 16;
  op.expected_records = 2 * pairs;
  op.label = std::string(swmr ? "shm-swmr" : "shm-mwmr") + " n=" +
             std::to_string(n) + " pairs=" + std::to_string(pairs) +
             " seed=" + std::to_string(cell_seed);
  std::ostringstream js;
  js << "{\"name\":\"" << op.label << "\",\"family\":\"weakset-shm\",\"seeds\":["
     << cell_seed << "],\"env\":{\"kind\":\"es\",\"n\":" << n
     << "},\"shm\":{\"construction\":\"" << (swmr ? "swmr" : "mwmr")
     << "\",\"gen_ops\":" << pairs << ",\"domain\":" << domain;
  if (!swmr) js << ",\"writers\":" << n;
  js << "}}";
  op.spec_json = js.str();
  return op;
}

// A transport-"live" cell on a 3-node loopback UDP cluster with a 2 ms
// pacemaker period: Algorithm 2 to a decision on every node, or the ABD
// write-then-read probe.
SimOp live_op(InputRng& rng, bool consensus) {
  SimOp op;
  op.kind = consensus ? OpKind::kLiveConsensus : OpKind::kLiveAbd;
  op.deterministic = false;
  const std::uint64_t cell_seed = rng.next() >> 16;
  op.label = std::string(consensus ? "live-consensus" : "live-abd") +
             " n=3 seed=" + std::to_string(cell_seed);
  std::ostringstream js;
  js << "{\"name\":\"" << op.label << "\",\"family\":\""
     << (consensus ? "consensus" : "abd") << "\",\"seeds\":[" << cell_seed
     << "],\"transport\":\"live\",\"env\":{\"kind\":\"es\",\"n\":3},\"live\":{"
        "\"period_ms\":2},";
  if (consensus) {
    op.proposals = distinct_proposals(rng, 3);
    op.in_crash_plan.assign(3, false);
    js << "\"workload\":{\"initial\":{\"kind\":\"explicit\",\"values\":"
       << json_values(op.proposals) << "},\"crashes\":{\"kind\":\"none\"}},"
       << "\"consensus\":{\"algo\":\"es\"}}";
  } else {
    op.write_value = rng.range(1, 1'000'000'000);
    js << "\"abd\":{\"write_value\":" << op.write_value << "}}";
  }
  op.spec_json = js.str();
  return op;
}

// cohort-scale, sec5-stack and live-mixed put several seeded instances of
// each shape in a round: 3, 6 and 6 of them.  An instance's cost depends on
// its seed (crash victims and rounds, proposals, the environment's adversary,
// a live cluster's timeouts: the live consensus runs of one seed took 18 to
// 41 ms), and the percentiles are taken over the round's instances, so more
// instances per round keep the seed from moving them.

Workload make_workload(const std::string& name, std::uint64_t seed) {
  InputRng rng(seed);
  Workload w;
  if (name == "consensus-perlink") {
    // Algorithm 3 in ESS with GST 3..8 and crashes up to round 10, plus
    // Algorithm 2 in ES with GST 10 under the seeded e14-shaped fault plan:
    // no uniform round, so the engine works link by link.  Most instances
    // share one size, so the median operation lies inside one shape.
    struct Ess {
      std::size_t n;
      Round gst;
      std::size_t crashes;
    };
    for (const Ess e : {Ess{96, 4, 2}, Ess{128, 3, 1}, Ess{128, 4, 2},
                        Ess{128, 5, 3}, Ess{128, 6, 1}, Ess{128, 7, 2},
                        Ess{128, 8, 3}, Ess{96, 6, 2}}) {
      ConsensusShape s;
      s.algo = "ess";
      s.env = "ess";
      s.n = e.n;
      s.gst = e.gst;
      s.crashes = e.crashes;
      s.crash_max_round = 10;
      w.round.push_back(consensus_op(rng, s));
    }
    for (int i = 0; i < 4; ++i) {
      ConsensusShape s;
      s.n = 192;
      s.gst = 10;
      s.crashes = 2;
      s.crash_max_round = 10;
      s.faults = true;
      w.round.push_back(consensus_op(rng, s));
    }
    w.round_cost_s = 1.25;
  } else if (name == "cohort-scale") {
    // Algorithm 2 on the cohort backend with cycle-8 proposals from n=10^4
    // to 10^6, failure-free and with a few early crashes.  The shapes
    // cluster so that the median operation is a failure-free n=3*10^5 run
    // (the O(n) passes) and the 90th percentile a crash-split n=10^5 run.
    struct Cell {
      std::size_t n;
      std::size_t crashes;
    };
    for (int copy = 0; copy < 3; ++copy) {
      for (const Cell c : {Cell{100'000, 0}, Cell{300'000, 0}, Cell{10'000, 4},
                           Cell{300'000, 0}, Cell{100'000, 4}, Cell{10'000, 0},
                           Cell{300'000, 0}, Cell{1'000'000, 0}, Cell{300'000, 0},
                           Cell{100'000, 4}}) {
        ConsensusShape s;
        s.backend = "cohort";
        s.n = c.n;
        s.crashes = c.crashes;
        s.crash_max_round = 3;
        s.cycle8 = true;
        w.round.push_back(consensus_op(rng, s));
      }
    }
    w.round_cost_s = 2.07;
  } else if (name == "sec5-stack") {
    // The §5 families interleaved in a fixed order.
    for (int i = 0; i < 6; ++i) {
      w.round.push_back(weakset_set_op(rng, 16, 48));
      w.round.push_back(emulation_op(rng, 32, 160));
      w.round.push_back(register_op(rng, 9, 8));
      w.round.push_back(shm_op(rng, true, 16, 1000, 13));
      w.round.push_back(shm_op(rng, false, 5, 100, 64));
    }
    w.round_cost_s = 0.735;
  } else if (name == "live-mixed") {
    // Live cells through the same scenario surface, in groups of ten: seven
    // consensus decisions (the median and 90th-percentile operations:
    // cluster start, pacemaker rounds, stop) and three ABD probes (cluster
    // start, two quorum calls, stop).  An ABD probe's few milliseconds are
    // mostly the wait for the nodes to stop, which on a shared host swings 3x
    // from run to run, so the median is kept off them.
    for (int copy = 0; copy < 6; ++copy)
      for (bool consensus : {true, false, true, true, false, true, true, false,
                             true, true})
        w.round.push_back(live_op(rng, consensus));
    w.round_cost_s = 1.08;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

// ---------------------------------------------------------------------------
// The registry path (what `anonsim run` does)
// ---------------------------------------------------------------------------

ScenarioSpec decode(const std::string& text) {
  anon::SpecDecodeResult dec = anon::parse_scenario_spec(text);
  if (!dec.ok()) throw std::runtime_error("spec rejected: " + dec.errors_to_string());
  return std::move(*dec.spec);
}

ScenarioReport registry_op(const std::string& text, std::size_t* emitted) {
  const ScenarioSpec spec = decode(text);
  ScenarioReport rep =
      anon::ScenarioRegistry::instance().run(spec, anon::SweepOptions{1, 1});
  *emitted += rep.to_json_string().size();
  return rep;
}

// ---------------------------------------------------------------------------
// The decomposed path
// ---------------------------------------------------------------------------

// What the checks need beyond the report.
struct Observation {
  std::vector<std::optional<Value>> decisions;
  std::vector<anon::WsOpRecord> ws_records;
  std::vector<anon::RegOpRecord> reg_records;
  std::vector<std::uint64_t> rounds_completed;
};

// Per-layer counters accumulated over a traced batch.
struct LayerCounters {
  std::vector<double> lockstep_round_s, cohort_round_s;
  std::uint64_t lockstep_deliveries = 0, lockstep_rounds = 0,
                lockstep_fault_drops = 0;
  std::uint64_t cohort_deliveries = 0, cohort_classes_max = 0,
                cohort_splits = 0, cohort_merges = 0, cohort_clones = 0;
  std::vector<double> cohort_members_per_class;
  std::uint64_t emul_deliveries = 0, emul_ticks = 0;
  std::uint64_t ws_add_rounds = 0, ws_adds = 0;
};

// Times the gap between consecutive stop-predicate calls: one engine round.
struct RoundClock {
  std::vector<double>* out = nullptr;
  std::optional<Clock::time_point> last;
  void tick() {
    if (out == nullptr) return;
    const auto now = Clock::now();
    if (last) out->push_back(seconds_between(*last, now));
    last = now;
  }
};

// Drives a consensus net to the decision the way algo/runner.hpp does,
// including the no-progress watchdog, with a round clock in the predicate.
template <typename Net>
anon::RunResult drive_to_decision(Net& net, Round watchdog_rounds,
                                  bool* undecided, RoundClock& clock) {
  std::size_t decided_count = 0;
  Round last_progress = net.round();
  bool fired = false;
  const anon::RunResult run = net.run([&](const Net& n) {
    clock.tick();
    if (n.all_correct_decided()) return true;
    if (watchdog_rounds == 0) return false;
    std::size_t count = 0;
    for (anon::ProcId p = 0; p < n.n(); ++p)
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
  *undecided = fired;
  return run;
}

template <typename Net>
void observe_decisions(const Net& net, Observation* obs) {
  if (obs == nullptr) return;
  obs->decisions.resize(net.n());
  for (anon::ProcId p = 0; p < net.n(); ++p) obs->decisions[p] = net.decision(p);
}

anon::ConsensusCellOutcome decomposed_consensus(const ScenarioSpec& spec,
                                                Tracer* tr, LayerCounters* lc,
                                                Observation* obs) {
  const anon::ConsensusSpecSection& c = spec.consensus;
  const std::uint64_t seed = spec.seeds.at(0);
  std::vector<Value> initial;
  anon::CrashPlan crashes;
  std::optional<anon::EnvDelayModel> delays;
  std::optional<anon::FaultPlan> faults;
  anon::LockstepOptions net_opt;
  {
    ScopedSpan span(tr, "env.inputs");
    initial = spec.initial_values();
    crashes = spec.crash_plan(seed);
    delays.emplace(spec.env_params(seed), crashes);
    faults.emplace(spec.faults, seed, spec.n, &*delays);
    net_opt.seed = seed;
    net_opt.max_rounds = c.max_rounds;
    net_opt.record_trace = c.record_trace;
    net_opt.record_deliveries = c.record_deliveries;
    net_opt.engine_threads = c.engine_threads;
    if (faults->active()) net_opt.faults = &*faults;
  }

  anon::ConsensusCellOutcome cell;
  cell.env_checked = c.validate_env;
  bool undecided = false;
  RoundClock clock;
  auto finish = [&](auto& net, anon::RunResult run) {
    ScopedSpan span(tr, "algo.summarize");
    cell.report = anon::summarize_consensus_run(net, initial, crashes, run,
                                                c.validate_env);
    cell.report.undecided = undecided;
    observe_decisions(net, obs);
  };

  if (c.backend == anon::ConsensusBackend::kCohort) {
    if (c.algo != anon::ConsensusAlgo::kEs)
      throw std::runtime_error("the benchmark runs ES only on the cohort backend");
    if (lc) clock.out = &lc->cohort_round_s;
    std::optional<anon::CohortNet<anon::EsMessage>> net;
    anon::RunResult run;
    {
      ScopedSpan span(tr, "cohort.run");
      net.emplace(anon::groups_by_initial_value<anon::EsMessage>(
                      initial,
                      [](const Value& v) {
                        return std::make_unique<anon::EsConsensus>(v);
                      }),
                  *delays, crashes, anon::CohortOptions::from(net_opt));
      run = drive_to_decision(*net, c.watchdog_rounds, &undecided, clock);
    }
    finish(*net, run);
    if (lc) {
      const anon::CohortStats& st = net->stats();
      lc->cohort_deliveries += net->deliveries();
      lc->cohort_classes_max = std::max<std::uint64_t>(lc->cohort_classes_max, st.max_cohorts);
      lc->cohort_splits += st.splits;
      lc->cohort_merges += st.merges;
      lc->cohort_clones += st.clones;
      lc->cohort_members_per_class.push_back(
          static_cast<double>(spec.n) / static_cast<double>(std::max<std::size_t>(1, st.max_cohorts)));
    }
    return cell;
  }

  auto run_expanded = [&]<typename M>(
                          std::vector<std::unique_ptr<anon::Automaton<M>>>& autos) {
    if (lc) clock.out = &lc->lockstep_round_s;
    std::optional<anon::LockstepNet<M>> net;
    anon::RunResult run;
    {
      ScopedSpan span(tr, "lockstep.run");
      net.emplace(std::move(autos), *delays, crashes, net_opt);
      run = drive_to_decision(*net, c.watchdog_rounds, &undecided, clock);
    }
    finish(*net, run);
    if (lc) {
      lc->lockstep_deliveries += net->deliveries();
      lc->lockstep_rounds += run.rounds;
      lc->lockstep_fault_drops += net->fault_drops();
    }
  };
  if (c.algo == anon::ConsensusAlgo::kEs) {
    std::vector<std::unique_ptr<anon::Automaton<anon::EsMessage>>> autos;
    for (const Value& v : initial) autos.push_back(std::make_unique<anon::EsConsensus>(v));
    run_expanded(autos);
  } else {
    anon::HistoryArena arena;
    std::vector<std::unique_ptr<anon::Automaton<anon::EssMessage>>> autos;
    for (const Value& v : initial)
      autos.push_back(std::make_unique<anon::EssConsensus>(v, &arena));
    run_expanded(autos);
  }
  return cell;
}

anon::WsRunOptions ws_options(const ScenarioSpec& spec) {
  anon::WsRunOptions opt;
  opt.extra_rounds = spec.weakset.extra_rounds;
  opt.validate_env = spec.weakset.validate_env;
  opt.engine_threads = spec.weakset.engine_threads;
  opt.faults = spec.faults;
  return opt;
}

anon::WeaksetCellOutcome decomposed_weakset_set(const ScenarioSpec& spec,
                                                Tracer* tr, LayerCounters* lc,
                                                Observation* obs) {
  const std::uint64_t seed = spec.seeds.at(0);
  std::vector<anon::WsScriptOp> script;
  anon::EnvParams env;
  anon::CrashPlan crashes;
  {
    ScopedSpan span(tr, "env.inputs");
    env = spec.env_params(seed);
    crashes = spec.crash_plan(seed);
    for (const auto& op : spec.weakset.script)
      script.push_back({op.round, op.process, op.is_mutation, Value(op.value)});
  }
  anon::MsWeakSetRunResult run;
  {
    ScopedSpan span(tr, "weakset.run");
    run = anon::run_ms_weak_set(env, crashes, std::move(script), ws_options(spec));
  }
  anon::WsCheckResult check;
  {
    ScopedSpan span(tr, "weakset.check");
    check = anon::check_weak_set_spec(run.records);
  }
  anon::WeaksetCellOutcome cell;
  cell.spec_ok = check.ok;
  cell.violation = check.violation;
  cell.rounds = run.rounds_executed;
  cell.adds = run.adds;
  cell.all_adds_completed = run.all_adds_completed;
  cell.add_latency_total = run.add_latency_rounds_total;
  cell.env_checked = spec.weakset.validate_env;
  cell.env_ms_ok = run.env_check.ms_ok;
  if (lc) {
    lc->ws_add_rounds += run.add_latency_rounds_total;
    lc->ws_adds += run.adds;
  }
  if (obs) obs->ws_records = run.records;
  if (spec.weakset.keep_records) cell.set_records = std::move(run.records);
  return cell;
}

anon::WeaksetCellOutcome decomposed_register(const ScenarioSpec& spec,
                                             Tracer* tr) {
  const std::uint64_t seed = spec.seeds.at(0);
  std::vector<anon::RegScriptOp> script;
  anon::EnvParams env;
  anon::CrashPlan crashes;
  {
    ScopedSpan span(tr, "env.inputs");
    env = spec.env_params(seed);
    crashes = spec.crash_plan(seed);
    for (const auto& op : spec.weakset.script)
      script.push_back({op.round, op.process, op.is_mutation, Value(op.value)});
  }
  anon::RegisterRunResult run;
  {
    ScopedSpan span(tr, "register.run");
    run = anon::run_register_over_ms(env, crashes, std::move(script), ws_options(spec));
  }
  {
    // run_register_over_ms checks its history itself; the checker runs once
    // more so that the register.check span can time it on its own.  It runs
    // untraced too, so both decomposed batches do the same work.
    ScopedSpan span(tr, "register.check");
    const anon::RegCheckResult again = anon::check_regular_register(run.records);
    if (again.ok != run.check.ok) throw std::runtime_error("register checker is not repeatable");
  }
  anon::WeaksetCellOutcome cell;
  cell.spec_ok = run.check.ok;
  cell.violation = run.check.violation;
  cell.rounds = run.rounds_executed;
  cell.writes_completed = run.writes_completed;
  cell.write_latency_total = run.write_latency_rounds_total;
  cell.env_checked = spec.weakset.validate_env;
  cell.env_ms_ok = run.env_check.ms_ok;
  if (spec.weakset.keep_records) cell.reg_records = std::move(run.records);
  return cell;
}

anon::EmulationCellOutcome decomposed_emulation(const ScenarioSpec& spec,
                                                Tracer* tr, LayerCounters* lc,
                                                Observation* obs) {
  const anon::EmulationSpecSection& e = spec.emulation;
  const std::uint64_t seed = spec.seeds.at(0);
  const std::size_t n = spec.n;
  if (e.inner != anon::EmulationSpecSection::Inner::kEcho ||
      e.engine != anon::EmulationSpecSection::Engine::kInterned ||
      e.backend != anon::EmulationSpecSection::Backend::kExpanded)
    throw std::runtime_error("the benchmark runs echo probes on the interned engine only");
  std::vector<Value> probes;
  anon::MsEmulationOptions opt;
  {
    ScopedSpan span(tr, "env.inputs");
    probes = anon::materialize_values(e.probe_values, n);
    opt.seed = seed;
    opt.min_add_latency = e.min_add_latency;
    opt.max_add_latency = e.max_add_latency;
    opt.skew = e.skew;
    opt.max_ticks = e.max_ticks;
    opt.faults = anon::EmulFaultModel(spec.faults, seed, n);
  }
  std::optional<anon::MsEmulation<anon::ValueSet>> emu;
  anon::EmulationCellOutcome cell;
  {
    ScopedSpan span(tr, "emul.run");
    std::vector<std::unique_ptr<anon::Automaton<anon::ValueSet>>> autos;
    for (const Value& v : probes) autos.push_back(std::make_unique<anon::EchoAutomaton>(v.get()));
    emu.emplace(std::move(autos), opt);
    cell.ran = emu->run_until_round(e.rounds);
  }
  const anon::Trace& trace = emu->trace();
  cell.trace_deliveries = trace.deliveries().size();
  if (!trace.end_of_rounds().empty()) cell.ticks = trace.end_of_rounds().back().time;
  cell.rounds_min = anon::kNeverCrashes;
  for (anon::ProcId p = 0; p < n; ++p) {
    const Round r = trace.rounds_completed(p, n);
    cell.rounds_min = std::min(cell.rounds_min, r);
    cell.rounds_max = std::max(cell.rounds_max, r);
    cell.rounds_total += r;
    if (obs) obs->rounds_completed.push_back(r);
  }
  if (cell.rounds_min == anon::kNeverCrashes) cell.rounds_min = 0;
  if (e.certify && cell.ran) {
    ScopedSpan span(tr, "env.check");
    std::vector<anon::ProcId> all(n);
    for (anon::ProcId p = 0; p < n; ++p) all[p] = p;
    cell.ms_certified = anon::check_environment(trace, n, all).ms_ok;
  }
  if (lc) {
    lc->emul_deliveries += cell.trace_deliveries;
    lc->emul_ticks += cell.ticks;
  }
  return cell;
}

anon::ShmCellOutcome decomposed_shm(const ScenarioSpec& spec, Tracer* tr,
                                    Observation* obs) {
  const anon::ShmSpecSection& s = spec.shm;
  const std::uint64_t seed = spec.seeds.at(0);
  const bool swmr = s.construction == anon::ShmSpecSection::Construction::kSwmr;
  // The construction scripts, as documented for the spec's generator
  // (E7.a: adds cycling processes and the domain, each followed by a get on
  // the next process; E7.b: the same over `writers` script processes).
  std::vector<anon::ShmWsScriptOp> swmr_script;
  std::vector<anon::MwmrWsScriptOp> mwmr_script;
  std::vector<Value> domain;
  {
    ScopedSpan span(tr, "env.inputs");
    for (std::uint64_t i = 0; i < s.gen_ops; ++i) {
      const Value v(static_cast<std::int64_t>(i % s.domain));
      if (swmr) {
        swmr_script.push_back({i * 2, i % spec.n, true, v});
        swmr_script.push_back({i * 2 + 1, (i + 1) % spec.n, false, Value()});
      } else {
        mwmr_script.push_back({i * 2, i % s.writers, true, v});
        mwmr_script.push_back({i * 2 + 1, (i + 2) % s.writers, false, Value()});
      }
    }
    for (std::uint64_t i = 0; i < s.domain; ++i)
      domain.push_back(Value(static_cast<std::int64_t>(i)));
  }
  std::vector<anon::WsOpRecord> records;
  {
    ScopedSpan span(tr, "shm.run");
    records = swmr ? anon::run_ws_from_swmr(spec.n, swmr_script, seed)
                   : anon::run_ws_from_mwmr(domain, mwmr_script, seed);
  }
  anon::WsCheckResult check;
  {
    ScopedSpan span(tr, "shm.check");
    check = anon::check_weak_set_spec(records);
  }
  anon::ShmCellOutcome cell;
  cell.spec_ok = check.ok;
  cell.violation = check.violation;
  cell.records = records.size();
  if (obs) obs->ws_records = std::move(records);
  return cell;
}

// The registry's identity stamp and rollup, for the decomposed report.
void stamp(ScenarioReport& rep, const ScenarioSpec& spec, double wall_s) {
  rep.name = spec.name;
  rep.family = spec.family;
  rep.seeds = spec.seeds;
  rep.wall_s = wall_s;
  rep.threads = anon::resolve_sweep_threads(1);
  for (const auto& c : rep.consensus_cells) {
    rep.rounds += c.report.rounds_executed;
    rep.sends += c.report.sends;
    rep.bytes += c.report.bytes_sent;
    rep.deliveries += c.report.deliveries;
  }
  for (const auto& c : rep.weakset_cells) rep.rounds += c.rounds;
  for (const auto& c : rep.emulation_cells) {
    rep.rounds += c.rounds_max;
    rep.deliveries += c.trace_deliveries;
  }
  for (const auto& c : rep.abd_cells) {
    rep.sends += c.messages;
    rep.deliveries += c.messages;
  }
}

ScenarioReport decomposed_op(const SimOp& op, Tracer* tr, LayerCounters* lc,
                             Observation* obs, std::size_t* emitted) {
  ScopedSpan root(tr, "op");
  ScenarioSpec spec;
  {
    ScopedSpan span(tr, "scenario.decode");
    spec = decode(op.spec_json);
  }
  if (spec.seeds.size() != 1) throw std::runtime_error("one seed per operation expected");
  const auto start = Clock::now();
  ScenarioReport rep;
  switch (op.kind) {
    case OpKind::kConsensus:
      rep.consensus_cells.push_back(decomposed_consensus(spec, tr, lc, obs));
      break;
    case OpKind::kWeaksetSet:
      rep.weakset_cells.push_back(decomposed_weakset_set(spec, tr, lc, obs));
      break;
    case OpKind::kRegister:
      rep.weakset_cells.push_back(decomposed_register(spec, tr));
      break;
    case OpKind::kEmulation:
      rep.emulation_cells.push_back(decomposed_emulation(spec, tr, lc, obs));
      break;
    case OpKind::kShm:
      rep.shm_cells.push_back(decomposed_shm(spec, tr, obs));
      break;
    case OpKind::kLiveConsensus: {
      Observation scratch;
      Observation& o = obs ? *obs : scratch;
      rep.consensus_cells.push_back(live_consensus_cell(spec, tr, &o.decisions));
      break;
    }
    case OpKind::kLiveAbd: {
      Observation scratch;
      Observation& o = obs ? *obs : scratch;
      rep.abd_cells.push_back(live_abd_cell(spec, tr, &o.reg_records));
      break;
    }
  }
  stamp(rep, spec, seconds_between(start, Clock::now()));
  {
    ScopedSpan span(tr, "scenario.emit");
    *emitted += rep.to_json_string().size();
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

std::string in_proposals(const std::optional<Value>& v, const SimOp& op) {
  if (!v.has_value()) return "no decided value in the report";
  for (const Value& p : op.proposals)
    if (p == *v) return {};
  return "validity: reported value " + v->to_string() + " was never proposed";
}

// Properties every registry report must show, read from its fields and
// compared with the benchmark's own inputs.
std::string check_report(const SimOp& op, const ScenarioReport& rep) {
  switch (op.kind) {
    case OpKind::kConsensus:
    case OpKind::kLiveConsensus: {
      if (rep.consensus_cells.size() != 1) return "expected one consensus cell";
      const anon::ConsensusReport& r = rep.consensus_cells[0].report;
      if (!r.all_correct_decided || r.hit_round_limit || r.undecided)
        return "termination: " + r.to_string();
      if (!r.agreement || !r.validity) return "report flags a violation: " + r.to_string();
      if (std::string why = in_proposals(r.value, op); !why.empty()) return why;
      if (op.full_delivery)
        return check_full_delivery(r.rounds_executed, op.in_crash_plan.size(),
                                   r.deliveries);
      return {};
    }
    case OpKind::kWeaksetSet: {
      if (rep.weakset_cells.size() != 1) return "expected one weakset cell";
      const anon::WeaksetCellOutcome& c = rep.weakset_cells[0];
      if (!c.spec_ok) return "weak-set spec violated: " + c.violation;
      if (!c.all_adds_completed) return "weak-set: an add never completed";
      return check_weak_set_naive(c.set_records);
    }
    case OpKind::kRegister: {
      if (rep.weakset_cells.size() != 1) return "expected one weakset cell";
      const anon::WeaksetCellOutcome& c = rep.weakset_cells[0];
      if (!c.spec_ok) return "register regularity violated: " + c.violation;
      return check_register_naive(c.reg_records);
    }
    case OpKind::kEmulation: {
      if (rep.emulation_cells.size() != 1) return "expected one emulation cell";
      const anon::EmulationCellOutcome& c = rep.emulation_cells[0];
      if (!c.ran || c.rounds_min < op.target_rounds)
        return "emulation: target round " + std::to_string(op.target_rounds) +
               " not reached (min " + std::to_string(c.rounds_min) + ")";
      if (!c.ms_certified) return "emulation: trace not certified MS";
      return {};
    }
    case OpKind::kShm: {
      if (rep.shm_cells.size() != 1) return "expected one shm cell";
      const anon::ShmCellOutcome& c = rep.shm_cells[0];
      if (!c.spec_ok) return "shm weak-set spec violated: " + c.violation;
      if (c.records != op.expected_records)
        return "shm: " + std::to_string(c.records) + " records, expected " +
               std::to_string(op.expected_records);
      return {};
    }
    case OpKind::kLiveAbd:
      if (rep.abd_cells.size() != 1) return "expected one abd cell";
      if (!rep.abd_cells[0].completed)
        return "abd: the probe's write or read did not complete with the written value";
      return {};
  }
  return {};
}

// Checks on the per-process observations of the decomposed path.
std::string check_observation(const SimOp& op, const Observation& obs) {
  switch (op.kind) {
    case OpKind::kConsensus:
    case OpKind::kLiveConsensus:
      return check_consensus(obs.decisions, op.proposals, op.in_crash_plan);
    case OpKind::kLiveAbd:
      if (obs.reg_records.size() != 2) return "abd: the probe history is incomplete";
      return check_register_naive(obs.reg_records);
    case OpKind::kWeaksetSet:
    case OpKind::kShm:
      return check_weak_set_naive(obs.ws_records);
    case OpKind::kEmulation:
      return check_emulation_rounds(obs.rounds_completed, op.target_rounds);
    case OpKind::kRegister:
      return {};  // its history rides on the report (keep_records)
  }
  return {};
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double rate(std::uint64_t count, const std::vector<double>& durations) {
  double total = 0;
  for (double d : durations) total += d;
  return total > 0 ? static_cast<double>(count) / total : 0;
}

void set_layer_metrics(RunOutput& out, const Tracer& tr, const LayerCounters& lc) {
  for (const auto& [name, unit] : per_layer_metrics()) out.set(name, 0, unit);
  auto med = [&](const char* span, double scale) {
    return scale * median(tr.durations(span));
  };
  out.set("scenario.decode_us", med("scenario.decode", 1e6), "us");
  out.set("scenario.emit_us", med("scenario.emit", 1e6), "us");
  out.set("env.inputs_ms", med("env.inputs", 1e3), "ms");
  out.set("env.check_ms", med("env.check", 1e3), "ms");
  out.set("lockstep.run_ms", med("lockstep.run", 1e3), "ms");
  out.set("lockstep.round_us", 1e6 * median(lc.lockstep_round_s), "us");
  out.set("lockstep.deliveries_per_s",
          rate(lc.lockstep_deliveries, tr.durations("lockstep.run")), "1/s");
  out.set("lockstep.deliveries", static_cast<double>(lc.lockstep_deliveries), "count");
  out.set("lockstep.rounds", static_cast<double>(lc.lockstep_rounds), "count");
  out.set("lockstep.fault_drops", static_cast<double>(lc.lockstep_fault_drops), "count");
  out.set("cohort.run_ms", med("cohort.run", 1e3), "ms");
  out.set("cohort.round_us", 1e6 * median(lc.cohort_round_s), "us");
  out.set("cohort.deliveries_per_s",
          rate(lc.cohort_deliveries, tr.durations("cohort.run")), "1/s");
  out.set("cohort.classes_max", static_cast<double>(lc.cohort_classes_max), "count");
  out.set("cohort.splits", static_cast<double>(lc.cohort_splits), "count");
  out.set("cohort.merges", static_cast<double>(lc.cohort_merges), "count");
  out.set("cohort.clones", static_cast<double>(lc.cohort_clones), "count");
  out.set("cohort.members_per_class", median(lc.cohort_members_per_class), "members/class");
  out.set("emul.run_ms", med("emul.run", 1e3), "ms");
  out.set("emul.deliveries_per_s", rate(lc.emul_deliveries, tr.durations("emul.run")), "1/s");
  out.set("emul.ticks", static_cast<double>(lc.emul_ticks), "count");
  out.set("weakset.run_ms", med("weakset.run", 1e3), "ms");
  out.set("register.run_ms", med("register.run", 1e3), "ms");
  out.set("weakset.add_rounds",
          lc.ws_adds ? static_cast<double>(lc.ws_add_rounds) / static_cast<double>(lc.ws_adds) : 0,
          "rounds");
  out.set("weakset.check_us", med("weakset.check", 1e6), "us");
  out.set("register.check_us", med("register.check", 1e6), "us");
  out.set("shm.run_ms", med("shm.run", 1e3), "ms");
  out.set("shm.check_us", med("shm.check", 1e6), "us");
  out.set("svc.boot_ms", med("svc.boot", 1e3), "ms");
  out.set("svc.first_decision_ms", med("svc.first_decision", 1e3), "ms");
  out.set("svc.stop_ms", med("svc.stop", 1e3), "ms");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "consensus-perlink", "cohort-scale", "sec5-stack", "live-mixed"};
  return kNames;
}

RunOutput run_workload(const RunArgs& args) {
  RunOutput out;
  std::size_t emitted = 0;
  auto where = [&](const SimOp& op) {
    return "workload " + args.workload + ", seed " + std::to_string(args.seed) +
           ", operation \"" + op.label + "\": ";
  };

  // Set-up: registry registration, input generation and one untimed
  // warm-up operation.
  anon::ScenarioRegistry::instance();
  const Workload w = make_workload(args.workload, args.seed);
  registry_op(w.round.front().spec_json, &emitted);
  const double setup_s = seconds_between(args.process_start, Clock::now());
  const std::size_t rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(args.seconds / w.round_cost_s)));
  const std::size_t per_round = w.round.size();

  // The timed batch: whole rounds of the same operations.
  std::vector<double> latencies;
  std::vector<ScenarioReport> reports(rounds * per_round);
  std::vector<bool> ok(reports.size(), false);
  const auto batch_start = Clock::now();
  for (std::size_t k = 0; k < rounds; ++k) {
    for (std::size_t i = 0; i < per_round; ++i) {
      const auto s = Clock::now();
      const std::size_t idx = k * per_round + i;
      try {
        reports[idx] = registry_op(w.round[i].spec_json, &emitted);
        ok[idx] = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%sfailed: %s\n", where(w.round[i]).c_str(), e.what());
      }
      latencies.push_back(seconds_between(s, Clock::now()));
    }
  }
  const double run_s = seconds_between(batch_start, Clock::now());
  for (std::size_t i = 0; i < per_round; ++i) {
    std::vector<double> mine;
    for (std::size_t k = 0; k < rounds; ++k) mine.push_back(latencies[k * per_round + i]);
    std::fprintf(stderr, "  %9.3f ms  %s\n", 1e3 * median(mine), w.round[i].label.c_str());
  }
  out.attempted = reports.size();
  for (bool b : ok) out.failed += b ? 0 : 1;

  // Checks on every report, and determinism across rounds.
  std::vector<std::string> canonical(per_round);
  std::vector<bool> ran(per_round, false);
  for (std::size_t idx = 0; idx < reports.size(); ++idx) {
    if (!ok[idx]) continue;
    const SimOp& op = w.round[idx % per_round];
    ran[idx % per_round] = true;
    if (std::string why = check_report(op, reports[idx]); !why.empty())
      out.fail(where(op) + why);
    if (!op.deterministic) continue;
    std::string json = reports[idx].to_json_string(false);
    std::string& first = canonical[idx % per_round];
    if (first.empty()) first = std::move(json);
    else if (json != first) out.fail(where(op) + "report differs between rounds");
  }

  // The decomposed path must agree with the registry path: byte for byte on
  // simulated reports (timing aside), on the verdicts for live ones.
  auto agree = [&](std::size_t i, const ScenarioReport& rep, const char* path) {
    const SimOp& op = w.round[i];
    if (!op.deterministic) {
      if (std::string why = check_report(op, rep); !why.empty())
        out.fail(where(op) + path + " path: " + why);
    } else if (rep.to_json_string(false) != canonical[i]) {
      out.fail(where(op) + path + " path disagrees with the registry path");
    }
  };

  // Verification pass: each distinct operation once through the decomposed
  // path, checked per process.
  for (std::size_t i = 0; i < per_round; ++i) {
    if (!ran[i]) continue;
    Observation obs;
    const ScenarioReport rep = decomposed_op(w.round[i], nullptr, nullptr, &obs, &emitted);
    if (std::string why = check_observation(w.round[i], obs); !why.empty())
      out.fail(where(w.round[i]) + why);
    agree(i, rep, "decomposed");
  }

  if (!args.trace) {
    std::vector<bool> deterministic;
    for (const SimOp& op : w.round) deterministic.push_back(op.deterministic);
    set_end_to_end(out, setup_s, run_s, latencies, deterministic);
    return out;
  }

  // Traced mode: the same batch through the decomposed path twice, each
  // operation once without and then once with spans.  The difference of the
  // two sums is the cost of tracing alone; interleaving them per operation
  // exposes both to the same host conditions.
  Tracer tracer;
  LayerCounters counters;
  double plain_run_s = 0;
  double traced_run_s = 0;
  for (std::size_t k = 0; k < rounds; ++k) {
    for (std::size_t i = 0; i < per_round; ++i) {
      const std::size_t idx = k * per_round + i;
      auto s = Clock::now();
      const ScenarioReport plain = decomposed_op(w.round[i], nullptr, nullptr, nullptr, &emitted);
      plain_run_s += seconds_between(s, Clock::now());
      if (ran[i]) agree(i, plain, "decomposed");
      tracer.set_op(idx);
      s = Clock::now();
      const ScenarioReport rep = decomposed_op(w.round[i], &tracer, &counters, nullptr, &emitted);
      traced_run_s += seconds_between(s, Clock::now());
      if (ran[i]) agree(i, rep, "traced");
    }
  }
  out.attempted += 2 * rounds * per_round;
  set_layer_metrics(out, tracer, counters);
  out.set("trace.overhead_s", traced_run_s - plain_run_s, "s");
  if (args.workload == "live-mixed") run_open_loop_phase(args, tracer, out);

  std::fprintf(stderr, "self time by layer (traced batch, %.3f s):\n", traced_run_s);
  for (const auto& [layer, s] : tracer.self_time_by_layer())
    std::fprintf(stderr, "  %-10s %10.4f s\n", layer.c_str(), s);
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.write_json(path)) std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  std::fprintf(stderr, "emitted %zu report bytes\n", emitted);
  return out;
}

}  // namespace perfbench
