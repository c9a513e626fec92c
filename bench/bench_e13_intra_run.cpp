// E13 — sharded intra-run execution.
//
// The lock-step engine (net/lockstep.hpp) partitions processes into S
// shards (S = 1 at the defaults) and runs each round's end-of-round and
// delivery waves across the shared worker pool, aggregating uniform-delay
// broadcasts into per-payload groups so a naive engine's n² per-link
// calendar entries exist only as counter arithmetic.  Reports are
// byte-identical at every shard/thread count.
//
//   E13.a  adversarial non-collapsing ES run at n = 1e5 (cycle-64
//          proposals, 8 mid-flight crashes): single-threaded 8-shard
//          baseline vs 2/4/8 worker threads on the SAME decomposition,
//          interleaved A/B.  The 1-thread 8-shard engine (the identical
//          wave/merge code, just without workers) is the denominator for
//          thread scaling.
//   E13.b  E12-shaped run (ES, GST=0, 8 proposal values) on the expanded
//          engine at n = 4096: the one-shard default vs 8 shards on one
//          thread and vs 2/4/8 threads, reports verified identical before
//          any timing.
//
// BENCH_E13.json records both ladders plus hardware_threads — on a
// single-core container the thread ratios honestly sit near 1.0 and the
// multi-core CI runners show the real scaling.
#include "bench_common.hpp"

#include <thread>
#include <vector>

#include "algo/runner.hpp"

namespace anon {
namespace {

using bench::run_scenario;

// The E13.a workload: adversarial in the sense that the proposal domain
// (64 values) keeps round-1 payload contents non-collapsing across
// senders, and the mid-flight crashes exercise the exact per-link
// fallback inside otherwise-uniform rounds.
ConsensusConfig e13a_config(std::size_t n, std::size_t engine_threads) {
  ConsensusConfig cfg;
  cfg.env.kind = EnvKind::kES;
  cfg.env.n = n;
  cfg.env.seed = 42;
  cfg.env.stabilization = 0;
  cfg.initial.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    cfg.initial.push_back(Value(100 + static_cast<std::int64_t>(i % 64)));
  cfg.crashes = random_crashes(n, 8, 9, 42 + 7);
  cfg.net.seed = 42;
  cfg.net.record_trace = false;
  cfg.net.record_deliveries = false;
  cfg.net.engine_threads = engine_threads;
  cfg.net.engine_shards = 8;  // fixed decomposition across the ladder
  return cfg;
}

ScenarioSpec e13b_spec(std::size_t n, std::size_t engine_threads) {
  ScenarioSpec spec = bench::preset_spec("e12-cohort");
  spec.name = "";
  spec.n = n;
  spec.consensus.backend = ConsensusBackend::kExpanded;
  spec.consensus.engine_threads = engine_threads;
  spec.consensus.record_trace = false;
  return spec;
}

void print_tables() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<std::size_t> ladder = {2, 4, 8};

  // ---- E13.a: thread scaling at n = 1e5 ------------------------------------
  const std::size_t n_a = bench::smoke() ? 8192 : 100000;
  const int reps_a = bench::smoke() ? 1 : 3;
  double base_s = 0;
  std::vector<double> wall_a(ladder.size(), 0);
  std::uint64_t rounds_a = 0, deliveries_a = 0;
  {
    // Verify once, before any timing: every thread count must reproduce
    // the 1-thread report exactly.
    const ConsensusReport ref =
        run_consensus(ConsensusAlgo::kEs, e13a_config(n_a, 1));
    ANON_CHECK_MSG(ref.all_correct_decided && ref.agreement,
                   "E13.a must decide consensus");
    rounds_a = ref.rounds_executed;
    deliveries_a = ref.deliveries;
    for (std::size_t t : ladder) {
      const ConsensusReport rep =
          run_consensus(ConsensusAlgo::kEs, e13a_config(n_a, t));
      ANON_CHECK_MSG(rep.to_string() == ref.to_string(),
                     "E13.a reports must be identical at every thread count");
    }

    Table t("E13.a  sharded engine thread scaling, adversarial ES n=" +
                Table::num(static_cast<std::uint64_t>(n_a)) +
                " (8 shards, interleaved A/B best-of-" +
                std::to_string(reps_a) + ")",
            {"engine threads", "wall-clock s", "speedup vs 1 thread"});
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      const bench::AbSeconds ab = bench::interleaved_ab_seconds(
          reps_a,
          [&] { run_consensus(ConsensusAlgo::kEs, e13a_config(n_a, 1)); },
          [&] {
            run_consensus(ConsensusAlgo::kEs, e13a_config(n_a, ladder[i]));
          });
      if (i == 0 || ab.a < base_s) base_s = ab.a;
      wall_a[i] = ab.b;
    }
    t.add_row({"1 (baseline)", Table::num(base_s, 3), "1.00x"});
    for (std::size_t i = 0; i < ladder.size(); ++i)
      t.add_row({std::to_string(ladder[i]), Table::num(wall_a[i], 3),
                 Table::ratio(wall_a[i] > 0 ? base_s / wall_a[i] : 0)});
    t.print();
    std::cout << "  (" << Table::num(deliveries_a)
              << " simulated link deliveries in " << Table::num(rounds_a)
              << " rounds; this machine has " << hw
              << " hardware thread(s) — thread ratios only exceed 1.0 on "
                 "multi-core hosts.)\n";
  }

  // ---- E13.b: the one-shard default vs more shards and threads -------------
  const std::size_t n_b = bench::smoke() ? 512 : 4096;
  const int reps_b = 1;
  double one_shard_s = 0, sharded_1t_s = 0;
  std::vector<double> wall_b(ladder.size(), 0);
  {
    ScenarioReport ref;
    one_shard_s = bench::best_seconds(reps_b, [&] {
      ref = run_scenario(e13b_spec(n_b, 1), 1);
    });
    const std::string ref_json = ref.to_json_string(false);
    auto timed_identical = [&](std::size_t threads) {
      ScenarioReport rep;
      const double s = bench::best_seconds(reps_b, [&] {
        rep = run_scenario(e13b_spec(n_b, threads), 1);
      });
      ANON_CHECK_MSG(rep.to_json_string(false) == ref_json,
                     "E13.b sharded report must be byte-identical to the "
                     "one-shard report");
      return s;
    };
    // The spec surface has no shard knob, so the 1-thread 8-shard row
    // drives LockstepOptions directly.
    {
      ScenarioReport rep;
      ConsensusConfig cfg;  // e13b shape, sharded single-thread
      const ScenarioSpec spec = e13b_spec(n_b, 1);
      cfg.env = spec.env_params(spec.seeds[0]);
      cfg.initial = spec.initial_values();
      cfg.net.seed = spec.seeds[0];
      cfg.net.record_trace = false;
      cfg.net.engine_shards = 8;
      ConsensusReport one_shard_rep, sharded_rep;
      sharded_1t_s = bench::best_seconds(reps_b, [&] {
        sharded_rep = run_consensus(ConsensusAlgo::kEs, cfg);
      });
      cfg.net.engine_shards = 0;  // the one-shard default
      one_shard_rep = run_consensus(ConsensusAlgo::kEs, cfg);
      ANON_CHECK_MSG(sharded_rep.to_string() == one_shard_rep.to_string(),
                     "E13.b 8-shard engine must reproduce the one-shard "
                     "report");
    }
    for (std::size_t i = 0; i < ladder.size(); ++i)
      wall_b[i] = timed_identical(ladder[i]);

    Table t("E13.b  one shard vs more shards and threads, E12-shaped ES "
            "run (n=" + Table::num(static_cast<std::uint64_t>(n_b)) + ")",
            {"engine", "wall-clock s", "speedup vs 1 shard"});
    t.add_row({"1 shard, 1 thread (default)", Table::num(one_shard_s, 3),
               "1.00x"});
    t.add_row({"8 shards, 1 thread", Table::num(sharded_1t_s, 3),
               Table::ratio(sharded_1t_s > 0 ? one_shard_s / sharded_1t_s
                                             : 0)});
    for (std::size_t i = 0; i < ladder.size(); ++i)
      t.add_row({std::to_string(ladder[i]) + " shards, " +
                     std::to_string(ladder[i]) + " threads",
                 Table::num(wall_b[i], 3),
                 Table::ratio(wall_b[i] > 0 ? one_shard_s / wall_b[i] : 0)});
    t.print();
  }

  {
    BenchJson j;
    j.set("experiment", std::string("E13"));
    j.set("workload",
          std::string("sharded intra-run execution: adversarial ES thread "
                      "ladder (a) + one-shard-vs-sharded E12 shape (b)"));
    j.set("hardware_threads", static_cast<std::uint64_t>(hw));
    j.set("a_n", static_cast<std::uint64_t>(n_a));
    j.set("a_rounds", rounds_a);
    j.set("a_deliveries", deliveries_a);
    j.set("a_wall_1t_s", base_s);
    j.set("a_wall_2t_s", wall_a[0]);
    j.set("a_wall_4t_s", wall_a[1]);
    j.set("a_wall_8t_s", wall_a[2]);
    j.set("a_speedup_8t", wall_a[2] > 0 ? base_s / wall_a[2] : 0.0);
    j.set("b_n", static_cast<std::uint64_t>(n_b));
    j.set("b_wall_1shard_s", one_shard_s);
    j.set("b_wall_sharded_1t_s", sharded_1t_s);
    j.set("b_wall_sharded_8t_s", wall_b[2]);
    j.set("b_speedup_sharded_1t",
          sharded_1t_s > 0 ? one_shard_s / sharded_1t_s : 0.0);
    j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
    const std::string path = bench::json_path("BENCH_E13.json");
    if (j.write(path))
      std::cout << "  [" << path << " written: a_n=" << n_a
                << " 8t speedup=" << (wall_a[2] > 0 ? base_s / wall_a[2] : 0.0)
                << "x on " << hw << " hw thread(s), b_n=" << n_b
                << " 1shard/8shard=" <<
          (sharded_1t_s > 0 ? one_shard_s / sharded_1t_s : 0.0) << "x]\n";
  }
}

void BM_ShardedEsConsensus(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ConsensusConfig cfg = e13a_config(n, 2);
    cfg.env.seed = seed;
    cfg.net.seed = seed++;
    const ConsensusReport rep = run_consensus(ConsensusAlgo::kEs, cfg);
    benchmark::DoNotOptimize(rep);
    state.counters["rounds"] = static_cast<double>(rep.last_decision_round);
  }
}
BENCHMARK(BM_ShardedEsConsensus)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)
