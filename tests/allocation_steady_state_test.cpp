// Allocation-counter proof that the round engines stopped allocating in
// steady state (PR 8's arena + scratch-recycling work).
//
// Workload: ES consensus under synchronous delays with kContinueForever —
// after the decision round every process re-broadcasts its frozen {VAL}
// message, so round content repeats forever.  In that steady state a round
// must perform ZERO heap allocations on both engines, at the one-shard
// default and at 4 threads × 4 shards:
//   * LockstepNet  (pregroup/group pools, arena barrier scratch, recycled
//                   calendar slots, [this]-only wave captures),
//   * CohortNet    (per-shard interners with generation reuse, own-cache
//                   hits, arena digest buckets).
// The measurement window is placed between BatchInterner compaction
// generations (every 64 round_resets) so the counter sees only the round
// path itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "algo/es_consensus.hpp"
#include "emul/echo.hpp"
#include "emul/ms_emulation_cohort.hpp"
#include "env/faults.hpp"
#include "env/generate.hpp"
#include "net/cohort.hpp"
#include "net/lockstep.hpp"
#include "net/schedule.hpp"

// Binary-global allocation counter (this test binary only).  GCC's
// -Wmismatched-new-delete sees the malloc inside the counting operator new
// paired with inlined deletes and mis-fires; the pairing is intentional
// (delete frees with std::free below).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace anon {
namespace {

// 66 warm-up rounds cross the interners' gen-64 compaction and wrap every
// calendar ring slot the measured rounds will touch; 30 measured rounds
// stay clear of the next compaction at gen 128.
constexpr Round kWarmup = 66;
constexpr Round kMeasure = 30;
constexpr std::size_t kN = 32;

// Three proposal values (≤ the FlatSet inline capacity of 4): the messages
// themselves never heap-allocate, so the counter isolates the engines.
std::vector<Value> initial_values() {
  std::vector<Value> init;
  init.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i)
    init.push_back(Value(100 + static_cast<std::int64_t>(i % 3)));
  return init;
}

template <typename Net>
std::size_t measure_steady_rounds(Net& net) {
  net.run_rounds(kWarmup);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  net.run_rounds(kMeasure);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

LockstepOptions lockstep_options(std::size_t engine_threads,
                                 std::size_t engine_shards) {
  LockstepOptions opt;
  opt.seed = 42;
  opt.record_trace = false;
  opt.record_deliveries = false;
  opt.halt_policy = HaltPolicy::kContinueForever;
  opt.engine_threads = engine_threads;
  opt.engine_shards = engine_shards;
  return opt;
}

std::size_t lockstep_steady_allocations(std::size_t engine_threads,
                                        std::size_t engine_shards) {
  std::vector<std::unique_ptr<Automaton<EsMessage>>> autos;
  for (const Value& v : initial_values())
    autos.push_back(std::make_unique<EsConsensus>(v));
  const SynchronousDelays delays;
  LockstepNet<EsMessage> net(std::move(autos), delays, CrashPlan{},
                             lockstep_options(engine_threads, engine_shards));
  const std::size_t allocs = measure_steady_rounds(net);
  EXPECT_TRUE(net.all_correct_decided()) << "run must converge in warm-up";
  return allocs;
}

std::size_t cohort_steady_allocations(std::size_t engine_threads) {
  CohortOptions opt;
  opt.seed = 42;
  opt.halt_policy = HaltPolicy::kContinueForever;
  opt.engine_threads = engine_threads;
  const SynchronousDelays delays;
  auto groups = groups_by_initial_value<EsMessage>(
      initial_values(),
      [](const Value& v) { return std::make_unique<EsConsensus>(v); });
  CohortNet<EsMessage> net(std::move(groups), delays, CrashPlan{}, opt);
  const std::size_t allocs = measure_steady_rounds(net);
  EXPECT_TRUE(net.all_correct_decided()) << "run must converge in warm-up";
  return allocs;
}

TEST(AllocationSteadyState, OneShardLockstepRoundsAreAllocationFree) {
  EXPECT_EQ(lockstep_steady_allocations(1, 0), 0u)
      << "one-shard LockstepNet allocated on the steady-state round path";
}

TEST(AllocationSteadyState, ShardedLockstepRoundsAreAllocationFree) {
  EXPECT_EQ(lockstep_steady_allocations(4, 4), 0u)
      << "sharded LockstepNet allocated on the steady-state round path";
}

TEST(AllocationSteadyState, OneShardCohortRoundsAreAllocationFree) {
  EXPECT_EQ(cohort_steady_allocations(1), 0u)
      << "one-shard CohortNet allocated on the steady-state round path";
}

TEST(AllocationSteadyState, ShardedCohortRoundsAreAllocationFree) {
  EXPECT_EQ(cohort_steady_allocations(4), 0u)
      << "sharded CohortNet allocated on the steady-state round path";
}

// The cohort-collapsed emulation cannot be allocation-free — every emulated
// round interns fresh elements and grows the visible log — but its round
// cost must track the CLASS count, not n.  With identical echo seeds the
// whole run is one class, so the per-window allocation count at n = 256
// must stay at the n = 32 level (the expanded engine walks all n processes
// and its Θ(r·n²) trace dwarfs this).
std::size_t emulation_cohort_window_allocations(std::size_t n,
                                                std::size_t engine_threads) {
  std::vector<MsEmulationCohort<ValueSet>::InitGroup> groups(1);
  groups[0].automaton = std::make_unique<EchoAutomaton>(7);
  for (ProcId p = 0; p < n; ++p) groups[0].members.push_back(p);
  MsEmulationCohortOptions copt;
  copt.base.seed = 42;
  copt.base.min_add_latency = 2;
  copt.base.max_add_latency = 2;  // deterministic: no latency-draw splits
  copt.engine_threads = engine_threads;
  MsEmulationCohort<ValueSet> emu(std::move(groups), copt);
  EXPECT_TRUE(emu.run_until_round(kWarmup));
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(emu.run_until_round(kWarmup + kMeasure));
  const std::size_t allocs =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(emu.class_count(), 1u) << "identical probes must stay one class";
  return allocs;
}

TEST(AllocationSteadyState, EmulationCohortRoundsAreClassBoundNotNBound) {
  const std::size_t small = emulation_cohort_window_allocations(32, 1);
  const std::size_t large = emulation_cohort_window_allocations(256, 1);
  // One class either way: the window's allocation count must not scale
  // with n (slack covers amortized vector doublings crossing the window).
  EXPECT_LE(large, small + small / 2 + 64)
      << "n=32 window: " << small << ", n=256 window: " << large;
  // And the absolute level stays modest: a handful per emulated round
  // (element interning + log growth), not hundreds.
  EXPECT_LE(small, static_cast<std::size_t>(kMeasure) * 32)
      << "n=32 window allocated " << small << " times";
}

TEST(AllocationSteadyState, ShardedEmulationCohortMatchesSerialAllocations) {
  const std::size_t serial = emulation_cohort_window_allocations(64, 1);
  const std::size_t sharded = emulation_cohort_window_allocations(64, 4);
  EXPECT_LE(sharded, serial + serial / 2 + 64)
      << "serial window: " << serial << ", sharded window: " << sharded;
}

// Per-link model queries: the engines call DelayModel::delay and
// FaultPlan::fate (which asks planned_source for the exemption) once per
// link, so none of them may allocate — in a pre-GST ES run with crashes
// and a fault plan, where every link takes the query path.
class AllocationCheckedDelays final : public DelayModel {
 public:
  explicit AllocationCheckedDelays(const DelayModel& inner) : inner_(inner) {}
  Round delay(Round k, ProcId sender, ProcId receiver) const override {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const Round d = inner_.delay(k, sender, receiver);
    allocations_ += g_allocations.load(std::memory_order_relaxed) - before;
    ++queries_;
    return d;
  }
  std::optional<ProcId> planned_source(Round k) const override {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const std::optional<ProcId> s = inner_.planned_source(k);
    allocations_ += g_allocations.load(std::memory_order_relaxed) - before;
    ++queries_;
    return s;
  }
  std::size_t allocations() const { return allocations_; }
  std::size_t queries() const { return queries_; }

 private:
  const DelayModel& inner_;
  mutable std::size_t allocations_ = 0;
  mutable std::size_t queries_ = 0;
};

TEST(AllocationSteadyState, PerLinkDelayAndFaultQueriesAreAllocationFree) {
  EnvParams env;
  env.kind = EnvKind::kES;
  env.n = kN;
  env.seed = 9;
  env.stabilization = 1000;  // every measured round is before GST
  CrashPlan crashes;
  crashes.crash_at(3, 2);
  crashes.crash_at(17, 5);
  crashes.crash_at(29, 9);
  const EnvDelayModel env_delays(env, crashes);
  const AllocationCheckedDelays delays(env_delays);
  FaultParams fp;
  fp.loss_prob = 0.1;
  fp.dup_prob = 0.05;
  fp.reorder_prob = 0.1;
  fp.omission_senders = {3};
  fp.churn = {ChurnSpec{5, 4, 12}, ChurnSpec{11, 2, 0}};
  const FaultPlan faults(fp, env.seed, env.n, &delays);

  // The queries on their own, link by link.
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::uint64_t drops = 0;
  for (Round k = 1; k <= 20; ++k)
    for (ProcId p = 0; p < kN; ++p)
      for (ProcId q = 0; q < kN; ++q) {
        if (q == p) continue;
        (void)env_delays.delay(k, p, q);
        drops += faults.fate(k, p, q).deliver ? 0 : 1;
      }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "delay/fate/planned_source allocated";
  EXPECT_GT(drops, 0u) << "the fault plan must actually fire";

  // The same queries as LockstepNet issues them in a run.
  std::vector<std::unique_ptr<Automaton<EsMessage>>> autos;
  for (const Value& v : initial_values())
    autos.push_back(std::make_unique<EsConsensus>(v));
  LockstepOptions opt = lockstep_options(1, 0);
  opt.faults = &faults;
  LockstepNet<EsMessage> net(std::move(autos), delays, crashes, opt);
  net.run_rounds(20);
  EXPECT_GT(net.fault_drops(), 0u);
  EXPECT_GE(delays.queries(), 20u * kN);
  EXPECT_EQ(delays.allocations(), 0u)
      << "a per-link model query allocated inside the engine";
}

}  // namespace
}  // namespace anon
