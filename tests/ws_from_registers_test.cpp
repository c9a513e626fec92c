// Propositions 2 and 3 — weak-sets FROM registers, under adversarial
// interleavings of atomic register steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "shm/register_sim.hpp"

#include "weakset/ws_from_mwmr.hpp"
#include "weakset/ws_from_swmr.hpp"

namespace anon {
namespace {

// ---------- Proposition 2: SWMR registers, known process set ----------

class SwmrSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwmrSweep, SpecHoldsUnderConcurrency) {
  const std::size_t n = 4;
  std::vector<ShmWsScriptOp> script;
  // Dense overlapping workload: adds and gets interleave heavily.
  for (std::uint64_t i = 0; i < 20; ++i) {
    script.push_back({i * 3, static_cast<std::size_t>(i % n), true,
                      Value(static_cast<std::int64_t>(i))});
    script.push_back({i * 3 + 1, static_cast<std::size_t>((i + 1) % n), false,
                      Value()});
  }
  auto records = run_ws_from_swmr(n, script, GetParam());
  auto check = check_weak_set_spec(records);
  EXPECT_TRUE(check.ok) << check.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwmrSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(WsFromSwmr, SequentialAddThenGet) {
  std::vector<ShmWsScriptOp> script{
      {0, 0, true, Value(42)},
      {100, 1, false, Value()},
  };
  auto records = run_ws_from_swmr(3, script, 7);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].result, ValueSet{Value(42)});
}

TEST(WsFromSwmr, GetUnionsAllWriters) {
  std::vector<ShmWsScriptOp> script{
      {0, 0, true, Value(1)},
      {1, 1, true, Value(2)},
      {2, 2, true, Value(3)},
      {100, 0, false, Value()},
  };
  auto records = run_ws_from_swmr(3, script, 11);
  EXPECT_EQ(records[3].result, (ValueSet{Value(1), Value(2), Value(3)}));
}

TEST(WsFromSwmr, ReAddingSameValueIsIdempotent) {
  std::vector<ShmWsScriptOp> script{
      {0, 0, true, Value(5)},
      {10, 1, true, Value(5)},
      {100, 2, false, Value()},
  };
  auto records = run_ws_from_swmr(3, script, 3);
  EXPECT_EQ(records[2].result, ValueSet{Value(5)});
}

// ---------- Proposition 3: MWMR registers, finite domain ----------

std::vector<Value> domain10() {
  std::vector<Value> d;
  for (int i = 0; i < 10; ++i) d.push_back(Value(i));
  return d;
}

class MwmrSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MwmrSweep, SpecHoldsUnderConcurrency) {
  std::vector<MwmrWsScriptOp> script;
  for (std::uint64_t i = 0; i < 25; ++i) {
    script.push_back({i * 2, i % 7, true, Value(static_cast<std::int64_t>(i % 10))});
    script.push_back({i * 2 + 1, (i + 3) % 7, false, Value()});
  }
  auto records = run_ws_from_mwmr(domain10(), script, GetParam());
  auto check = check_weak_set_spec(records);
  EXPECT_TRUE(check.ok) << check.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwmrSweep,
                         ::testing::Values(4, 9, 16, 25, 36, 49));

TEST(WsFromMwmr, AnonymousConcurrentAddsOfSameValue) {
  // Two anonymous processes adding the same value concurrently write the
  // same constant: indistinguishable and harmless.
  std::vector<MwmrWsScriptOp> script{
      {0, 0, true, Value(3)},
      {0, 1, true, Value(3)},
      {50, 2, false, Value()},
  };
  auto records = run_ws_from_mwmr(domain10(), script, 1);
  EXPECT_EQ(records[2].result, ValueSet{Value(3)});
}

TEST(WsFromMwmr, RejectsValueOutsideDomain) {
  WsFromMwmr ws(domain10());
  EXPECT_THROW(ws.make_add(Value(999)), CheckFailure);
}

TEST(WsFromMwmr, EmptyGetOnFreshSet) {
  std::vector<MwmrWsScriptOp> script{{0, 0, false, Value()}};
  auto records = run_ws_from_mwmr(domain10(), script, 2);
  EXPECT_TRUE(records[0].result.empty());
}

// ---------- StepScheduler determinism ----------

TEST(StepScheduler, SameSeedSameSchedule) {
  auto run_once = [](std::uint64_t seed) {
    std::vector<ShmWsScriptOp> script;
    for (std::uint64_t i = 0; i < 12; ++i) {
      script.push_back({i, i % 3, true, Value(static_cast<std::int64_t>(i))});
      script.push_back({i + 1, (i + 1) % 3, false, Value()});
    }
    return run_ws_from_swmr(3, script, seed);
  };
  auto a = run_once(99);
  auto b = run_once(99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].result, b[i].result);
  }
}

// ---------- StepScheduler against the linear-scan scheduler ----------

// The straightforward scheduler, kept as the oracle: every tick collects
// the runnable ops (started, not finished) in injection order and picks
// the rng.below(count)-th; a tick with nothing runnable just passes.
class LinearScanScheduler {
 public:
  explicit LinearScanScheduler(std::uint64_t seed) : rng_(seed) {}

  void inject(std::uint64_t start_tick, std::unique_ptr<StepOp> op,
              std::function<void(std::uint64_t)> done) {
    ops_.push_back({start_tick, std::move(op), std::move(done)});
  }

  std::uint64_t run() {
    for (;;) {
      std::vector<std::size_t> runnable;
      bool any_future = false;
      for (std::size_t i = 0; i < ops_.size(); ++i) {
        if (!ops_[i].op) continue;
        if (ops_[i].start_tick > tick_) {
          any_future = true;
          continue;
        }
        runnable.push_back(i);
      }
      if (runnable.empty()) {
        if (!any_future) return tick_;
        ++tick_;
        continue;
      }
      const std::size_t pick = runnable[rng_.below(runnable.size())];
      ++tick_;
      if (ops_[pick].op->step()) {
        auto done = std::move(ops_[pick].done);
        ops_[pick].op.reset();
        if (done) done(tick_);
      }
    }
  }

 private:
  struct Op {
    std::uint64_t start_tick;
    std::unique_ptr<StepOp> op;
    std::function<void(std::uint64_t)> done;
  };
  Rng rng_;
  std::uint64_t tick_ = 0;
  std::vector<Op> ops_;
};

// An op that completes after a fixed number of steps.
class CountdownOp final : public StepOp {
 public:
  explicit CountdownOp(std::uint64_t steps) : left_(steps) {}
  bool step() override { return --left_ == 0; }

 private:
  std::uint64_t left_;
};

struct ScriptedOp {
  std::uint64_t start;
  std::uint64_t steps;
  // Injected by the completion of op `parent` (start is then an offset
  // from 4 ticks before that end tick), or up front (kUpFront).
  std::size_t parent;
};

constexpr std::size_t kUpFront = static_cast<std::size_t>(-1);

// Random scripts: out-of-order start ticks, idle gaps far past the busy
// stretch, and follow-up ops injected from completion callbacks.
std::vector<ScriptedOp> random_script(Rng& rng) {
  std::vector<ScriptedOp> ops;
  const std::size_t count = 1 + rng.below(90);
  for (std::size_t i = 0; i < count; ++i) {
    ScriptedOp op;
    op.steps = 1 + rng.below(6);
    op.parent = i > 0 && rng.below(5) == 0 ? rng.below(i) : kUpFront;
    // A parent's follow-up starts up to 4 ticks before or after its end.
    op.start = op.parent != kUpFront ? rng.below(9)
               : rng.below(4) == 0   ? 200 + rng.below(400)
                                     : rng.below(120);
    ops.push_back(op);
  }
  return ops;
}

template <typename Sched, typename Done>
std::vector<std::uint64_t> run_script(const std::vector<ScriptedOp>& script,
                                      std::uint64_t seed,
                                      std::uint64_t* ticks) {
  Sched sched(seed);
  std::vector<std::uint64_t> end(script.size(), 0);
  struct Ctx {
    Sched* sched;
    const std::vector<ScriptedOp>* script;
    std::vector<std::uint64_t>* end;
    void finish(std::size_t i, std::uint64_t tick) {
      (*end)[i] = tick;
      for (std::size_t c = 0; c < script->size(); ++c)
        if ((*script)[c].parent == i)
          start(c, tick + (*script)[c].start - std::min<std::uint64_t>(tick, 4));
    }
    void start(std::size_t i, std::uint64_t at) {
      sched->inject(at, std::make_unique<CountdownOp>((*script)[i].steps),
                    Done([this, i](std::uint64_t t) { finish(i, t); }));
    }
  } ctx{&sched, &script, &end};
  for (std::size_t i = 0; i < script.size(); ++i)
    if (script[i].parent == kUpFront) ctx.start(i, script[i].start);
  *ticks = sched.run();
  return end;
}

TEST(StepScheduler, MatchesLinearScanScheduler) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<ScriptedOp> script = random_script(rng);
    const std::uint64_t seed = rng.next_u64();
    std::uint64_t want_ticks = 0;
    std::uint64_t got_ticks = 0;
    const auto want =
        run_script<LinearScanScheduler, std::function<void(std::uint64_t)>>(
            script, seed, &want_ticks);
    const auto got = run_script<StepScheduler, StepScheduler::DoneFn>(
        script, seed, &got_ticks);
    ASSERT_EQ(got, want) << "trial " << trial;
    ASSERT_EQ(got_ticks, want_ticks) << "trial " << trial;
  }
}

}  // namespace
}  // namespace anon
