// Simulated linearizable (atomic) shared-memory registers with an
// adversarial step scheduler.
//
// Propositions 2 and 3 implement weak-sets FROM registers; to exercise
// their constructions under genuine concurrency we model each operation as
// a small state machine whose steps are single atomic register accesses,
// and let a seeded adversary interleave the steps of concurrent operations
// arbitrarily.  The global step counter doubles as the virtual clock for
// specification checking.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/inplace_function.hpp"
#include "common/rng.hpp"

namespace anon {

// An array of atomic registers holding Cell values.  Every read/write is
// one indivisible scheduler step (that is what "atomic register" means).
template <typename Cell>
class SharedMemory {
 public:
  SharedMemory(std::size_t count, Cell initial)
      : cells_(count, initial) {}

  // Returns by value: a register read is a copy-out (and std::vector<bool>
  // has no stable element references anyway).
  Cell read(std::size_t i) const {
    ANON_CHECK(i < cells_.size());
    return cells_[i];
  }
  // Copy-free read access for container-valued cells (the Prop-2 snapshot
  // path): the caller merges straight out of the register storage.
  // Rejected at compile time for Cell = bool: std::vector<bool>'s const
  // operator[] yields a temporary, so view() would return a dangling
  // reference — the Prop-3 path uses read(), cheaper for bool anyway.
  const Cell& view(std::size_t i) const {
    static_assert(!std::is_same_v<Cell, bool>,
                  "vector<bool> cells have no stable element references; "
                  "use read()");
    ANON_CHECK(i < cells_.size());
    return cells_[i];
  }
  void write(std::size_t i, Cell v) {
    ANON_CHECK(i < cells_.size());
    cells_[i] = std::move(v);
  }
  // Copy-assigning write: reuses the cell's existing capacity (for
  // ValueSet cells the steady-state write allocates nothing).
  void write_from(std::size_t i, const Cell& v) {
    ANON_CHECK(i < cells_.size());
    cells_[i] = v;
  }
  std::size_t size() const { return cells_.size(); }

 private:
  std::vector<Cell> cells_;
};

// One in-flight operation: step() performs one register access and returns
// true when the operation has completed.
class StepOp {
 public:
  virtual ~StepOp() = default;
  virtual bool step() = 0;
};

// Interleaves in-flight operations: each scheduler tick picks one pending
// op (seeded-uniformly) and executes one of its steps.  Ops can be
// injected at chosen ticks; completion times are reported to the caller.
//
// The pick is the rng_.below(count)-th runnable op in injection order.
// Runnable ops sit in a Fenwick tree over op indices and not-yet-started
// ops in a min-heap on start tick, so a tick costs O(log ops) however many
// ops have finished, and idle ticks (nothing runnable) are skipped in one
// jump to the next start tick.
class StepScheduler {
 public:
  explicit StepScheduler(std::uint64_t seed) : rng_(seed) {}

  // Completion callbacks are small inline closures (a records pointer, an
  // index, an output slot) — stored inline, no per-op allocation.
  using DoneFn = InplaceFunction<void(std::uint64_t end_tick), 40>;

  // Registers an op to start at `start_tick` (ticks count executed steps).
  void inject(std::uint64_t start_tick, std::unique_ptr<StepOp> op,
              DoneFn done);

  // Runs until all injected ops completed; returns ticks executed.
  std::uint64_t run();

  std::uint64_t now() const { return tick_; }

 private:
  struct Pending {
    std::unique_ptr<StepOp> op;
    DoneFn done;
    bool started = false;
  };
  using Start = std::pair<std::uint64_t, std::size_t>;  // (tick, op index)

  void mark_runnable(std::size_t i, bool on);
  std::size_t select_runnable(std::uint64_t j) const;

  Rng rng_;
  std::uint64_t tick_ = 0;
  std::vector<Pending> ops_;
  std::vector<Start> starts_;  // min-heap of the ops not yet started
  // Fenwick tree (1-based, power-of-two size) of runnable flags.
  std::vector<std::uint32_t> tree_;
  std::size_t runnable_ = 0;
};

}  // namespace anon
