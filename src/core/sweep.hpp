// Sharded parallel experiment runner (see DESIGN.md, "core layer").
//
// Every bench/experiment in this repo is a grid of independent simulations
// — (seed × config) cells — whose per-cell work is a pure function of its
// inputs (all simulations are seeded and allocate their own nets, arenas
// and RNGs).  `parallel_sweep` shards such a grid across the shared
// `WorkerPool` with an atomic cursor and writes each result into its own
// index, so the returned vector is identical for any thread count or OS
// schedule: aggregation stays deterministic while the wall clock drops
// with cores.  Threads are pooled, not spawned per sweep, and a sweep
// issued from inside another pool job (a sweep cell that itself shards its
// run, or a nested sweep) runs inline — no oversubscription.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/worker_pool.hpp"

namespace anon {

struct SweepOptions {
  std::size_t threads = 0;           // 0 = one per hardware thread
  std::size_t min_items_per_thread = 1;  // don't over-shard tiny grids
};

// Resolved worker count: `requested`, or the hardware concurrency when
// `requested` is 0 (at least 1 either way).
std::size_t resolve_sweep_threads(std::size_t requested);

// A round engine's {pool participants, shard count}: `engine_threads`
// resolved as above, and `engine_shards` (0 = one shard per participant)
// clamped to [1, n].
inline std::pair<std::size_t, std::size_t> resolve_engine_shards(
    std::size_t engine_threads, std::size_t engine_shards, std::size_t n) {
  const std::size_t p = resolve_sweep_threads(engine_threads);
  return {p, std::clamp<std::size_t>(engine_shards ? engine_shards : p, 1, n)};
}

// Runs fn(i) for every i in [0, count) and returns the results indexed by
// i.  `fn` must be thread-safe across distinct indices; results must be
// default-constructible (they are written into a presized vector).  The
// first exception thrown by any cell aborts the remaining work and is
// rethrown on the calling thread.
template <typename Fn>
auto parallel_sweep(std::size_t count, Fn&& fn, SweepOptions opt = {})
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  using R = std::decay_t<decltype(fn(std::size_t{0}))>;
  static_assert(std::is_default_constructible_v<R>,
                "sweep results are written into a presized vector");
  static_assert(!std::is_same_v<R, bool>,
                "std::vector<bool> bit-packs elements: concurrent writes "
                "would race — return an int/char instead");
  std::vector<R> results(count);
  if (count == 0) return results;

  const std::size_t per_thread =
      opt.min_items_per_thread == 0 ? 1 : opt.min_items_per_thread;
  std::size_t threads = resolve_sweep_threads(opt.threads);
  threads = std::min(threads, (count + per_thread - 1) / per_thread);

  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }

  WorkerPool::shared().parallel_for(
      count, [&](std::size_t i) { results[i] = fn(i); }, threads);
  return results;
}

}  // namespace anon
