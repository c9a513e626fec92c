// Cohort-collapsed Algorithm 5: the MS-from-weak-set emulation executed
// over state-equivalence classes instead of processes.
//
// `MsEmulation` (the expanded engine) keeps one GirafProcess per process
// and walks every process at every completion tick — Θ(n) automaton steps
// and Θ(n · fresh) deliveries per round.  But anonymous processes running
// the same automaton from the same start are INDISTINGUISHABLE until the
// adversary treats them differently, and in the emulation the only
// adversarial knob is the per-add latency draw.  This engine keeps one
// representative per class of equivalent processes, where equivalence is
//
//   (rep process state, DELIVERED watermark, add-completion tick,
//    in-flight element),
//
// i.e. identical past AND identical scheduled future.  Everything a class's
// members would all do identically — receive the fresh log suffix, run
// end-of-round, intern the next element — happens once per class.
//
// What CANNOT collapse is the RNG stream: the expanded engine draws two
// values per process per round (latency, early-visibility time) from one
// sequential generator, and every report field depends on those draws.  So
// the per-member draw loop survives, replayed in the exact expanded order
// (globally ascending process id across the tick's completing classes).
// The collapse win is everything else: automaton steps, inbox merges,
// interning, and the Θ(n · fresh · |adders|) delivery accounting, which
// becomes one multiplicity-weighted count per (class, fresh element):
//
//   deliveries += m·|adders(e)| − |members ∩ adders(e)|
//
// Corner: a trigger in THIS tick can intern an element that is already in
// the visible log (a lagging class catches up to content a faster class
// already published), growing `adders` mid-phase where the expanded engine
// interleaves counting and insertion by process id.  The engine detects
// the corner exactly (any freshly produced element with in_log set) and
// falls back to the expanded per-member order for that tick.
//
// Equivalence notes (why reports are byte-identical, tested in
// tests/emulation_cohort_test.cpp):
//  * The visible log's ORDER is unobservable: watermarks are only taken at
//    post-append points (so every suffix is compared as a set), and each
//    delivery step sorts its suffix canonically by (round, batch content).
//    Hence the event-driven loop may batch make_visible calls.
//  * Ticks with no completions are no-ops in the expanded engine, so the
//    loop jumps straight to the next completion tick; `ran` keeps the
//    expanded boundary semantics exactly (a run whose last completion
//    lands on tick max_ticks − 1 still returns false, because the
//    expanded loop exits before re-checking the goal).
//  * Element ids are allocated in first-producer order in both engines
//    (class lists are kept sorted by smallest member), and ids never leak
//    into any report.
//
// The per-round cost is O(draws n + C·fresh·(m̄ + ā)) against the expanded
// engine's O(n·fresh·ā) delivery walk and Θ(n²)-growing trace (this engine
// records no trace, which is also why ms-certification requires the
// expanded engine — spec validation enforces certify=false here).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/partition.hpp"
#include "core/sweep.hpp"
#include "core/worker_pool.hpp"
#include "emul/emul_faults.hpp"
#include "emul/ms_emulation.hpp"
#include "giraf/process.hpp"

namespace anon {

// How well the run collapsed (tests, benches, `anonsim` output).
struct EmulCohortStats {
  std::size_t classes = 0;      // current number of equivalence classes
  std::size_t max_classes = 0;  // peak over the run
  std::uint64_t splits = 0;     // latency-draw partitions + injected ops
  std::uint64_t merges = 0;     // classes re-collapsed after converging
  std::uint64_t clones = 0;     // representative deep copies made
  std::uint64_t corner_ticks = 0;  // ticks on the exact per-member fallback
};

struct MsEmulationCohortOptions {
  MsEmulationOptions base;
  // Worker-pool participants for the digest / delivery-count passes
  // (1 = serial reference; 0 = one per hardware thread) and the class
  // shard count (0 = one per participant).  Reports are byte-identical at
  // any value: the parallel passes only write index-owned slots and fold
  // serially in index order.
  std::size_t engine_threads = 1;
  std::size_t engine_shards = 0;
};

template <GirafMessage M>
class MsEmulationCohort {
 public:
  // One initial equivalence class: processes starting the same automaton
  // in the same state.  Member sets must partition [0, n).
  struct InitGroup {
    std::unique_ptr<Automaton<M>> automaton;
    std::vector<ProcId> members;
  };

  MsEmulationCohort(std::vector<InitGroup> groups,
                    MsEmulationCohortOptions copt)
      : opt_(copt.base), rng_(opt_.seed) {
    ANON_CHECK(!groups.empty());
    for (const InitGroup& g : groups) n_ += g.members.size();
    ANON_CHECK(n_ > 0);
    if (opt_.skew.empty()) opt_.skew.assign(n_, 1);
    ANON_CHECK(opt_.skew.size() == n_);
    std::tie(participants_, shard_count_) =
        resolve_engine_shards(copt.engine_threads, copt.engine_shards, n_);
    constexpr std::uint32_t kUnassigned = ~std::uint32_t{0};
    class_of_.assign(n_, kUnassigned);
    for (InitGroup& g : groups) {
      ANON_CHECK(!g.members.empty());
      auto c = std::make_unique<Klass>();
      c->rep = std::make_unique<GirafProcess<M>>(std::move(g.automaton));
      c->members = std::move(g.members);
      std::sort(c->members.begin(), c->members.end());
      for (ProcId p : c->members) {
        ANON_CHECK_MSG(p < n_ && class_of_[p] == kUnassigned,
                       "InitGroup members must partition [0, n)");
        class_of_[p] = 0;  // provisional; sort_and_reindex assigns real ones
      }
      classes_.push_back(std::move(c));
    }
    sort_and_reindex();
    stats_.classes = stats_.max_classes = classes_.size();
    // Expanded ctor: trigger the first end-of-round + round-1 add for every
    // process, ids ascending, at tick 1.  Here: every class completes "now".
    completing_.resize(classes_.size());
    for (std::size_t ci = 0; ci < classes_.size(); ++ci) completing_[ci] = ci;
    trigger_classes();
    split_completed();
    merge_converged();
  }

  // Pre-run (or between-run) per-process state injection: splits p into its
  // own class if needed and applies `fn` to that class's automaton.  The
  // emulation-family runner uses this for weakset-inner `start_add`s — the
  // expanded engine's "mutate process(p).automaton()" has no per-process
  // object to poke here.
  template <typename Fn>
  void mutate_member(ProcId p, Fn&& fn) {
    ANON_CHECK(p < n_);
    Klass& c = *classes_[class_of_[p]];
    if (c.members.size() == 1) {
      fn(c.rep->automaton());
      return;
    }
    ++stats_.splits;
    auto split = std::make_unique<Klass>();
    split->rep = c.rep->clone();
    ++stats_.clones;
    split->members = {p};
    split->add_complete_tick = c.add_complete_tick;
    split->in_flight = c.in_flight;
    split->watermark = c.watermark;
    c.members.erase(std::find(c.members.begin(), c.members.end(), p));
    fn(split->rep->automaton());
    classes_.push_back(std::move(split));
    sort_and_reindex();
    stats_.classes = classes_.size();
    stats_.max_classes = std::max(stats_.max_classes, stats_.classes);
  }

  // Runs until every process has completed `rounds` rounds; false if
  // max_ticks elapsed first.  Same boundary semantics as
  // MsEmulation::run_until_round (see the class comment).
  bool run_until_round(Round rounds) {
    for (;;) {
      if (tick_ >= opt_.max_ticks) return finish_false();
      bool all_done = true;
      for (const auto& c : classes_)
        if (c->rep->round() < rounds + 1) {
          all_done = false;
          break;
        }
      if (all_done) return true;
      std::uint64_t next = EmulFaultModel::kNeverCompletes;
      for (const auto& c : classes_)
        next = std::min(next, c->add_complete_tick);
      if (next >= opt_.max_ticks) {
        tick_ = opt_.max_ticks;
        return finish_false();
      }
      tick_ = next;
      process_tick();
      ++tick_;
    }
  }

  std::size_t n() const { return n_; }
  Round round(ProcId p) const {
    return classes_[class_of_[p]]->rep->round();
  }
  const GirafProcess<M>& representative(ProcId p) const {
    return *classes_[class_of_[p]]->rep;
  }
  std::size_t class_count() const { return classes_.size(); }
  const EmulCohortStats& stats() const { return stats_; }

  // Expanded-report equivalents (no Trace is kept; see the class comment).
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t last_eor_tick() const { return last_eor_tick_; }

  // Content of the emulating weak-set, comparable to MsEmulation's.
  std::size_t weak_set_size() const { return visible_log_.size(); }
  std::size_t interned_elements() const { return elems_.size(); }

 private:
  using ElemId = std::uint32_t;

  struct ElemData {
    Round round = 0;
    SharedBatch<M> batch;
    std::vector<ProcId> adders;  // sorted; simulator-side provenance
    bool in_log = false;
  };

  struct Klass {
    std::unique_ptr<GirafProcess<M>> rep;
    std::vector<ProcId> members;  // sorted ascending
    // Every member shares one completion tick — differing draws split the
    // class at trigger time, so this is a class invariant, not an average.
    std::uint64_t add_complete_tick = 0;
    ElemId in_flight = 0;
    std::size_t watermark = 0;  // DELIVERED ≡ visible_log_[0..watermark)
    // Per-tick trigger scratch.
    ElemId new_elem = 0;
    Round new_round = 0;
    std::size_t fresh_begin = 0;
  };

  struct PendingVis {
    std::uint64_t time;
    ElemId id;
  };
  struct PendingLater {
    bool operator()(const PendingVis& a, const PendingVis& b) const {
      return a.time > b.time;
    }
  };

  struct RoundBatchKey {
    Round round;
    const MessageBatch<M>* batch;
    friend bool operator==(const RoundBatchKey&, const RoundBatchKey&) =
        default;
  };
  struct RoundBatchHash {
    std::size_t operator()(const RoundBatchKey& k) const {
      return static_cast<std::size_t>(detail::mix_digest(
          k.round, reinterpret_cast<std::uintptr_t>(k.batch)));
    }
  };

  bool finish_false() {
    // The expanded loop ran make_visible at every tick up to max_ticks − 1
    // before giving up; replay the net effect so weak_set_size matches.
    if (opt_.max_ticks > 0) make_visible(opt_.max_ticks - 1);
    return false;
  }

  ElemId intern(Round round, const InboxView<M>& view) {
    SharedBatch<M> batch = interner_.intern(view);
    auto [it, fresh] = ids_.try_emplace({round, batch.get()}, ElemId{0});
    if (fresh) {
      it->second = static_cast<ElemId>(elems_.size());
      elems_.push_back(ElemData{round, std::move(batch), {}, false});
    }
    return it->second;
  }

  void log_append(ElemId id) {
    if (elems_[id].in_log) return;
    elems_[id].in_log = true;
    visible_log_.push_back(id);
  }

  void make_visible(std::uint64_t now) {
    while (!pending_.empty() && pending_.front().time <= now) {
      std::pop_heap(pending_.begin(), pending_.end(), PendingLater{});
      log_append(pending_.back().id);
      pending_.pop_back();
    }
  }

  void process_tick() {
    completing_.clear();
    for (std::size_t ci = 0; ci < classes_.size(); ++ci)
      if (classes_[ci]->add_complete_tick == tick_) completing_.push_back(ci);
    make_visible(tick_);
    // Phase 2 (expanded: ascending process id, deduplicated): appending per
    // class in smallest-member order reproduces the log membership, and the
    // order itself is unobservable.
    for (std::size_t ci : completing_) log_append(classes_[ci]->in_flight);
    trigger_classes();
    split_completed();
    merge_converged();
  }

  // Phase 3: deliveries, end-of-rounds and the next round's adds for every
  // completing class.
  void trigger_classes() {
    const std::uint64_t t = tick_;
    // Step A — once per class: deliver the fresh log suffix to the
    // representative, run its end-of-round, intern the produced element.
    // None of this touches the RNG, the log or any element's adders, so
    // doing it up front commutes with the expanded per-process interleave.
    bool corner = false;
    for (std::size_t ci : completing_) {
      Klass& c = *classes_[ci];
      c.fresh_begin = c.watermark;
      deliver_fresh_to_rep(c);
      c.watermark = visible_log_.size();
      auto out = c.rep->end_of_round();
      last_eor_tick_ = t;
      c.new_elem = intern(out.round, out.batch);
      c.new_round = out.round;
      if (elems_[c.new_elem].in_log) corner = true;
    }
    if (corner) ++stats_.corner_ticks;
    // Step B — delivery metrics, fast path: adders are static for the rest
    // of the phase (no freshly produced element is visible), so the count
    // is one multiplicity-weighted sum per class, parallel over classes.
    if (!corner) deliveries_ += count_deliveries_fast();
    // Step C — the per-member replay, globally ascending process id: the
    // latency/visibility draws must consume the sequential RNG in exactly
    // the expanded order.  In the corner, delivery counting and adders
    // insertion interleave here too.
    build_member_order();
    tick_cand_.resize(order_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const ProcId p = order_[i].first;
      Klass& c = *classes_[order_[i].second];
      if (corner) deliveries_ += count_deliveries_member(c, p);
      std::uint64_t lat =
          opt_.min_add_latency +
          rng_.below(opt_.max_add_latency - opt_.min_add_latency + 1);
      EmulAddFate fate;
      if (opt_.faults.active()) {
        fate = opt_.faults.add_fate(p, c.new_round);
        lat += fate.extra_latency;
      }
      const std::uint64_t span = lat * opt_.skew[p];
      tick_cand_[i] = opt_.faults.completion_tick(p, t + 1 + span);
      const std::uint64_t vis = t + 1 + rng_.below(span + 1);
      if (!fate.suppress_early_visibility) {
        pending_.push_back({vis, c.new_elem});
        std::push_heap(pending_.begin(), pending_.end(), PendingLater{});
      }
      if (corner) {
        std::vector<ProcId>& adders = elems_[c.new_elem].adders;
        adders.insert(std::lower_bound(adders.begin(), adders.end(), p), p);
      }
    }
    if (!corner)
      for (std::size_t ci : completing_) merge_adders(*classes_[ci]);
    for (std::size_t ci : completing_)
      classes_[ci]->in_flight = classes_[ci]->new_elem;
  }

  void deliver_fresh_to_rep(Klass& c) {
    if (c.fresh_begin >= visible_log_.size()) return;
    fresh_.assign(
        visible_log_.begin() + static_cast<std::ptrdiff_t>(c.fresh_begin),
        visible_log_.end());
    // Element order (round, canonical messages) — the expanded engine's
    // per-process sort, so the representative sees identical receives.
    std::sort(fresh_.begin(), fresh_.end(), [this](ElemId a, ElemId b) {
      const ElemData& ea = elems_[a];
      const ElemData& eb = elems_[b];
      if (ea.round != eb.round) return ea.round < eb.round;
      return std::lexicographical_compare(
          ea.batch->msgs.begin(), ea.batch->msgs.end(), eb.batch->msgs.begin(),
          eb.batch->msgs.end());
    });
    for (ElemId id : fresh_) {
      const ElemData& e = elems_[id];
      c.rep->receive(e.batch, e.round);
    }
  }

  // Σ over the class's fresh suffix of m·|adders(e)| − |members ∩
  // adders(e)| — what m individual receivers would have recorded, counted
  // without expanding them.  Plain uint64 additions, so any summation
  // order (including the parallel fold) is exact.
  std::uint64_t count_deliveries_class(const Klass& c) const {
    const std::uint64_t m = c.members.size();
    std::uint64_t sum = 0;
    for (std::size_t i = c.fresh_begin; i < visible_log_.size(); ++i) {
      const std::vector<ProcId>& adders = elems_[visible_log_[i]].adders;
      sum += m * adders.size() - sorted_intersection_size(c.members, adders);
    }
    return sum;
  }

  std::uint64_t count_deliveries_fast() {
    if (participants_ <= 1 || completing_.size() < 2) {
      std::uint64_t sum = 0;
      for (std::size_t ci : completing_)
        sum += count_deliveries_class(*classes_[ci]);
      return sum;
    }
    return WorkerPool::shared().parallel_reduce(
        completing_.size(), std::uint64_t{0}, reduce_scratch_,
        [this](std::size_t i) {
          return count_deliveries_class(*classes_[completing_[i]]);
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; },
        participants_);
  }

  std::uint64_t count_deliveries_member(const Klass& c, ProcId p) const {
    std::uint64_t sum = 0;
    for (std::size_t i = c.fresh_begin; i < visible_log_.size(); ++i) {
      const std::vector<ProcId>& adders = elems_[visible_log_[i]].adders;
      sum += adders.size();
      if (std::binary_search(adders.begin(), adders.end(), p)) --sum;
    }
    return sum;
  }

  static std::uint64_t sorted_intersection_size(
      const std::vector<ProcId>& a, const std::vector<ProcId>& b) {
    std::uint64_t count = 0;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        ++count;
        ++i;
        ++j;
      }
    }
    return count;
  }

  // All completing members merged into one globally ascending (p, class)
  // sequence — the expanded trigger order.
  void build_member_order() {
    order_.clear();
    for (std::size_t ci : completing_)
      for (ProcId p : classes_[ci]->members)
        order_.emplace_back(p, static_cast<std::uint32_t>(ci));
    std::sort(order_.begin(), order_.end());
  }

  // Every completing member adds the class's (shared) produced element:
  // one sorted merge per class instead of m sorted inserts.  Members of
  // distinct classes are disjoint and a process never re-adds an element
  // (rounds strictly increase), so the merge never sees duplicates.
  void merge_adders(Klass& c) {
    std::vector<ProcId>& adders = elems_[c.new_elem].adders;
    if (adders.empty()) {
      adders = c.members;
      return;
    }
    merge_scratch_.resize(adders.size() + c.members.size());
    std::merge(adders.begin(), adders.end(), c.members.begin(),
               c.members.end(), merge_scratch_.begin());
    adders.swap(merge_scratch_);
  }

  // Partition each completing class by its members' freshly drawn
  // completion ticks: identical past, diverging future ⇒ split.  The
  // bucket holding the smallest member keeps the representative.
  void split_completed() {
    bool changed = false;
    bucket_of_.clear();
    for (std::size_t i = 0; i < order_.size(); ++i) {
      // order_ entries of one class are ascending-p subsequences; pair
      // each with its candidate tick and group per class below.
      bucket_of_.emplace_back(order_[i].second,
                              std::make_pair(tick_cand_[i], order_[i].first));
    }
    // Group by class, then by tick (stable in p within a bucket).
    std::sort(bucket_of_.begin(), bucket_of_.end());
    std::size_t i = 0;
    while (i < bucket_of_.size()) {
      const std::uint32_t ci = bucket_of_[i].first;
      std::size_t j = i;
      while (j < bucket_of_.size() && bucket_of_[j].first == ci) ++j;
      Klass& c = *classes_[ci];
      // [i, j) is class ci sorted by (tick, p).  First bucket = the one
      // containing the smallest tick... the rep stays with the bucket
      // holding c.members.front().
      const ProcId front = c.members.front();
      std::size_t bucket_start = i;
      buckets_.clear();
      for (std::size_t k = i + 1; k <= j; ++k) {
        if (k == j || bucket_of_[k].second.first !=
                          bucket_of_[bucket_start].second.first) {
          buckets_.emplace_back(bucket_start, k);
          bucket_start = k;
        }
      }
      const auto& buckets = buckets_;
      if (buckets.size() == 1) {
        c.add_complete_tick = bucket_of_[i].second.first;
        i = j;
        continue;
      }
      changed = true;
      stats_.splits += buckets.size() - 1;
      // Find the rep bucket, rebuild its members in place; clone for the
      // rest.
      std::size_t rep_bucket = 0;
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        bool has_front = false;
        for (std::size_t k = buckets[b].first; k < buckets[b].second; ++k)
          if (bucket_of_[k].second.second == front) has_front = true;
        if (has_front) rep_bucket = b;
      }
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (b == rep_bucket) continue;
        auto split = std::make_unique<Klass>();
        split->rep = c.rep->clone();
        ++stats_.clones;
        split->add_complete_tick = bucket_of_[buckets[b].first].second.first;
        split->in_flight = c.in_flight;
        split->watermark = c.watermark;
        split->members.reserve(buckets[b].second - buckets[b].first);
        for (std::size_t k = buckets[b].first; k < buckets[b].second; ++k)
          split->members.push_back(bucket_of_[k].second.second);
        classes_.push_back(std::move(split));
      }
      c.add_complete_tick = bucket_of_[buckets[rep_bucket].first].second.first;
      c.members.clear();
      for (std::size_t k = buckets[rep_bucket].first;
           k < buckets[rep_bucket].second; ++k)
        c.members.push_back(bucket_of_[k].second.second);
      i = j;
    }
    if (changed) {
      sort_and_reindex();
      stats_.classes = classes_.size();
      stats_.max_classes = std::max(stats_.max_classes, stats_.classes);
    }
  }

  // Re-collapse classes whose past AND scheduled future converged.  Exact:
  // digest buckets are candidates, equality is verified field-by-field
  // plus GirafProcess::same_state.
  void merge_converged() {
    if (classes_.size() < 2) return;
    digest_scratch_.resize(classes_.size());
    auto digest_range = [this](std::size_t begin, std::size_t end) {
      for (std::size_t ci = begin; ci < end; ++ci) {
        const Klass& c = *classes_[ci];
        std::uint64_t h = c.rep->state_digest();
        h = detail::mix_digest(h, c.add_complete_tick);
        h = detail::mix_digest(h, c.watermark);
        h = detail::mix_digest(h, c.in_flight);
        digest_scratch_[ci] = {h, static_cast<std::uint32_t>(ci)};
      }
    };
    if (participants_ <= 1 || classes_.size() < 2 * shard_count_) {
      digest_range(0, classes_.size());
    } else {
      balanced_ranges(classes_.size(), shard_count_, &shard_ranges_);
      WorkerPool::shared().parallel_for(
          shard_ranges_.size(),
          [&](std::size_t s) {
            digest_range(shard_ranges_[s].first, shard_ranges_[s].second);
          },
          participants_);
    }
    std::sort(digest_scratch_.begin(), digest_scratch_.end());
    bool merged_any = false;
    for (std::size_t i = 0; i < digest_scratch_.size();) {
      std::size_t j = i + 1;
      while (j < digest_scratch_.size() &&
             digest_scratch_[j].first == digest_scratch_[i].first)
        ++j;
      // Within a digest run, fold equals into the smallest class index.
      for (std::size_t a = i; a < j; ++a) {
        Klass& ca = *classes_[digest_scratch_[a].second];
        if (ca.members.empty()) continue;
        for (std::size_t b = a + 1; b < j; ++b) {
          Klass& cb = *classes_[digest_scratch_[b].second];
          if (cb.members.empty()) continue;
          if (ca.add_complete_tick != cb.add_complete_tick ||
              ca.watermark != cb.watermark || ca.in_flight != cb.in_flight ||
              !ca.rep->same_state(*cb.rep))
            continue;
          Klass& winner =
              digest_scratch_[a].second < digest_scratch_[b].second ? ca : cb;
          Klass& loser = &winner == &ca ? cb : ca;
          merge_scratch_.resize(winner.members.size() + loser.members.size());
          std::merge(winner.members.begin(), winner.members.end(),
                     loser.members.begin(), loser.members.end(),
                     merge_scratch_.begin());
          winner.members.swap(merge_scratch_);
          loser.members.clear();
          ++stats_.merges;
          merged_any = true;
          if (&winner == &cb) break;  // ca emptied; next a
        }
      }
      i = j;
    }
    if (merged_any) {
      classes_.erase(std::remove_if(classes_.begin(), classes_.end(),
                                    [](const std::unique_ptr<Klass>& c) {
                                      return c->members.empty();
                                    }),
                     classes_.end());
      sort_and_reindex();
      stats_.classes = classes_.size();
    }
  }

  // Class-list invariant: sorted by smallest member; class_of_ rebuilt.
  void sort_and_reindex() {
    std::sort(classes_.begin(), classes_.end(),
              [](const std::unique_ptr<Klass>& a,
                 const std::unique_ptr<Klass>& b) {
                return a->members.front() < b->members.front();
              });
    for (std::size_t ci = 0; ci < classes_.size(); ++ci)
      for (ProcId p : classes_[ci]->members)
        class_of_[p] = static_cast<std::uint32_t>(ci);
  }

  std::size_t n_ = 0;
  MsEmulationOptions opt_;
  Rng rng_;
  std::vector<std::unique_ptr<Klass>> classes_;
  std::vector<std::uint32_t> class_of_;
  std::vector<ElemData> elems_;
  BatchInterner<M> interner_;
  std::unordered_map<RoundBatchKey, ElemId, RoundBatchHash> ids_;
  std::vector<ElemId> visible_log_;
  std::vector<PendingVis> pending_;
  std::uint64_t tick_ = 1;
  std::uint64_t deliveries_ = 0;
  std::uint64_t last_eor_tick_ = 1;
  EmulCohortStats stats_;
  std::size_t participants_ = 1;
  std::size_t shard_count_ = 1;
  // Capacity-retaining scratch (steady-state rounds stay allocation-lean).
  std::vector<std::size_t> completing_;
  std::vector<std::pair<ProcId, std::uint32_t>> order_;
  std::vector<std::uint64_t> tick_cand_;
  std::vector<ElemId> fresh_;
  std::vector<ProcId> merge_scratch_;
  std::vector<std::pair<std::uint32_t, std::pair<std::uint64_t, ProcId>>>
      bucket_of_;
  std::vector<std::pair<std::size_t, std::size_t>> buckets_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> digest_scratch_;
  std::vector<std::uint64_t> reduce_scratch_;
  std::vector<ShardRange> shard_ranges_;
};

}  // namespace anon
