// Cohort-collapsed lock-step engine.
//
// The paper's processes are anonymous: two processes in the same state
// receive the same round-k broadcast batch (a *set* — duplicates collapse)
// and therefore take the same step.  Simulating each of the n processes
// separately is pure redundancy, so `CohortNet` simulates *equivalence
// classes* instead: one representative `GirafProcess` per class of
// identically-stated processes, plus the member list.  Per-round cost is
// O(C²) in the number of distinct states instead of O(n²) — a failure-free
// post-GST run collapses to a handful of cohorts regardless of n.
//
// Exactness.  Cohort execution is not an approximation; it reproduces the
// expanded `LockstepNet` run observation-for-observation (decision values,
// decision rounds, sends/bytes/deliveries — see tests/cohort_net_test.cpp):
//
//  * State: the algorithms' computes are multiset-invariant.  WRITTEN is an
//    intersection, PROPOSED a union, Algorithm 3's line 8 a pointwise min
//    and its line-9 bumps idempotent per distinct history — m identical
//    messages act exactly like one.  That invariance is the formal content
//    of "anonymous algorithms cannot count", and it is what makes one
//    representative delivery per (sender class, receiver class) pair
//    state-exact.
//  * Metrics: transport counters DO see multiplicity.  A class of m
//    senders broadcasting one interned payload accounts m·(n−1) link sends,
//    and a delivered broadcast accounts A·m − |S ∩ A| per-link deliveries
//    (A = alive non-halted processes, S = the sender-class snapshot): the
//    receivers see a multiset of (payload, count) pairs, weighted exactly
//    as the expanded engine would count them entry by entry.
//
// Split / merge rules:
//
//  * Split (delivery asymmetry): in rounds with no uniform delay, links
//    are routed one by one through the link layer shared with LockstepNet
//    (net/link.hpp: per-link delays, crash audiences, fault fates), which
//    can hand class members different batch sets.  At delivery time each
//    cohort is partitioned by the *set* of (payload, msg-round) pairs its
//    members received, and every class beyond the first gets a deep copy
//    (`GirafProcess::clone`) of the representative.  Worst case (fully
//    adversarial pre-GST timing) this degrades gracefully to n singleton
//    cohorts — the expanded simulation, at the expanded price.
//  * Split (crash): a member crashing at round k shares its class's final
//    compute, routes its final broadcast per link and takes no further
//    steps: its decision state is finalized and it leaves the member list.
//  * Merge: after each delivery phase, cohorts are bucketed by state digest
//    (`Automaton::state_digest` ⊕ round ⊕ inbox content digest) and
//    buckets are confirmed with exact `state_equals`/`same_content`
//    comparison — classes whose members became indistinguishable (e.g.
//    distinct proposals converging on the decided value) re-collapse.
//
// One execution path, sharded like LockstepNet's (see DESIGN.md, "Sharded
// cohort execution"): classes are partitioned into at most S contiguous,
// member-weighted shards over the process-wide WorkerPool, S = min(n,
// engine_shards, or the participant count when that is 0) — S = 1 at the
// defaults, where every pass runs inline on the calling thread.  Each
// round, the *compute wave* (one representative end-of-round + per-shard
// intern per class), the *delivery fan-out* (each class applies the
// round's broadcasts), the merge pass's digest loop and the reindex loops
// run shard-parallel; a serial barrier after the compute wave
// canonicalizes the payloads across shards — one object per content
// network-wide, so the split signatures' pointer-identity-is-content-
// identity invariant holds at any S — and everything order-sensitive
// (calendar scheduling, transport counters, crash bookkeeping, split and
// merge structure) replays serially in class order.  Reports are
// byte-identical at every thread/shard count (tests/cohort_net_test.cpp).
//
// Per-round scratch that is map-shaped (receiver partitions and split maps
// of asymmetric rounds) lives in a `RoundArena` (core/arena.hpp): bump
// allocations reclaimed wholesale at the next round's reset.  Flat scratch
// (digest/merge buckets, canonicalization tables, the due-entry buffer)
// lives in capacity-retaining member vectors.  Either way the steady state
// allocates nothing (tests/allocation_steady_state_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/arena.hpp"
#include "core/calendar.hpp"
#include "core/partition.hpp"
#include "core/sweep.hpp"
#include "core/worker_pool.hpp"
#include "giraf/process.hpp"
#include "net/link.hpp"
#include "net/lockstep.hpp"
#include "net/schedule.hpp"

namespace anon {

// Counters describing how well the run collapsed (tests, benches, ops).
struct CohortStats {
  std::size_t cohorts = 0;      // current number of equivalence classes
  std::size_t max_cohorts = 0;  // peak over the run
  std::uint64_t splits = 0;     // new classes from delivery asymmetries
  std::uint64_t merges = 0;     // classes re-collapsed after converging
  std::uint64_t clones = 0;     // representative deep copies made

  std::string to_string() const;
};

struct CohortOptions {
  std::uint64_t seed = 1;
  Round max_rounds = 100000;
  bool relay_partial_broadcast = true;
  Round relay_extra_delay = 2;
  HaltPolicy halt_policy = HaltPolicy::kContinueForever;
  // Optional fault plan (env/faults.hpp), aliased for the run's lifetime.
  // An active plan forces per-link scheduling every round (fates vary by
  // link), so fault asymmetries split cohorts through the existing
  // signature-partition machinery — degradation is principled, not
  // approximate.
  const FaultPlan* faults = nullptr;
  // Worker-pool participants driving the per-round waves (0 = one per
  // hardware thread) and the cohort-shard count (0 = one per participant,
  // clamped to n).  Reports are byte-identical at any value — see the
  // class comment.
  std::size_t engine_threads = 1;
  std::size_t engine_shards = 0;

  // The lock-step option set, minus the trace knobs: the cohort engine
  // records no per-process trace (a trace is exactly the per-index
  // expansion this engine exists to avoid).
  static CohortOptions from(const LockstepOptions& o) {
    CohortOptions c;
    c.seed = o.seed;
    c.max_rounds = o.max_rounds;
    c.relay_partial_broadcast = o.relay_partial_broadcast;
    c.relay_extra_delay = o.relay_extra_delay;
    c.halt_policy = o.halt_policy;
    c.faults = o.faults;
    c.engine_threads = o.engine_threads;
    c.engine_shards = o.engine_shards;
    return c;
  }
};

template <GirafMessage M>
class CohortNet {
 public:
  // One initial equivalence class: processes that start in the same state
  // (same algorithm, same initial value).  Member sets must partition
  // [0, n).  The grouping is the caller's promise — the engine checks
  // coverage, not state equality of hypothetical expanded automatons.
  struct InitGroup {
    std::unique_ptr<Automaton<M>> automaton;
    std::vector<ProcId> members;
  };

  // NOTE: the engine aliases `delays` for its whole lifetime — the model
  // is shared, immutable and typically outlives whole sweeps, so the net
  // does not take ownership.  The rvalue overload below rejects binding a
  // temporary (which would dangle on the first delay probe) at compile
  // time; construct the model in an outer scope instead.
  CohortNet(std::vector<InitGroup> groups, const DelayModel& delays,
            CrashPlan crashes, CohortOptions opt = {})
      : n_(member_count(groups)),
        link_(delays, std::move(crashes), n_, opt),
        opt_(opt) {
    ANON_CHECK(n_ > 0);
    std::tie(participants_, shard_count_) =
        resolve_engine_shards(opt_.engine_threads, opt_.engine_shards, n_);
    interners_.resize(shard_count_);
    cohort_of_.assign(n_, kNoCohort);
    decision_round_.assign(n_, kNoRound);
    cohorts_.reserve(groups.size());
    for (InitGroup& g : groups) {
      ANON_CHECK(!g.members.empty());
      auto c = std::make_unique<Cohort>();
      c->rep = std::make_unique<GirafProcess<M>>(std::move(g.automaton));
      c->members = std::move(g.members);
      std::sort(c->members.begin(), c->members.end());
      for (ProcId p : c->members) {
        ANON_CHECK_MSG(p < n_ && cohort_of_[p] == kNoCohort,
                       "InitGroup members must partition [0, n)");
        cohort_of_[p] = 0;  // provisional; reindex() assigns real indices
        if (!link_.crashes().ever_crashes(p)) ++c->correct_members;
      }
      cohorts_.push_back(std::move(c));
    }
    purge_sort_reindex();
    stats_.cohorts = stats_.max_cohorts = cohorts_.size();
    // Crash events, in firing order (ties broken by process id for
    // deterministic death bookkeeping).
    for (ProcId p = 0; p < n_; ++p)
      if (Round c = link_.crashes().crash_round(p); c != kNeverCrashes)
        crash_events_.emplace_back(c, p);
    std::sort(crash_events_.begin(), crash_events_.end());
    // Metric fast path: with no crashes and no halt policy nobody ever
    // leaves the alive∩non-halted set, so broadcast deliveries are a
    // closed-form count and entries need no sender snapshots.
    needs_snapshots_ = link_.crashes().crash_count() > 0 ||
                       opt_.halt_policy == HaltPolicy::kStopAfterDecide;
  }

  CohortNet(std::vector<InitGroup> groups, const DelayModel&& delays,
            CrashPlan crashes, CohortOptions opt = {}) = delete;

  std::size_t n() const { return n_; }
  Round round() const { return round_; }
  const CohortStats& stats() const { return stats_; }
  std::size_t cohort_count() const { return cohorts_.size(); }

  // Shards the engine partitions classes into (at most; a round uses
  // min(shards, classes) of them).
  std::size_t engine_shards() const { return shard_count_; }

  bool is_correct(ProcId p) const { return !link_.crashes().ever_crashes(p); }

  std::optional<Value> decision(ProcId p) const {
    ANON_CHECK(p < n_);
    if (cohort_of_[p] == kDead) return dead_decision_.at(p);
    return cohorts_[cohort_of_[p]]->rep->decision();
  }

  Round decision_round(ProcId p) const { return decision_round_[p]; }

  bool all_correct_decided() const {
    for (const auto& c : cohorts_)
      if (c->correct_members > 0 && !c->rep->decision().has_value())
        return false;
    return true;
  }

  // Transport counters, accounted exactly as LockstepNet's (net/link.hpp).
  std::uint64_t deliveries() const { return ctr_.deliveries; }
  std::uint64_t sends() const { return ctr_.sends; }
  std::uint64_t bytes_sent() const { return ctr_.bytes; }
  std::uint64_t fault_drops() const { return ctr_.drops; }
  std::uint64_t fault_dups() const { return ctr_.dups; }

  std::size_t inbox_overflow_high_water() const {
    std::size_t hw = 0;
    for (const auto& c : cohorts_)
      hw = std::max(hw, c->rep->inboxes().overflow_high_water());
    return hw;
  }

  std::size_t inbox_overflow_dropped() const {
    std::size_t dropped = 0;
    for (const auto& c : cohorts_)
      dropped += c->rep->inboxes().overflow_dropped();
    return dropped;
  }

  // The representative of p's current equivalence class (introspection).
  const GirafProcess<M>& representative(ProcId p) const {
    ANON_CHECK(p < n_ && cohort_of_[p] != kDead);
    return *cohorts_[cohort_of_[p]]->rep;
  }

  // Observable automaton state of p, dead or alive: the class
  // representative while p lives, its death-time clone afterwards.  A
  // per-index engine keeps a crashed process's automaton around frozen at
  // its final compute; the dying member's final compute was its class's
  // (finalize_death), so the clone taken there reads byte-identically.
  const Automaton<M>& automaton_view(ProcId p) const {
    ANON_CHECK(p < n_);
    if (cohort_of_[p] == kDead) {
      const auto& frozen = dead_state_.at(p);
      ANON_CHECK(frozen != nullptr);
      return *frozen;
    }
    return cohorts_[cohort_of_[p]]->rep->automaton();
  }

  // Applies an in-place state mutation to ONE member's automaton (the
  // weak-set harnesses inject start_add this way).  If p shares a class
  // with other members it is split out first — after the mutation it is no
  // longer state-equivalent to them; the next merge pass re-collapses it
  // if the mutation turns out to be state-neutral.  Safe between rounds
  // and inside a run's stop() callback: calendar entries address processes
  // (unicast) or resolve against the class list at delivery (broadcast),
  // so membership restructuring never strands a pending message.
  template <typename Fn>
  void mutate_member(ProcId p, Fn&& fn) {
    ANON_CHECK(p < n_ && cohort_of_[p] != kDead);
    Cohort& c = *cohorts_[cohort_of_[p]];
    ANON_CHECK_MSG(!c.halted, "mutate_member on a halted class");
    if (c.members.size() == 1) {
      fn(c.rep->automaton());
      return;
    }
    ++stats_.splits;
    auto split = std::make_unique<Cohort>();
    split->rep = c.rep->clone();
    ++stats_.clones;
    split->members = {p};
    split->correct_members = link_.crashes().ever_crashes(p) ? 0u : 1u;
    split->decided_noted = c.decided_noted;
    c.members.erase(std::find(c.members.begin(), c.members.end(), p));
    c.correct_members -= split->correct_members;
    fn(split->rep->automaton());
    cohorts_.push_back(std::move(split));
    purge_sort_reindex();
  }

  // Engine loop — identical phase order to LockstepNet::run, with an extra
  // (invisible to `stop`) merge pass after deliveries.
  template <typename StopFn>
  RunResult run(StopFn stop) {
    if (round_ == 0) bootstrap();
    while (round_ < opt_.max_rounds) {
      deliver_due(round_);
      merge_converged();
      if (stop(*this)) return {round_, true};
      advance_round();
      note_decisions();
    }
    return {round_, false};
  }

  RunResult run_until_all_correct_decided() {
    return run([](const CohortNet& net) { return net.all_correct_decided(); });
  }

  RunResult run_rounds(Round rounds) {
    const Round target = round_ + rounds;
    return run([target](const CohortNet& net) { return net.round() >= target; });
  }

 private:
  static constexpr std::uint32_t kNoCohort =
      std::numeric_limits<std::uint32_t>::max() - 1;
  static constexpr std::uint32_t kDead =
      std::numeric_limits<std::uint32_t>::max();

  struct Cohort {
    std::unique_ptr<GirafProcess<M>> rep;
    std::vector<ProcId> members;  // sorted ascending, all alive
    std::size_t correct_members = 0;
    bool halted = false;
    bool decided_noted = false;  // members' decision_round_ recorded
  };

  // One calendar entry.  A broadcast entry stands for `copies` identical
  // per-link sends to every other process; a unicast entry is one link
  // (per-link delays, crash audiences and relays).
  struct Pending {
    SharedBatch<M> payload;
    Round msg_round = 0;
    std::uint32_t copies = 1;
    ProcId receiver = 0;  // unicast only
    bool broadcast = false;
    // Sender-class snapshot for the delivery-count fallback; null when the
    // closed-form count applies (no crashes, no halt policy).
    std::shared_ptr<const std::vector<ProcId>> senders;
  };

  // The compute wave's per-class output, staged for the serial schedule
  // pass (and for cross-shard payload canonicalization).
  struct WaveOut {
    SharedBatch<M> payload;
    std::size_t bytes = 0;
    bool stepped = false;  // false = class was halted before this wave
  };

  static std::size_t member_count(const std::vector<InitGroup>& groups) {
    std::size_t n = 0;
    for (const InitGroup& g : groups) n += g.members.size();
    return n;
  }

  void bootstrap() {
    decision_round_.assign(n_, kNoRound);
    wave(1);
    round_ = 1;
  }

  void advance_round() {
    const Round next = round_ + 1;
    wave(next);
    round_ = next;
  }

  // Shard layout over the current class list: contiguous ranges covering
  // [0, count), at most shard_count_ of them, weight-balanced by member
  // count (core/partition.hpp).  Collapsed runs are a few huge classes
  // plus singleton stragglers; an equal-width cut parks all the O(n)
  // member fan-out on one worker.  Any contiguous cover is result-safe —
  // order-sensitive work replays serially in class order at the barriers.
  void rebuild_shard_ranges(std::size_t count) {
    balanced_ranges_weighted(
        count, std::min(shard_count_, std::max<std::size_t>(count, 1)),
        [this](std::size_t ci) {
          return static_cast<std::uint64_t>(cohorts_[ci]->members.size());
        },
        &shard_ranges_);
  }

  // End-of-round wave k: one representative compute per class (sharded),
  // one broadcast per class (uniform rounds) or per link (asymmetric
  // rounds), and death bookkeeping for members whose crash round is k.
  void wave(Round k) {
    // Members crashing at k, grouped by class.
    std::map<std::uint32_t, std::vector<ProcId>> crashing;
    while (next_crash_ < crash_events_.size() &&
           crash_events_[next_crash_].first == k) {
      const ProcId p = crash_events_[next_crash_].second;
      ++next_crash_;
      ANON_CHECK(cohort_of_[p] != kDead && cohort_of_[p] != kNoCohort);
      crashing[cohort_of_[p]].push_back(p);
    }

    // No uniform delay (an active fault plan included) routes every link
    // of the round through the split machinery.
    const std::optional<Round> ud = link_.uniform_delay(k);

    // Compute wave: end-of-round + intern, sharded over classes.  Mutates
    // only per-class state and the shard's own interner; everything
    // order-sensitive replays serially below.
    const std::size_t count = cohorts_.size();
    wave_out_.resize(count);
    wave_round_ = k;
    rebuild_shard_ranges(count);
    WorkerPool::parallel_for_shared(
        shard_ranges_.size(),
        [this](std::size_t s) {
          interners_[s].round_reset();
          compute_range(shard_ranges_[s].first, shard_ranges_[s].second, s);
        },
        participants_);
    // One shard's interner is already unique by content: nothing to remap.
    if (shard_ranges_.size() > 1) {
      canon_.rebuild(shard_ranges_.size(),
                     [this](std::size_t s) -> const auto& {
                       return interners_[s].fresh();
                     });
      if (!canon_.empty())
        for (WaveOut& w : wave_out_)
          if (w.stepped) canon_.apply(w.payload);
    }

    // Schedule wave: serial, in class order — the same fold over counters,
    // calendar entries and crash bookkeeping at every shard count.
    bool structural = false;
    for (std::uint32_t ci = 0; ci < count; ++ci) {
      auto itc = crashing.find(ci);
      const std::span<const ProcId> dying =
          itc == crashing.end() ? std::span<const ProcId>{} : itc->second;
      if (wave_out_[ci].stepped) {
        schedule_eor(ci, k, ud, dying);
      } else {
        // A halted process never executes an end-of-round — not even its
        // crash-round one (no final broadcast); its crash only removes it
        // from the alive set.
        for (ProcId p : dying) finalize_death(*cohorts_[ci], p, k);
      }
      if (!dying.empty()) {
        remove_dead_members(*cohorts_[ci]);
        structural = true;
      }
    }
    if (structural) purge_sort_reindex();
  }

  void compute_range(std::size_t begin, std::size_t end, std::size_t s) {
    for (std::size_t ci = begin; ci < end; ++ci) {
      Cohort& c = *cohorts_[ci];
      WaveOut& w = wave_out_[ci];
      if (c.halted) {
        w.stepped = false;
        w.payload.reset();
        continue;
      }
      auto out = c.rep->end_of_round();
      ANON_CHECK(out.round == wave_round_);
      if (opt_.halt_policy == HaltPolicy::kStopAfterDecide &&
          c.rep->decision().has_value())
        c.halted = true;  // effective next wave; this broadcast still goes
      std::size_t batch_bytes = 0;
      for (const M& m : out.batch) batch_bytes += MessageSizeOf<M>::size(m);
      w.payload = interners_[s].intern(out.batch);
      w.bytes = batch_bytes;
      w.stepped = true;
    }
  }

  // The serial half of the end-of-round wave for one class: transport
  // counters, calendar scheduling and the dying members' (ascending)
  // deaths, reading the staged (canonicalized) payload.
  void schedule_eor(std::uint32_t ci, Round k, const std::optional<Round>& ud,
                    std::span<const ProcId> dying) {
    Cohort& c = *cohorts_[ci];
    const SharedBatch<M>& payload = wave_out_[ci].payload;
    LinkSend send{k, 0, ud, false, payload->size(), wave_out_[ci].bytes};
    const std::size_t survivors = c.members.size() - dying.size();

    if (ud.has_value() && survivors > 0) {
      // One interned broadcast for the whole class: `survivors` senders,
      // each reaching the other n-1 processes with the same delay.
      ctr_.count_sends(static_cast<std::uint64_t>(survivors) * (n_ - 1),
                       send.msgs, send.bytes);
      Pending e{payload, k, static_cast<std::uint32_t>(survivors), 0, true,
                nullptr};
      if (needs_snapshots_) {
        std::vector<ProcId> alive;
        if (dying.empty()) {
          alive = c.members;
        } else {
          alive.reserve(survivors);
          std::set_difference(c.members.begin(), c.members.end(),
                              dying.begin(), dying.end(),
                              std::back_inserter(alive));
        }
        e.senders =
            std::make_shared<const std::vector<ProcId>>(std::move(alive));
      }
      calendar_.schedule(k + *ud, std::move(e));
    }

    // Per-link routes, one unicast entry per arriving copy: every member
    // in an asymmetric round (the expanded engine's cost, paid only while
    // the adversary differentiates), only the dying members otherwise — a
    // crashing member's final broadcast reaches its own audience.  A dying
    // member then takes no further steps: its state is finalized here.
    const std::span<const ProcId> senders =
        ud.has_value() ? dying : std::span<const ProcId>(c.members);
    for (ProcId p : senders) {
      send.sender = p;
      send.crashing = std::binary_search(dying.begin(), dying.end(), p);
      for (ProcId q = 0; q < n_; ++q) {
        if (q == p) continue;
        link_.route(send, q, ctr_, [&](Round due) {
          calendar_.schedule(due, Pending{payload, k, 1, q, false, nullptr});
        });
      }
      if (send.crashing) finalize_death(c, p, k);
    }
  }

  // Records a dying member's observable state; the class's final compute
  // of round k was its compute, so the representative speaks for it.
  void finalize_death(Cohort& c, ProcId p, Round k) {
    if (c.rep->decision().has_value() && decision_round_[p] == kNoRound)
      decision_round_[p] = k - 1;
    dead_decision_[p] = c.rep->decision();
    dead_state_[p] = c.rep->automaton().clone_state();
    cohort_of_[p] = kDead;
  }

  // Drops members already finalized as dead (cohort_of_ == kDead).
  void remove_dead_members(Cohort& c) {
    auto dead = [&](ProcId p) { return cohort_of_[p] == kDead; };
    c.members.erase(std::remove_if(c.members.begin(), c.members.end(), dead),
                    c.members.end());
  }

  void deliver_due(Round r) {
    calendar_.advance_to(r);
    calendar_.take_due_into(due_scratch_);
    if (due_scratch_.empty()) return;

    // A = alive ∩ non-halted processes, for multiplicity-weighted counts —
    // an index-ordered map-reduce over the class shards (deterministic by
    // construction; integer sums commute anyway).
    rebuild_shard_ranges(cohorts_.size());
    reduce_scratch_.resize(shard_ranges_.size());
    WorkerPool::parallel_for_shared(
        shard_ranges_.size(),
        [this](std::size_t s) {
          std::uint64_t sum = 0;
          for (std::size_t ci = shard_ranges_[s].first;
               ci < shard_ranges_[s].second; ++ci)
            if (!cohorts_[ci]->halted) sum += cohorts_[ci]->members.size();
          reduce_scratch_[s] = sum;
        },
        participants_);
    std::uint64_t alive_nonhalted = 0;
    for (const std::uint64_t sum : reduce_scratch_) alive_nonhalted += sum;

    bool any_unicast = false;
    bool any_broadcast = false;
    for (const Pending& e : due_scratch_) {
      if (!e.broadcast) {
        any_unicast = true;
        continue;
      }
      any_broadcast = true;
      // Metrics: Σ over alive non-halted receivers q of |S \ {q}|.
      std::uint64_t in_set = e.copies;
      if (needs_snapshots_) {
        in_set = 0;
        for (ProcId p : *e.senders)
          if (cohort_of_[p] != kDead && !cohorts_[cohort_of_[p]]->halted)
            ++in_set;
      }
      ctr_.deliveries +=
          e.payload->size() * (alive_nonhalted * e.copies - in_set);
    }
    // State fan-out, loop-exchanged and sharded over classes: each class
    // applies the round's broadcasts in calendar order.  The sender class
    // receives its own payload too — for members that ARE the sender this
    // merely re-adds their own round message (a set no-op), exactly as
    // peers' identical broadcasts would.  The exchange is unobservable:
    // per-receiver insertion order is preserved and views sort by content.
    if (any_broadcast) {
      WorkerPool::parallel_for_shared(
          shard_ranges_.size(),
          [this](std::size_t s) {
            receive_broadcasts_range(shard_ranges_[s].first,
                                     shard_ranges_[s].second);
          },
          participants_);
    }
    if (any_unicast) deliver_unicasts(due_scratch_, r);
    due_scratch_.clear();
  }

  void receive_broadcasts_range(std::size_t begin, std::size_t end) {
    for (std::size_t ci = begin; ci < end; ++ci) {
      Cohort& c = *cohorts_[ci];
      if (c.halted) continue;
      for (const Pending& e : due_scratch_)
        if (e.broadcast) c.rep->receive(e.payload, e.msg_round);
    }
  }

  // Per-link deliveries: count metrics per entry, then partition each
  // affected class by the SET of (msg_round, payload) pairs its members
  // received — the exact condition under which members stay equivalent.
  // The receiver partition and the split maps are arena-backed: bump
  // allocations, reclaimed wholesale at the next asymmetric round's reset
  // (every container below dies before this function returns).
  void deliver_unicasts(const std::vector<Pending>& due, Round /*r*/) {
    arena_.reset();
    auto by_receiver = make_arena_umap<ProcId, ArenaVector<const Pending*>>(
        arena_, due.size());
    for (const Pending& e : due) {
      if (e.broadcast) continue;
      const std::uint32_t ci = cohort_of_[e.receiver];
      if (ci == kDead || cohorts_[ci]->halted) continue;  // dropped silently
      ctr_.deliveries += e.payload->size();
      auto [it, inserted] = by_receiver.try_emplace(
          e.receiver, ArenaAlloc<const Pending*>(&arena_));
      it->second.push_back(&e);
    }
    if (by_receiver.empty()) return;

    // (msg_round, payload) identifies content: payloads are interned per
    // (content, engine round) and canonicalized across shards, so pointer
    // equality is content equality.
    using Sig = std::vector<std::pair<Round, SharedBatch<M>>>;
    auto sig_less = [](const typename Sig::value_type& x,
                       const typename Sig::value_type& y) {
      if (x.first != y.first) return x.first < y.first;
      return x.second.get() < y.second.get();
    };
    auto sig_of = [&](ProcId p) {
      Sig s;
      auto it = by_receiver.find(p);
      if (it != by_receiver.end()) {
        s.reserve(it->second.size());
        for (const Pending* e : it->second)
          s.emplace_back(e->msg_round, e->payload);
        std::sort(s.begin(), s.end(), sig_less);
        s.erase(std::unique(s.begin(), s.end()), s.end());
      }
      return s;
    };

    using ClassAlloc = ArenaAlloc<std::pair<const Sig, std::vector<ProcId>>>;
    using ClassMap = std::map<Sig, std::vector<ProcId>, std::less<Sig>,
                              ClassAlloc>;

    bool structural = false;
    const std::size_t existing = cohorts_.size();
    for (std::size_t ci = 0; ci < existing; ++ci) {
      Cohort& c = *cohorts_[ci];
      if (c.halted) continue;
      // Partition members by signature, preserving member order so the
      // class layout (and hence everything downstream) is deterministic.
      ClassMap classes{std::less<Sig>(), ClassAlloc(&arena_)};
      bool any = false;
      for (ProcId p : c.members) {
        Sig s = sig_of(p);
        if (!s.empty()) any = true;
        classes[std::move(s)].push_back(p);
      }
      if (!any) continue;  // no unicast touched this class

      if (classes.size() == 1) {
        deliver_sig(c, classes.begin()->first);
        continue;
      }

      // Split: the subclass containing the class's first member keeps the
      // representative; the others get clones.
      structural = true;
      stats_.splits += classes.size() - 1;
      const ProcId anchor = c.members.front();
      std::vector<ProcId> anchor_members;
      const Sig* anchor_sig = nullptr;
      for (auto& [sig, members] : classes) {
        if (std::binary_search(members.begin(), members.end(), anchor)) {
          anchor_sig = &sig;
          anchor_members = std::move(members);
          continue;
        }
        auto split = std::make_unique<Cohort>();
        split->rep = c.rep->clone();
        ++stats_.clones;
        split->members = members;
        // halted stays false: halted cohorts never reach the split path
        // (deliveries to them are dropped above).
        split->decided_noted = c.decided_noted;
        for (ProcId p : split->members)
          if (!link_.crashes().ever_crashes(p)) ++split->correct_members;
        deliver_sig(*split, sig);
        cohorts_.push_back(std::move(split));
      }
      ANON_CHECK(anchor_sig != nullptr);
      deliver_sig(c, *anchor_sig);
      c.members = std::move(anchor_members);
      c.correct_members = 0;
      for (ProcId p : c.members)
        if (!link_.crashes().ever_crashes(p)) ++c.correct_members;
    }
    if (structural) purge_sort_reindex();
  }

  void deliver_sig(Cohort& c,
                   const std::vector<std::pair<Round, SharedBatch<M>>>& sig) {
    for (const auto& [msg_round, batch] : sig)
      c.rep->receive(batch, msg_round);
  }

  // Merge pass: digest every class (sharded), group equal digests by
  // sorting flat (digest, index) pairs — the buckets are runs in a
  // capacity-retaining scratch vector, not a node-allocating hash map —
  // confirm exact equality, absorb.  Ascending index order within a run
  // makes the winner choice independent of the shard count.
  void merge_converged() {
    const std::size_t count = cohorts_.size();
    if (count <= 1) return;
    merge_digests_.resize(count);
    rebuild_shard_ranges(count);
    WorkerPool::parallel_for_shared(
        shard_ranges_.size(),
        [this](std::size_t s) {
          digest_range(shard_ranges_[s].first, shard_ranges_[s].second);
        },
        participants_);
    merge_scratch_.clear();
    for (std::uint32_t i = 0; i < count; ++i)
      merge_scratch_.push_back({merge_digests_[i], i});
    std::sort(merge_scratch_.begin(), merge_scratch_.end());

    bool structural = false;
    for (std::size_t i = 0; i < count;) {
      std::size_t j = i + 1;
      while (j < count && merge_scratch_[j].first == merge_scratch_[i].first)
        ++j;
      for (std::size_t a = i; j - i >= 2 && a < j; ++a) {
        Cohort& winner = *cohorts_[merge_scratch_[a].second];
        if (winner.members.empty()) continue;  // absorbed earlier this pass
        for (std::size_t b = a + 1; b < j; ++b) {
          Cohort& loser = *cohorts_[merge_scratch_[b].second];
          if (loser.members.empty()) continue;
          if (winner.halted != loser.halted ||
              !winner.rep->same_state(*loser.rep))
            continue;
          // Absorb: merge the sorted member lists; decided bookkeeping is
          // identical by state equality (equal decision ⇒ both already
          // noted or both undecided).
          std::vector<ProcId> merged;
          merged.reserve(winner.members.size() + loser.members.size());
          std::merge(winner.members.begin(), winner.members.end(),
                     loser.members.begin(), loser.members.end(),
                     std::back_inserter(merged));
          winner.members = std::move(merged);
          winner.correct_members += loser.correct_members;
          loser.members.clear();
          ++stats_.merges;
          structural = true;
        }
      }
      i = j;
    }
    if (structural) purge_sort_reindex();
  }

  void digest_range(std::size_t begin, std::size_t end) {
    for (std::size_t ci = begin; ci < end; ++ci)
      merge_digests_[ci] = detail::mix_digest(
          cohorts_[ci]->rep->state_digest(), cohorts_[ci]->halted ? 1 : 0);
  }

  void note_decisions() {
    rebuild_shard_ranges(cohorts_.size());
    WorkerPool::parallel_for_shared(
        shard_ranges_.size(),
        [this](std::size_t s) {
          note_decisions_range(shard_ranges_[s].first,
                               shard_ranges_[s].second);
        },
        participants_);
  }

  // Stamps decision rounds for a class range.  Classes own disjoint member
  // sets, so shard writes to decision_round_ never collide.
  void note_decisions_range(std::size_t begin, std::size_t end) {
    for (std::size_t ci = begin; ci < end; ++ci) {
      Cohort& c = *cohorts_[ci];
      if (c.decided_noted || !c.rep->decision().has_value()) continue;
      for (ProcId p : c.members)
        if (decision_round_[p] == kNoRound) decision_round_[p] = round_ - 1;
      c.decided_noted = true;
    }
  }

  // Drops emptied classes, restores the smallest-member ordering and
  // rewrites the process→class index (sharded — the one O(n) pass left on
  // structural rounds).  Only runs on structural changes (splits, merges,
  // deaths) — never on the steady-state fast path.
  void purge_sort_reindex() {
    cohorts_.erase(std::remove_if(cohorts_.begin(), cohorts_.end(),
                                  [](const std::unique_ptr<Cohort>& c) {
                                    return c->members.empty();
                                  }),
                   cohorts_.end());
    std::sort(cohorts_.begin(), cohorts_.end(),
              [](const std::unique_ptr<Cohort>& a,
                 const std::unique_ptr<Cohort>& b) {
                return a->members.front() < b->members.front();
              });
    rebuild_shard_ranges(cohorts_.size());
    WorkerPool::parallel_for_shared(
        shard_ranges_.size(),
        [this](std::size_t s) {
          for (std::size_t ci = shard_ranges_[s].first;
               ci < shard_ranges_[s].second; ++ci)
            for (ProcId p : cohorts_[ci]->members)
              cohort_of_[p] = static_cast<std::uint32_t>(ci);
        },
        participants_);
    stats_.cohorts = cohorts_.size();
    stats_.max_cohorts = std::max(stats_.max_cohorts, cohorts_.size());
  }

  std::size_t n_ = 0;
  LinkRules link_;
  CohortOptions opt_;
  Round round_ = 0;
  std::vector<std::unique_ptr<Cohort>> cohorts_;  // sorted by members.front()
  std::vector<std::uint32_t> cohort_of_;          // per process; kDead = gone
  std::vector<Round> decision_round_;
  std::map<ProcId, std::optional<Value>> dead_decision_;
  // Frozen death-time automaton clones, for automaton_view (one per
  // crashed process, cloned once in finalize_death).
  std::map<ProcId, std::unique_ptr<Automaton<M>>> dead_state_;
  std::vector<std::pair<Round, ProcId>> crash_events_;
  std::size_t next_crash_ = 0;
  RoundCalendar<Pending> calendar_;
  bool needs_snapshots_ = false;
  CohortStats stats_;
  LinkCounters ctr_;

  // Shard machinery and per-round scratch, all capacity-retaining across
  // rounds.
  std::size_t shard_count_ = 1;
  std::size_t participants_ = 1;
  std::vector<std::pair<std::size_t, std::size_t>> shard_ranges_;
  std::vector<BatchInterner<M>> interners_;  // one per shard
  Round wave_round_ = 0;  // staged for the this-only-capture wave lambdas
  std::vector<WaveOut> wave_out_;  // per class, current wave
  PayloadCanon<M> canon_;
  std::vector<std::uint64_t> merge_digests_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> merge_scratch_;
  std::vector<std::uint64_t> reduce_scratch_;
  std::vector<Pending> due_scratch_;  // recycled take_due buffer
  RoundArena arena_;  // asymmetric-round receiver partitions + split maps
};

// The standard cohort construction for consensus workloads: processes
// proposing the same value start in identical automaton state, so they
// form one initial equivalence class.  `make(v)` builds the class
// representative for proposal v.
template <GirafMessage M, typename MakeAutomaton>
std::vector<typename CohortNet<M>::InitGroup> groups_by_initial_value(
    const std::vector<Value>& initial, MakeAutomaton make) {
  std::map<Value, std::vector<ProcId>> by_value;
  for (ProcId p = 0; p < initial.size(); ++p) by_value[initial[p]].push_back(p);
  std::vector<typename CohortNet<M>::InitGroup> groups;
  groups.reserve(by_value.size());
  for (auto& [v, members] : by_value)
    groups.push_back({make(v), std::move(members)});
  return groups;
}

}  // namespace anon
