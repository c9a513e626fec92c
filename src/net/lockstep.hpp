// Lock-step round simulator.
//
// All alive processes advance rounds together; the adversary acts on each
// link through the link layer shared with CohortNet (net/link.hpp): the
// `DelayModel`'s per-link, per-round delays (0 = timely), the `CrashPlan`'s
// final audiences with their reliable-broadcast relay, and the optional
// `FaultPlan`.  That header also holds the transport counters and the
// cross-shard payload canonicalization.
//
// One engine round r:
//   1. deliver every message batch due in round r (into the receivers'
//      round-indexed inboxes; timely messages have msg_round == r),
//   2. evaluate the stop condition,
//   3. every alive process executes end-of-round #(r+1): compute(r) runs
//      and its round-(r+1) message is broadcast.  A process whose crash
//      round is r+1 broadcasts to its final audience only and is dead
//      afterwards.
//
// One round engine (see DESIGN.md, "Sharded intra-run execution"):
// processes are partitioned into S contiguous shards, S = min(n,
// engine_shards, or the participant count when that is 0) — S = 1 at the
// defaults.  Each round runs two waves over the shared WorkerPool with a
// barrier between them — the end-of-round wave (compute + broadcast,
// per-shard interner/calendar/outboxes/trace buffers) and the delivery wave
// (per-shard calendars) — plus a serial merge at the barrier.  With one
// shard or one participant the pool runs both waves inline on the calling
// thread.  In uniform-delay rounds a non-crashing sender's broadcast is
// aggregated into a per-payload *group* delivered by content once per
// receiver (the n² per-link entries of a naive engine exist only as
// counter arithmetic), which is what makes adversarial runs at n = 10^5
// feasible at all.  Group building is itself sharded: each shard
// pre-groups its own uniform senders during the wave, the barrier only
// merges the few per-shard (payload, member-range) summaries, and member
// lists are copied into the global groups by a second sharded pass — no
// O(n) serial section remains on the steady-state round path.
// Barrier-local scratch lives in a RoundArena (core/arena.hpp) and groups
// are pooled, so steady-state rounds allocate nothing
// (tests/allocation_steady_state_test.cpp).  Reports, metrics and traces
// are byte-identical at every shard/thread count and to the naive
// per-link oracle in tests/serial_lockstep_oracle.hpp;
// tests/sharded_net_test.cpp holds the engine to that bar.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/message_size.hpp"
#include "core/arena.hpp"
#include "core/calendar.hpp"
#include "core/partition.hpp"
#include "core/sweep.hpp"
#include "core/worker_pool.hpp"
#include "env/faults.hpp"
#include "giraf/process.hpp"
#include "giraf/trace.hpp"
#include "net/link.hpp"
#include "net/schedule.hpp"

namespace anon {

// What a decided process does next (see DESIGN.md, "decide/halt").
enum class HaltPolicy {
  // Keep executing rounds, re-broadcasting the frozen final message
  // (standard reading; keeps ES/ESS satisfiable and laggards alive).
  kContinueForever,
  // Literal "decide; halt": stop sending and receiving.  Provided to
  // demonstrate laggard starvation; not recommended.
  kStopAfterDecide,
};

struct LockstepOptions {
  std::uint64_t seed = 1;
  Round max_rounds = 100000;
  bool relay_partial_broadcast = true;
  Round relay_extra_delay = 2;  // extra rounds for relayed final messages
  bool record_trace = true;     // end-of-round / crash events
  bool record_deliveries = true;  // delivery events (can be voluminous)
  HaltPolicy halt_policy = HaltPolicy::kContinueForever;
  // Worker-pool participants driving the per-round waves; 0 = one per
  // hardware thread.  Results are byte-identical at any value.
  std::size_t engine_threads = 1;
  // Shard count; 0 = one shard per participant, clamped to n.  Setting
  // engine_shards > 1 with engine_threads == 1 runs the same sharded
  // decomposition single-threaded — the bench baseline for measuring pure
  // thread scaling.
  std::size_t engine_shards = 0;
  // Optional fault plan (env/faults.hpp), aliased for the run's lifetime;
  // nullptr = the fault-free reliable network.  When active, the engine
  // forces the per-link path (fault fates are per-link, so uniform
  // aggregation would be wrong) — fates are pure in (round, sender,
  // receiver), so reports stay byte-identical at every thread/shard count.
  const FaultPlan* faults = nullptr;
};

struct RunResult {
  Round rounds = 0;    // engine rounds executed
  bool stopped = false;  // stop condition met (vs. max_rounds exhausted)
};

template <GirafMessage M>
class LockstepNet {
 public:
  LockstepNet(std::vector<std::unique_ptr<Automaton<M>>> automatons,
              const DelayModel& delays, CrashPlan crashes,
              LockstepOptions opt = {})
      : n_(automatons.size()),
        link_(delays, std::move(crashes), n_, opt),
        opt_(opt) {
    ANON_CHECK(n_ > 0);
    procs_.reserve(n_);
    for (auto& a : automatons)
      procs_.push_back(std::make_unique<GirafProcess<M>>(std::move(a)));
    halted_.assign(n_, 0);
    decision_round_.assign(n_, kNoRound);
    crash_round_.assign(n_, kNeverCrashes);
    for (ProcId p = 0; p < n_; ++p) {
      crash_round_[p] = link_.crashes().crash_round(p);
      if (crash_round_[p] != kNeverCrashes)
        trace_.record_crash(p, crash_round_[p] + 1);
    }
    init_shards();
  }

  // The engine aliases `delays` for its whole lifetime (models are shared,
  // immutable and typically outlive whole sweeps); binding a temporary
  // would dangle on the first delay probe.  Deleted overload rejects the
  // temporary at compile time — construct the model in an outer scope.
  LockstepNet(std::vector<std::unique_ptr<Automaton<M>>> automatons,
              const DelayModel&& delays, CrashPlan crashes,
              LockstepOptions opt = {}) = delete;

  std::size_t n() const { return n_; }
  Round round() const { return round_; }
  const Trace& trace() const { return trace_; }
  const GirafProcess<M>& process(ProcId p) const { return *procs_[p]; }
  GirafProcess<M>& process(ProcId p) { return *procs_[p]; }

  std::optional<Value> decision(ProcId p) const { return procs_[p]->decision(); }

  bool is_correct(ProcId p) const { return !link_.crashes().ever_crashes(p); }

  bool all_correct_decided() const {
    for (ProcId p = 0; p < n_; ++p)
      if (is_correct(p) && !decision(p).has_value()) return false;
    return true;
  }

  // First engine round at which process p was decided (kNoRound if never).
  Round decision_round(ProcId p) const { return decision_round_[p]; }

  // Transport counters (net/link.hpp, LinkCounters): `sends` counts every
  // attempted send, fault drops included.
  std::uint64_t deliveries() const { return ctr_.deliveries; }
  std::uint64_t sends() const { return ctr_.sends; }
  std::uint64_t bytes_sent() const { return ctr_.bytes; }
  std::uint64_t fault_drops() const { return ctr_.drops; }
  std::uint64_t fault_dups() const { return ctr_.dups; }

  // Shards the engine actually runs.
  std::size_t engine_shards() const { return shards_.size(); }

  // Largest far-early overflow parking any inbox ever reached.  Lock-step
  // delivery never runs ahead of the window, so this should stay 0 — a
  // nonzero value flags an engine/schedule bug (the window itself hard-caps
  // growth at InboxWindow::kOverflowParkLimit).
  std::size_t inbox_overflow_high_water() const {
    std::size_t hw = 0;
    for (const auto& p : procs_)
      hw = std::max(hw, p->inboxes().overflow_high_water());
    return hw;
  }

  // Far-early batches the inbox windows shed at the park limit instead of
  // parking (graceful degradation under heavy reorder/churn — a counted
  // drop, never an abort).
  std::size_t inbox_overflow_dropped() const {
    std::size_t dropped = 0;
    for (const auto& p : procs_) dropped += p->inboxes().overflow_dropped();
    return dropped;
  }

  // Runs until stop(net) is true (checked after deliveries, before the next
  // end-of-round wave) or until max_rounds engine rounds have executed.
  template <typename StopFn>
  RunResult run(StopFn stop) {
    if (round_ == 0) bootstrap();
    while (round_ < opt_.max_rounds) {
      deliver_due(round_);
      if (stop(*this)) return {round_, true};
      advance_round();  // computes, broadcasts and decision stamps
    }
    return {round_, false};
  }

  RunResult run_until_all_correct_decided() {
    return run([](const LockstepNet& net) { return net.all_correct_decided(); });
  }

  RunResult run_rounds(Round rounds) {
    const Round target = round_ + rounds;
    return run([target](const LockstepNet& net) { return net.round() >= target; });
  }

 private:
  // One exact per-link delivery: used for crashing senders, non-uniform
  // rounds, fault plans and per-link trace mode.  A sender's round-k batch
  // is interned once per round by its shard (shared immutable payload,
  // deduplicated across senders by content digest), so the entry is
  // pointer-sized and receiver-side inbox dedup is a pointer/digest
  // compare, not a set-of-sets comparison.
  struct Exact {
    ProcId receiver;
    ProcId sender;
    Round msg_round;
    SharedBatch<M> payload;
  };

  // An end-of-round-wave output entry for another shard, parked in the
  // sender shard's outbox until the receiver shard merges it into its
  // calendar (next delivery wave).
  struct OutEntry {
    Round due;
    Exact e;
  };

  // A uniform-delay payload group: every non-crashing sender of round
  // `msg_round` whose (canonical) batch is `payload`.  Delivery pushes the
  // payload once per alive receiver — receiver-side dedup makes the g
  // pointer-identical pushes of per-link delivery and this single push
  // indistinguishable — while the transport counters still account every
  // (sender, receiver) link individually.
  struct Group {
    SharedBatch<M> payload;
    Round msg_round = 0;
    std::vector<ProcId> members;  // senders, globally ascending
  };

  // A shard's uniform senders of one (shard-local) payload this wave: the
  // shard-side half of group building.  Recycled by count, not clear(), so
  // member capacity survives rounds.
  struct PreGroup {
    SharedBatch<M> payload;       // shard-local (pre-canonicalization)
    std::vector<ProcId> members;  // this shard's senders, ascending
  };

  struct Shard {
    ProcId begin = 0, end = 0;  // contiguous process range [begin, end)
    BatchInterner<M> interner;  // per-shard; canonicalized at the barrier
    // Deliveries to this shard.  The shard owns it in both waves: its own
    // senders' links are scheduled here during the end-of-round wave,
    // other shards' links are merged from their outboxes in the delivery
    // wave.
    RoundCalendar<Exact> calendar;
    std::vector<std::vector<OutEntry>> outbox;  // [receiver shard]
    std::vector<PreGroup> pregroups;  // this wave's uniform senders, grouped
    std::size_t pregroup_count = 0;   // live prefix of `pregroups`
    // Payload -> pregroup index, populated only past kGroupScanLimit
    // distinct payloads (the linear scan covers the common case for free).
    std::unordered_map<const MessageBatch<M>*, std::size_t> pregroup_index;
    std::vector<EndOfRoundEvent> eor_buf;    // spliced in shard order
    std::vector<DeliveryEvent> delivery_buf;  // sorted at the barrier
    std::vector<Exact> due_scratch;          // recycled take_due buffer
    LinkCounters ctr;  // folded at the barriers
  };

  // Above this many distinct payloads, pointer lookups (pregroups within a
  // shard, groups at the barrier) switch from linear scan to a hash index.
  // Steady-state rounds see a handful of distinct payloads and never touch
  // the maps (linear scan allocates nothing).
  static constexpr std::size_t kGroupScanLimit = 32;

  void init_shards() {
    const auto [participants, shards] =
        resolve_engine_shards(opt_.engine_threads, opt_.engine_shards, n_);
    participants_ = participants;
    shards_.resize(shards);
    std::vector<ShardRange> ranges;
    balanced_ranges(n_, shards, &ranges);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_[s].begin = static_cast<ProcId>(ranges[s].first);
      shards_[s].end = static_cast<ProcId>(ranges[s].second);
      shards_[s].outbox.resize(shards);
    }
  }

  bool receives_at(ProcId q, Round r) const {
    return r < crash_round_[q] && !halted_[q];
  }

  // ---- round phases ---------------------------------------------------------

  void bootstrap() {
    decision_round_.assign(n_, kNoRound);
    eor_wave(/*next=*/1);
    round_ = 1;
  }

  void advance_round() {
    const Round next = round_ + 1;
    eor_wave(next);
    round_ = next;
  }

  // ---- end-of-round wave ---------------------------------------------------

  void eor_wave(Round next) {
    const std::optional<Round> ud = link_.uniform_delay(next);
    // Wave arguments are staged in members so the job lambda captures only
    // `this`: it stays within std::function's small-buffer optimization
    // and the dispatch itself allocates nothing.
    wave_round_ = next;
    wave_ud_ = ud;
    wave_plt_ = opt_.record_trace && opt_.record_deliveries;
    WorkerPool::parallel_for_shared(
        shards_.size(),
        [this](std::size_t s) {
          shard_eor(s, wave_round_, wave_ud_, wave_plt_);
        },
        participants_);
    merge_eor_barrier(next, ud);
  }

  void shard_eor(std::size_t s, Round next, std::optional<Round> ud,
                 bool per_link_trace) {
    Shard& sh = shards_[s];
    sh.interner.round_reset();
    sh.pregroup_count = 0;
    for (ProcId p = sh.begin; p < sh.end; ++p) {
      if (next > crash_round_[p] || halted_[p]) continue;
      shard_step_eor(s, p, next, ud, per_link_trace);
    }
    // Decision stamps: a process first seen decided after the computes of
    // wave `next` decided in round next - 1.  The bootstrap wave (next ==
    // 1) runs no compute and records nothing; the next == 2 scan covers
    // the full shard range (not just the stepped processes), so it stamps
    // bootstrap-decided processes with round 1.
    if (next >= 2) {
      for (ProcId p = sh.begin; p < sh.end; ++p)
        if (decision_round_[p] == kNoRound && procs_[p]->decision().has_value())
          decision_round_[p] = next - 1;
    }
  }

  void shard_step_eor(std::size_t s, ProcId p, Round k,
                      std::optional<Round> ud, bool per_link_trace) {
    Shard& sh = shards_[s];
    auto out = procs_[p]->end_of_round();
    ANON_CHECK(out.round == k);
    if (opt_.record_trace) sh.eor_buf.push_back({p, k, k});
    if (opt_.halt_policy == HaltPolicy::kStopAfterDecide &&
        procs_[p]->decision().has_value())
      halted_[p] = 1;

    std::size_t batch_bytes = 0;
    for (const M& m : out.batch) batch_bytes += MessageSizeOf<M>::size(m);
    const SharedBatch<M> payload = sh.interner.intern(out.batch);
    const LinkSend send{k, p, ud, crash_round_[p] == k, payload->size(),
                        batch_bytes};

    if (ud.has_value() && !send.crashing && !per_link_trace) {
      // Uniform fast path: every link has delay *ud, so the n-1 per-link
      // calendar entries collapse to counter arithmetic plus one pregroup
      // membership (merged across shards at the barrier).  Per-link trace
      // mode opts out — it needs the individual link events.
      sh.ctr.count_sends(n_ - 1, send.msgs, send.bytes);
      sh.pregroups[find_or_add_pregroup(sh, payload)].members.push_back(p);
      return;
    }

    // Per-link fallback, walking the receivers shard range by shard range.
    // A link into the sender's own shard goes straight into that shard's
    // calendar, which this shard owns in both waves; only cross-shard
    // links park in an outbox until the delivery wave.
    for (std::size_t t = 0; t < shards_.size(); ++t) {
      const bool own = t == s;
      for (ProcId q = shards_[t].begin; q < shards_[t].end; ++q) {
        if (q == p) continue;
        link_.route(send, q, sh.ctr, [&](Round due) {
          if (own)
            sh.calendar.schedule(due, Exact{q, p, k, payload});
          else
            sh.outbox[t].push_back({due, Exact{q, p, k, payload}});
        });
      }
    }
  }

  // A shard's pregroup lookup during the wave: linear scan through the few
  // live pregroups, hash index past kGroupScanLimit.  Steady state: scan
  // hit, zero allocations (pregroups recycle by count, keeping capacity).
  std::size_t find_or_add_pregroup(Shard& sh, const SharedBatch<M>& payload) {
    if (sh.pregroup_count <= kGroupScanLimit) {
      for (std::size_t i = 0; i < sh.pregroup_count; ++i)
        if (sh.pregroups[i].payload.get() == payload.get()) return i;
    } else if (auto it = sh.pregroup_index.find(payload.get());
               it != sh.pregroup_index.end()) {
      return it->second;
    }
    const std::size_t idx = sh.pregroup_count;
    if (idx == sh.pregroups.size()) sh.pregroups.emplace_back();
    PreGroup& pg = sh.pregroups[idx];
    pg.payload = payload;
    pg.members.clear();
    ++sh.pregroup_count;
    if (sh.pregroup_count == kGroupScanLimit + 1) {
      sh.pregroup_index.clear();
      for (std::size_t i = 0; i < sh.pregroup_count; ++i)
        sh.pregroup_index.emplace(sh.pregroups[i].payload.get(), i);
    } else if (sh.pregroup_count > kGroupScanLimit + 1) {
      sh.pregroup_index.emplace(payload.get(), idx);
    }
    return idx;
  }

  // Barrier-side group lookup, same hybrid shape over this wave's groups.
  std::size_t find_or_add_group(SharedBatch<M> canon, Round next) {
    if (wave_groups_.size() <= kGroupScanLimit) {
      for (std::size_t g = 0; g < wave_groups_.size(); ++g)
        if (wave_groups_[g]->payload.get() == canon.get()) return g;
    } else if (auto it = group_index_.find(canon.get());
               it != group_index_.end()) {
      return it->second;
    }
    std::shared_ptr<Group> grp;
    if (!group_pool_.empty()) {
      grp = std::move(group_pool_.back());
      group_pool_.pop_back();
    } else {
      grp = std::make_shared<Group>();
    }
    grp->payload = std::move(canon);
    grp->msg_round = next;
    grp->members.clear();
    wave_groups_.push_back(std::move(grp));
    group_totals_.push_back(0);
    if (wave_groups_.size() == kGroupScanLimit + 1) {
      group_index_.clear();
      for (std::size_t g = 0; g < wave_groups_.size(); ++g)
        group_index_.emplace(wave_groups_[g]->payload.get(), g);
    } else if (wave_groups_.size() > kGroupScanLimit + 1) {
      group_index_.emplace(wave_groups_.back()->payload.get(),
                           wave_groups_.size() - 1);
    }
    return wave_groups_.size() - 1;
  }

  // The serial slice between the waves: splice trace buffers and counters
  // (shard order = process order), canonicalize freshly interned payloads
  // across shards, and merge the shards' pregroups into per-payload
  // groups.  The only O(n) work left — copying member lists into the
  // global groups — runs as a second sharded pass; everything serial here
  // is O(shards × distinct payloads).  Scratch lives in the round arena,
  // reclaimed wholesale by the reset at the next barrier.
  void merge_eor_barrier(Round next, std::optional<Round> ud) {
    for (Shard& sh : shards_) {
      for (const EndOfRoundEvent& e : sh.eor_buf)
        trace_.record_end_of_round(e.process, e.round, e.time);
      sh.eor_buf.clear();
      ctr_.fold(sh.ctr);
    }
    arena_.reset();
    // Cross-shard canonicalization (net/link.hpp), applied to pregroups
    // below and to outbox entries in the delivery wave.  Links a shard
    // scheduled straight into its own calendar may keep the shard-local
    // object: every observable is content-based.  One shard's interner is
    // already unique by content: nothing to remap.
    if (shards_.size() > 1)
      canon_.rebuild(shards_.size(), [this](std::size_t s) -> const auto& {
        return shards_[s].interner.fresh();
      });

    // Merge the shards' pregroups by canonical payload.  Shard order then
    // in-shard order keeps every group's `members` globally ascending; the
    // serial half only assigns (group, offset) slots, and the member lists
    // themselves are copied shard-parallel below.
    if (!ud.has_value()) return;
    wave_groups_.clear();
    group_totals_.clear();
    struct BuildRef {
      std::uint32_t shard, pregroup, group;
      std::size_t offset;  // into the group's member list
    };
    ArenaVector<BuildRef> refs{ArenaAlloc<BuildRef>(&arena_)};
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      for (std::uint32_t i = 0; i < sh.pregroup_count; ++i) {
        SharedBatch<M> canonical = sh.pregroups[i].payload;
        canon_.apply(canonical);
        const std::size_t g = find_or_add_group(std::move(canonical), next);
        refs.push_back({s, i, static_cast<std::uint32_t>(g),
                        group_totals_[g]});
        group_totals_[g] += sh.pregroups[i].members.size();
      }
    }
    for (std::size_t g = 0; g < wave_groups_.size(); ++g)
      wave_groups_[g]->members.resize(group_totals_[g]);
    if (!refs.empty()) {
      const ArenaVector<BuildRef>* refp = &refs;
      WorkerPool::parallel_for_shared(
          shards_.size(),
          [this, refp](std::size_t s) {
            for (const BuildRef& br : *refp) {
              if (br.shard != s) continue;
              PreGroup& pg = shards_[s].pregroups[br.pregroup];
              std::copy(pg.members.begin(), pg.members.end(),
                        wave_groups_[br.group]->members.begin() + br.offset);
              pg.payload.reset();
              pg.members.clear();
            }
          },
          participants_);
    }
    for (std::shared_ptr<Group>& g : wave_groups_)
      group_cal_.schedule(next + *ud, std::move(g));
    wave_groups_.clear();
    if (!group_index_.empty()) group_index_.clear();
  }

  // ---- delivery wave -------------------------------------------------------

  void deliver_due(Round r) {
    group_cal_.advance_to(r);
    group_cal_.take_due_into(due_groups_);
    wave_round_ = r;
    wave_plt_ = opt_.record_trace && opt_.record_deliveries;
    WorkerPool::parallel_for_shared(
        shards_.size(),
        [this](std::size_t t) { shard_deliver(t, wave_round_, wave_plt_); },
        participants_);
    for (Shard& sh : shards_) ctr_.fold(sh.ctr);
    if (wave_plt_) splice_delivery_events();
    // Retire this round's groups into the pool (sole-owner refs only):
    // steady-state rounds rebuild the same few groups, so group
    // construction stops allocating after warm-up.
    for (std::shared_ptr<const Group>& g : due_groups_) {
      if (g.use_count() != 1) continue;
      auto mg = std::const_pointer_cast<Group>(g);
      mg->payload.reset();
      mg->members.clear();
      group_pool_.push_back(std::move(mg));
    }
    due_groups_.clear();
  }

  void shard_deliver(std::size_t t, Round r, bool per_link_trace) {
    Shard& sh = shards_[t];
    // 1. Merge the last wave's cross-shard links bound for this shard into
    //    its calendar, remapping payloads to their canonical object.  A
    //    due slot thus holds each wave's own-shard links (scheduled during
    //    the wave) before its cross-shard ones, not in global sender order.
    //    That is unobservable: inbox views sort by digest, counters are
    //    sums, and per-link trace events are sorted at
    //    splice_delivery_events.
    for (Shard& from : shards_) {
      std::vector<OutEntry>& box = from.outbox[t];
      for (OutEntry& oe : box) {
        canon_.apply(oe.e.payload);
        sh.calendar.schedule(oe.due, std::move(oe.e));
      }
      box.clear();
    }
    // 2. Exact per-link deliveries due this round.
    sh.calendar.advance_to(r);
    sh.calendar.take_due_into(sh.due_scratch);
    for (Exact& e : sh.due_scratch) {
      if (!receives_at(e.receiver, r)) continue;
      procs_[e.receiver]->receive(e.payload, e.msg_round);
      sh.ctr.deliveries += e.payload->size();
      if (per_link_trace)
        sh.delivery_buf.push_back({e.sender, e.msg_round, e.receiver,
                                   procs_[e.receiver]->round(), r});
    }
    sh.due_scratch.clear();  // drop the payload refs until the next round
    // 3. Uniform payload groups (a group of g senders is one content push
    //    per alive receiver — g per-link pushes of the same payload dedup
    //    to the same view — plus exact link accounting: g messages per
    //    non-member, g-1 per member).
    for (const std::shared_ptr<const Group>& g : due_groups_) {
      const std::uint64_t sz = g->payload->size();
      const std::uint64_t gsize = g->members.size();
      if (gsize == 1) {
        // A lone member must not receive its own broadcast back: past the
        // inbox window's clamp horizon that content would no longer be in
        // its view, so the self-push would be observable.
        const ProcId lone = g->members[0];
        for (ProcId q = sh.begin; q < sh.end; ++q) {
          if (q == lone || !receives_at(q, r)) continue;
          procs_[q]->receive(g->payload, g->msg_round);
          sh.ctr.deliveries += sz;
        }
        continue;
      }
      for (ProcId q = sh.begin; q < sh.end; ++q) {
        if (!receives_at(q, r)) continue;
        procs_[q]->receive(g->payload, g->msg_round);
        sh.ctr.deliveries += sz * gsize;
      }
      // Members received from the other g-1 senders, not all g.
      auto it = std::lower_bound(g->members.begin(), g->members.end(),
                                 sh.begin);
      for (; it != g->members.end() && *it < sh.end; ++it)
        if (receives_at(*it, r)) sh.ctr.deliveries -= sz;
    }
  }

  // Per-link trace mode: delivery events in (msg_round, sender, receiver)
  // order — the order of a naive engine that walks senders, then
  // receivers (tests/serial_lockstep_oracle.hpp) — a key unique per round.
  // One shard's calendar already yields that order: every link enters it
  // in the end-of-round wave, senders and receivers ascending.  With more
  // shards the cross-shard links arrive later (see shard_deliver), so the
  // shards' buffers are sorted here.
  void splice_delivery_events() {
    delivery_splice_.clear();
    for (Shard& sh : shards_) {
      delivery_splice_.insert(delivery_splice_.end(), sh.delivery_buf.begin(),
                              sh.delivery_buf.end());
      sh.delivery_buf.clear();
    }
    if (shards_.size() > 1)
      std::sort(delivery_splice_.begin(), delivery_splice_.end(),
                [](const DeliveryEvent& a, const DeliveryEvent& b) {
                  if (a.msg_round != b.msg_round)
                    return a.msg_round < b.msg_round;
                  if (a.sender != b.sender) return a.sender < b.sender;
                  return a.receiver < b.receiver;
                });
    for (const DeliveryEvent& e : delivery_splice_)
      trace_.record_delivery(e.sender, e.msg_round, e.receiver,
                             e.receiver_round, e.time);
  }

  std::size_t n_ = 0;
  LinkRules link_;
  LockstepOptions opt_;
  std::vector<std::unique_ptr<GirafProcess<M>>> procs_;
  Trace trace_;
  Round round_ = 0;

  // Struct-of-arrays hot state: the per-round scans (who steps, who
  // receives, who decided) touch these flat arrays, not the process
  // objects.  halted_ is uint8_t, not vector<bool> — shard threads write
  // disjoint indices, and bit-packing would make those writes race.
  std::vector<Round> crash_round_;
  std::vector<std::uint8_t> halted_;
  std::vector<Round> decision_round_;

  std::vector<Shard> shards_;  // S >= 1
  std::size_t participants_ = 1;
  RoundCalendar<std::shared_ptr<const Group>> group_cal_;
  std::vector<std::shared_ptr<const Group>> due_groups_;
  std::vector<DeliveryEvent> delivery_splice_;
  // Wave arguments staged for the [this]-only job lambdas (read-only while
  // a wave runs), plus the barrier's group-building state: this wave's
  // groups and their member counts, a pool of retired Group objects, the
  // past-the-scan-limit hash fallback, and the barrier scratch arena.
  Round wave_round_ = 0;
  std::optional<Round> wave_ud_;
  bool wave_plt_ = false;
  std::vector<std::shared_ptr<Group>> wave_groups_;
  std::vector<std::size_t> group_totals_;
  std::vector<std::shared_ptr<Group>> group_pool_;
  std::unordered_map<const MessageBatch<M>*, std::size_t> group_index_;
  PayloadCanon<M> canon_;  // rebuilt at each merge barrier (S > 1)
  RoundArena arena_;
  LinkCounters ctr_;
};

}  // namespace anon
