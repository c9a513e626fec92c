// A naive, single-threaded per-link lock-step engine: the differential
// oracle for LockstepNet (net/lockstep.hpp).
//
// It walks all n processes every round and keeps one calendar entry per
// (sender, receiver) link — no shards, no uniform-delay groups, no
// cross-shard canonicalization, no wave barriers — so it is small enough
// to check by eye against the round semantics in DESIGN.md ("Engine-round
// semantics").
// It records the same trace events (end-of-round, per-link delivery,
// crash) and the same counters (sends, bytes, deliveries, fault drops and
// duplicates) as LockstepNet, which must match it byte for byte at every
// shard and thread count (tests/sharded_net_test.cpp).  Its cost is
// Θ(n²) calendar entries per round, so it only serves small test shapes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/calendar.hpp"
#include "env/faults.hpp"
#include "giraf/process.hpp"
#include "giraf/trace.hpp"
#include "net/lockstep.hpp"
#include "net/schedule.hpp"

namespace anon {

template <GirafMessage M>
class SerialLockstepOracle {
 public:
  // Takes LockstepNet's options; engine_threads and engine_shards are
  // ignored.  `delays` is aliased for the oracle's lifetime.
  SerialLockstepOracle(std::vector<std::unique_ptr<Automaton<M>>> automatons,
                       const DelayModel& delays, CrashPlan crashes,
                       LockstepOptions opt = {})
      : delays_(delays), crashes_(std::move(crashes)), opt_(opt) {
    ANON_CHECK(!automatons.empty());
    n_ = automatons.size();
    for (auto& a : automatons)
      procs_.push_back(std::make_unique<GirafProcess<M>>(std::move(a)));
    halted_.assign(n_, false);
    decision_round_.assign(n_, kNoRound);
    for (ProcId p = 0; p < n_; ++p)
      if (crashes_.ever_crashes(p))
        trace_.record_crash(p, crashes_.crash_round(p) + 1);
  }

  std::size_t n() const { return n_; }
  Round round() const { return round_; }
  const Trace& trace() const { return trace_; }
  std::optional<Value> decision(ProcId p) const { return procs_[p]->decision(); }
  Round decision_round(ProcId p) const { return decision_round_[p]; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t sends() const { return sends_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t fault_drops() const { return fault_drops_; }
  std::uint64_t fault_dups() const { return fault_dups_; }

  bool all_correct_decided() const {
    for (ProcId p = 0; p < n_; ++p)
      if (!crashes_.ever_crashes(p) && !decision(p).has_value()) return false;
    return true;
  }

  // LockstepNet::run's phase order: deliver, stop check, end-of-round
  // wave, decision stamps.
  template <typename StopFn>
  RunResult run(StopFn stop) {
    if (round_ == 0) {
      interner_.round_reset();
      for (ProcId p = 0; p < n_; ++p) step_eor(p, 1);
      round_ = 1;
    }
    while (round_ < opt_.max_rounds) {
      deliver_due(round_);
      if (stop(*this)) return {round_, true};
      const Round next = round_ + 1;
      interner_.round_reset();  // payload sharing is per (content, round)
      for (ProcId p = 0; p < n_; ++p)
        if (next <= crashes_.crash_round(p) && !halted_[p]) step_eor(p, next);
      round_ = next;
      // The computes just executed were compute(round_ - 1).
      for (ProcId p = 0; p < n_; ++p)
        if (decision_round_[p] == kNoRound && decision(p).has_value())
          decision_round_[p] = round_ - 1;
    }
    return {round_, false};
  }

  RunResult run_until_all_correct_decided() {
    return run([](const SerialLockstepOracle& net) {
      return net.all_correct_decided();
    });
  }

  RunResult run_rounds(Round rounds) {
    const Round target = round_ + rounds;
    return run([target](const SerialLockstepOracle& net) {
      return net.round() >= target;
    });
  }

 private:
  struct Pending {
    ProcId receiver;
    ProcId sender;
    Round msg_round;
    SharedBatch<M> payload;
  };

  // End-of-round k of process p: one calendar entry per outgoing link.
  void step_eor(ProcId p, Round k) {
    auto out = procs_[p]->end_of_round();
    ANON_CHECK(out.round == k);
    if (opt_.record_trace) trace_.record_end_of_round(p, k, k);
    if (opt_.halt_policy == HaltPolicy::kStopAfterDecide &&
        decision(p).has_value())
      halted_[p] = true;

    std::size_t batch_bytes = 0;
    for (const M& m : out.batch) batch_bytes += MessageSizeOf<M>::size(m);
    const SharedBatch<M> payload = interner_.intern(out.batch);
    const std::uint64_t msgs = payload->size();

    const bool crashing = crashes_.crash_round(p) == k;
    for (ProcId q = 0; q < n_; ++q) {
      if (q == p) continue;
      Round d = delays_.delay(k, p, q);
      if (crashing && !crashes_.in_final_audience(p, q, n_, opt_.seed)) {
        if (!opt_.relay_partial_broadcast) continue;  // lost forever
        d = std::max<Round>(d, 1) + opt_.relay_extra_delay;
      }
      sends_ += msgs;
      bytes_sent_ += batch_bytes;
      if (opt_.faults != nullptr && opt_.faults->active()) {
        const LinkFate f = opt_.faults->fate(k, p, q);
        if (!f.deliver) {
          fault_drops_ += msgs;
          continue;
        }
        d += f.extra_delay;
        calendar_.schedule(k + d, Pending{q, p, k, payload});
        if (f.duplicate) {
          fault_dups_ += msgs;
          calendar_.schedule(k + d + f.dup_delay, Pending{q, p, k, payload});
        }
        continue;
      }
      calendar_.schedule(k + d, Pending{q, p, k, payload});
    }
  }

  void deliver_due(Round r) {
    // A slot holds its entries in scheduling order — msg_round, then
    // sender, then receiver ascending — which is the per-link trace order.
    calendar_.advance_to(r);
    for (const Pending& d : calendar_.take_due()) {
      if (r >= crashes_.crash_round(d.receiver) || halted_[d.receiver])
        continue;  // dead or halted
      procs_[d.receiver]->receive(d.payload, d.msg_round);
      deliveries_ += d.payload->size();
      if (opt_.record_trace && opt_.record_deliveries)
        trace_.record_delivery(d.sender, d.msg_round, d.receiver,
                               procs_[d.receiver]->round(), r);
    }
  }

  std::size_t n_ = 0;
  std::vector<std::unique_ptr<GirafProcess<M>>> procs_;
  const DelayModel& delays_;
  CrashPlan crashes_;
  LockstepOptions opt_;
  Trace trace_;
  Round round_ = 0;
  std::vector<bool> halted_;
  std::vector<Round> decision_round_;
  BatchInterner<M> interner_;
  RoundCalendar<Pending> calendar_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t fault_dups_ = 0;
};

}  // namespace anon
