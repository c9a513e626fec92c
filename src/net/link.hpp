// The link layer shared by both round engines (see DESIGN.md).
//
// The paper's adversary acts on each sender→receiver link separately: a
// per-round delay (`DelayModel`) and the audience of a crashing sender's
// final broadcast (`CrashPlan`); an active `FaultPlan` adds drops, extra
// delays and duplicates.  `LockstepNet` and `CohortNet` differ only in how
// they aggregate uniform rounds and where a routed link lands, so every
// per-link rule, the transport counters and the cross-shard payload
// canonicalization live here, once.  tests/serial_lockstep_oracle.hpp
// keeps its own per-link loop: the reference both engines are tested
// against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "env/faults.hpp"
#include "giraf/inbox.hpp"
#include "net/schedule.hpp"

namespace anon {

// Transport counters of an engine, or of a shard between two barriers.
// `sends` counts every attempted per-message send, drops included;
// duplicates are the network's, not the sender's, and are not sends.
struct LinkCounters {
  std::uint64_t sends = 0;
  std::uint64_t bytes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t drops = 0;  // fault-plan drops, per message
  std::uint64_t dups = 0;   // fault-plan duplicates, per message

  // `links` links, each carrying a `msgs`-message batch of `batch_bytes`.
  void count_sends(std::uint64_t links, std::uint64_t msgs,
                   std::uint64_t batch_bytes) {
    sends += links * msgs;
    bytes += links * batch_bytes;
  }

  // Adds `from` into these counters and zeroes it.
  void fold(LinkCounters& from) {
    sends += from.sends;
    bytes += from.bytes;
    deliveries += from.deliveries;
    drops += from.drops;
    dups += from.dups;
    from = {};
  }
};

// One sender's round-k broadcast, as the link rules see it.
struct LinkSend {
  Round k = 0;
  ProcId sender = 0;
  std::optional<Round> ud;  // the round's uniform delay, if any
  bool crashing = false;    // k is the sender's crash round
  std::uint64_t msgs = 0;   // messages in the batch
  std::uint64_t bytes = 0;  // MessageSizeOf-weighted batch size
};

// The per-link rules of one run: immutable after construction, shared
// read-only by every engine shard.
class LinkRules {
 public:
  // `opt` is the engine's option set (LockstepOptions, CohortOptions): its
  // seed, relay knobs and fault plan.
  template <typename EngineOptions>
  LinkRules(const DelayModel& delays, CrashPlan crashes, std::size_t n,
            const EngineOptions& opt)
      : delays_(delays),
        crashes_(std::move(crashes)),
        n_(n),
        seed_(opt.seed),
        relay_partial_broadcast_(opt.relay_partial_broadcast),
        relay_extra_delay_(opt.relay_extra_delay),
        faults_(opt.faults != nullptr && opt.faults->active() ? opt.faults
                                                              : nullptr) {}

  const CrashPlan& crashes() const { return crashes_; }

  // The round's uniform delay, if every link of round k shares one.  Fault
  // fates vary per link, so an active plan leaves no round uniform: both
  // engines then take their per-link paths.
  std::optional<Round> uniform_delay(Round k) const {
    if (faults_ != nullptr) return std::nullopt;
    return delays_.uniform_delay(k);
  }

  // Routes `s` over the link to receiver q ≠ s.sender and calls post(due)
  // once per copy that will arrive: never, once, or twice for a duplicate.
  // A crashing sender's non-audience gets the message late when
  // `relay_partial_broadcast` is set (the relay of a uniform reliable
  // broadcast layer), never otherwise (best-effort broadcast).
  template <typename Post>
  void route(const LinkSend& s, ProcId q, LinkCounters& ctr,
             Post&& post) const {
    Round d = s.ud.has_value() ? *s.ud : delays_.delay(s.k, s.sender, q);
    if (s.crashing && !crashes_.in_final_audience(s.sender, q, n_, seed_)) {
      if (!relay_partial_broadcast_) return;  // lost forever
      d = std::max<Round>(d, 1) + relay_extra_delay_;
    }
    ctr.count_sends(1, s.msgs, s.bytes);
    const LinkFate f =
        faults_ != nullptr ? faults_->fate(s.k, s.sender, q) : LinkFate{};
    if (!f.deliver) {
      ctr.drops += s.msgs;
      return;
    }
    d += f.extra_delay;
    post(s.k + d);
    if (f.duplicate) {
      // dup_delay >= 1: the copy lands in a later delivery round, so it is
      // observable (same-round copies dedup away in the set view) and the
      // per-round trace key stays unique.
      ctr.dups += s.msgs;
      post(s.k + d + f.dup_delay);
    }
  }

 private:
  const DelayModel& delays_;
  CrashPlan crashes_;
  std::size_t n_;
  std::uint64_t seed_;  // picks hash-chosen crash audiences
  bool relay_partial_broadcast_;
  Round relay_extra_delay_;
  const FaultPlan* faults_;  // null unless the plan is active
};

// Cross-shard payload canonicalization.  Each engine shard interns its
// batches privately, so two shards can hold two objects for one content.
// First discovery wins: the first shard (in shard order) to intern a
// content provides the network-wide object; later objects of that content
// get a remap entry to it.  The winner is unobservable (every observable
// is content-based); sorting flat (digest, discovery-seq) entries makes it
// deterministic with no node allocations.  One interner is already unique
// by content, so engines skip the rebuild at one shard.
template <typename M>
class PayloadCanon {
 public:
  // Rebuilds the remap table from `shards` interners' fresh lists, where
  // fresh_of(s) returns shard s's `BatchInterner::fresh()`.
  template <typename FreshOf>
  void rebuild(std::size_t shards, FreshOf&& fresh_of) {
    remap_.clear();
    scratch_.clear();
    std::uint32_t seq = 0;
    for (std::size_t s = 0; s < shards; ++s)
      for (const SharedBatch<M>& b : fresh_of(s))
        scratch_.push_back({b->digest, seq++, b});
    if (scratch_.size() <= 1) return;
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Entry& a, const Entry& b) {
                if (a.digest != b.digest) return a.digest < b.digest;
                return a.seq < b.seq;
              });
    for (std::size_t i = 0; i < scratch_.size();) {
      std::size_t j = i + 1;
      while (j < scratch_.size() && scratch_[j].digest == scratch_[i].digest)
        ++j;
      // Within a digest run, the first entry of each distinct content is
      // canonical; later content-equal ones are remapped to it.
      for (std::size_t a = i; j - i >= 2 && a < j; ++a) {
        if (scratch_[a].batch == nullptr) continue;  // remapped already
        for (std::size_t b = a + 1; b < j; ++b) {
          if (scratch_[b].batch == nullptr) continue;
          if (scratch_[a].batch->msgs == scratch_[b].batch->msgs) {
            remap_.push_back({scratch_[b].batch.get(), scratch_[a].batch});
            scratch_[b].batch = nullptr;
          }
        }
      }
      i = j;
    }
    scratch_.clear();  // drop the payload refs until the next rebuild
    std::sort(remap_.begin(), remap_.end(),
              [](const Remap& a, const Remap& b) { return a.from < b.from; });
  }

  bool empty() const { return remap_.empty(); }

  // Rewrites `payload` to its canonical object if it lost.  Read-only, so
  // shards may call it concurrently between rebuilds.
  void apply(SharedBatch<M>& payload) const {
    if (remap_.empty()) return;
    auto it = std::lower_bound(
        remap_.begin(), remap_.end(), payload.get(),
        [](const Remap& e, const MessageBatch<M>* key) {
          return e.from < key;
        });
    if (it != remap_.end() && it->from == payload.get()) payload = it->to;
  }

 private:
  struct Entry {
    std::uint64_t digest;
    std::uint32_t seq;  // discovery order: shard order, in-shard order
    SharedBatch<M> batch;
  };
  struct Remap {
    const MessageBatch<M>* from = nullptr;
    SharedBatch<M> to;
  };
  std::vector<Entry> scratch_;
  std::vector<Remap> remap_;  // sorted by `from`
};

}  // namespace anon
