#include "env/faults.hpp"

#include <algorithm>

namespace anon {
namespace {

// Distinct salts per fault type keep the Bernoulli streams independent
// even though they share one (round, sender, receiver) key.
constexpr std::uint64_t kLossSalt = 0x6c6f73735f6c6bULL;     // "loss_lk"
constexpr std::uint64_t kDupSalt = 0x6475706c6963ULL;        // "duplic"
constexpr std::uint64_t kReorderSalt = 0x72656f72646572ULL;  // "reorder"
constexpr std::uint64_t kStreamSalt = 0x66616c74706c616eULL;  // "fltplan"

}  // namespace

bool hash_chance(std::uint64_t h, double prob) {
  if (prob <= 0) return false;
  if (prob >= 1) return true;
  // 53-bit mantissa uniform in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53 < prob;
}

std::uint64_t fault_stream_seed(std::uint64_t run_seed,
                                std::uint64_t plan_seed) {
  if (plan_seed != 0) return plan_seed;
  return hash_mix(run_seed, kStreamSalt, 0, 0);
}

FaultPlan::FaultPlan(const FaultParams& params, std::uint64_t run_seed,
                     std::size_t n, const DelayModel* delays)
    : params_(params),
      seed_(fault_stream_seed(run_seed, params.seed)),
      delays_(delays),
      active_(params.active()) {
  omission_.assign(n, false);
  for (ProcId p : params_.omission_senders)
    if (p < n) omission_[p] = true;
  churn_ = params_.churn;
  std::sort(churn_.begin(), churn_.end(),
            [](const ChurnSpec& a, const ChurnSpec& b) {
              return a.process < b.process;
            });
}

bool FaultPlan::down(ProcId p, Round k) const {
  auto it = std::lower_bound(
      churn_.begin(), churn_.end(), p,
      [](const ChurnSpec& c, ProcId key) { return c.process < key; });
  for (; it != churn_.end() && it->process == p; ++it)
    if (k >= it->leave && (it->rejoin == 0 || k < it->rejoin)) return true;
  return false;
}

bool FaultPlan::exempt(Round k, ProcId sender) const {
  if (!params_.exempt_source || delays_ == nullptr) return false;
  return delays_->planned_source(k) == sender;
}

LinkFate FaultPlan::fate(Round k, ProcId sender, ProcId receiver) const {
  LinkFate f;
  if (!active_ || exempt(k, sender)) return f;
  if (omission_faulty(sender) || down(sender, k) || down(receiver, k)) {
    f.deliver = false;
    return f;
  }
  if (hash_chance(hash_mix(seed_ ^ kLossSalt, k, sender, receiver),
                  params_.loss_prob)) {
    f.deliver = false;
    return f;
  }
  if (params_.max_extra_delay > 0) {
    const std::uint64_t h = hash_mix(seed_ ^ kReorderSalt, k, sender, receiver);
    if (hash_chance(h, params_.reorder_prob))
      f.extra_delay = 1 + static_cast<Round>(
                              hash_below(h * 0x9e3779b97f4a7c15ULL,
                                         params_.max_extra_delay));
  }
  if (hash_chance(hash_mix(seed_ ^ kDupSalt, k, sender, receiver),
                  params_.dup_prob)) {
    f.duplicate = true;
    f.dup_delay = params_.dup_extra_delay > 0 ? params_.dup_extra_delay : 1;
  }
  return f;
}

}  // namespace anon
