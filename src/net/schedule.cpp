#include "net/schedule.hpp"

namespace anon {

std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) {
  std::uint64_t x = seed;
  auto mix = [&x](std::uint64_t v) {
    x ^= v + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
  };
  mix(a);
  mix(b);
  mix(c);
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t hash_below(std::uint64_t h, std::uint64_t bound) {
  // Multiply-shift: maps h uniformly-enough into [0, bound) for simulation
  // purposes without division bias concerns at our tiny bounds.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * bound) >> 64);
}

bool CrashPlan::in_final_audience(ProcId sender, ProcId receiver,
                                  std::size_t n, std::uint64_t seed) const {
  auto it = specs_.find(sender);
  if (it == specs_.end()) return true;
  const CrashSpec& spec = it->second;
  if (spec.final_recipients.has_value())
    return std::binary_search(spec.final_recipients->begin(),
                              spec.final_recipients->end(), receiver);
  (void)n;
  const std::uint64_t h =
      hash_mix(seed ^ 0xabcdef1234567890ULL, sender, receiver, spec.crash_round);
  return (static_cast<double>(h >> 11) * 0x1.0p-53) < spec.final_fraction;
}

std::vector<ProcId> CrashPlan::correct(std::size_t n) const {
  std::vector<ProcId> out;
  for (ProcId p = 0; p < n; ++p)
    if (!ever_crashes(p)) out.push_back(p);
  return out;
}

std::vector<std::pair<ProcId, Round>> CrashPlan::crashing(
    std::size_t n) const {
  std::vector<std::pair<ProcId, Round>> out;
  for (const auto& [p, spec] : specs_)
    if (p < n && spec.crash_round != kNeverCrashes)
      out.emplace_back(p, spec.crash_round);
  return out;
}

}  // namespace anon
