// Small measurement helpers shared by anonbench: a monotonic
// clock, percentiles, peak RSS, the seeded input generator and the metric
// map anonbench prints as its last output line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample;
// 0 for an empty sample.
double percentile(std::vector<double> xs, double q);
double median(std::vector<double> xs);

// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

// The benchmark's own input generator (SplitMix64): inputs depend on the
// seed and on this code only, never on the library's RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : s_(seed ^ 0x5eedbe4c4a11ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  // Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  std::uint64_t s_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one anonbench run prints: the operation accounting, the verdict of the
// output checks (with a diagnostic naming workload, seed and operation on
// failure) and the metrics of the selected mode.
struct RunOutput {
  bool correct = true;
  std::string diagnostic;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // Each distinct operation's latencies over the timed rounds, in round
  // order, and whether it is deterministic, for pooling a run made of
  // several processes (perfbench/run.py).
  std::vector<std::vector<double>> op_samples_ms;
  std::vector<bool> op_deterministic;

  void fail(const std::string& why) {
    if (correct) diagnostic = why;
    correct = false;
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where a traced run writes its spans ("" = nowhere)
  Clock::time_point process_start;
};

// The latencies op_p50_ms and op_p90_ms are percentiles of.  A deterministic
// (simulated) operation does the same work every time, so its repetitions
// differ only by the host's speed, which changes in spells of seconds; each
// of them counts as the operation's mean.  A median over the repetitions
// themselves would jump between a fast and a slow spell where the mean moves
// with their share of the run.  A live operation's repetitions differ in what
// the service does (rounds to a decision), so each counts as measured.
std::vector<double> pooled_latencies_ms(const std::vector<std::vector<double>>& op_samples_ms,
                                        const std::vector<bool>& deterministic);

// The end-to-end metrics every workload reports with tracing off.
// op_latencies_s holds whole rounds of the round's operations, round after
// round.
void set_end_to_end(RunOutput& out, double setup_s, double run_s,
                    const std::vector<double>& op_latencies_s,
                    const std::vector<bool>& deterministic);

// The per-layer metric names and units, in report order.  A traced run
// prints every one of them; a layer the workload does not exercise
// reports 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
