#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> pooled_latencies_ms(const std::vector<std::vector<double>>& op_samples_ms,
                                        const std::vector<bool>& deterministic) {
  std::vector<double> out;
  for (std::size_t i = 0; i < op_samples_ms.size(); ++i) {
    const std::vector<double>& xs = op_samples_ms[i];
    if (!deterministic[i]) {
      out.insert(out.end(), xs.begin(), xs.end());
      continue;
    }
    double sum = 0;
    for (double x : xs) sum += x;
    out.insert(out.end(), xs.size(), sum / static_cast<double>(xs.size()));
  }
  return out;
}

void set_end_to_end(RunOutput& out, double setup_s, double run_s,
                    const std::vector<double>& op_latencies_s,
                    const std::vector<bool>& deterministic) {
  const std::size_t per_round = deterministic.size();
  out.op_samples_ms.assign(per_round, {});
  for (std::size_t idx = 0; idx < op_latencies_s.size(); ++idx)
    out.op_samples_ms[idx % per_round].push_back(1e3 * op_latencies_s[idx]);
  out.op_deterministic = deterministic;
  const std::vector<double> pooled = pooled_latencies_ms(out.op_samples_ms, deterministic);
  out.set("setup_s", setup_s, "s");
  out.set("run_s", run_s, "s");
  out.set("op_p50_ms", percentile(pooled, 0.5), "ms");
  out.set("op_p90_ms", percentile(pooled, 0.9), "ms");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"scenario.decode_us", "us"},
      {"scenario.emit_us", "us"},
      {"env.inputs_ms", "ms"},
      {"env.check_ms", "ms"},
      {"lockstep.run_ms", "ms"},
      {"lockstep.round_us", "us"},
      {"lockstep.deliveries_per_s", "1/s"},
      {"lockstep.deliveries", "count"},
      {"lockstep.rounds", "count"},
      {"lockstep.fault_drops", "count"},
      {"cohort.run_ms", "ms"},
      {"cohort.round_us", "us"},
      {"cohort.deliveries_per_s", "1/s"},
      {"cohort.classes_max", "count"},
      {"cohort.splits", "count"},
      {"cohort.merges", "count"},
      {"cohort.clones", "count"},
      {"cohort.members_per_class", "members/class"},
      {"emul.run_ms", "ms"},
      {"emul.deliveries_per_s", "1/s"},
      {"emul.ticks", "count"},
      {"weakset.run_ms", "ms"},
      {"register.run_ms", "ms"},
      {"weakset.add_rounds", "rounds"},
      {"weakset.check_us", "us"},
      {"register.check_us", "us"},
      {"shm.run_ms", "ms"},
      {"shm.check_us", "us"},
      {"svc.boot_ms", "ms"},
      {"svc.first_decision_ms", "ms"},
      {"svc.stop_ms", "ms"},
      {"svc.ws_get_p50_ms", "ms"},
      {"svc.ws_get_p90_ms", "ms"},
      {"svc.reg_read_p50_ms", "ms"},
      {"svc.reg_read_p90_ms", "ms"},
      {"svc.reg_write_p50_ms", "ms"},
      {"svc.reg_write_p90_ms", "ms"},
      {"svc.round_ms", "ms"},
      {"svc.frames_per_op", "frames/op"},
      {"svc.bytes_per_op", "B/op"},
      {"svc.gen_late_p50_ms", "ms"},
      {"svc.gen_late_max_ms", "ms"},
      {"trace.overhead_s", "s"},
  };
  return kMetrics;
}

}  // namespace perfbench
