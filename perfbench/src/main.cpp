// anonbench: runs one workload of the repository benchmark.
//
//   anonbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones.  Untraced runs also list each distinct operation's
// latencies ("op_samples_ms") and whether it is deterministic
// ("op_deterministic"), which perfbench/run.py pools across the processes of
// a run.  A wrong output prints correct=false with a diagnostic on
// standard error naming the workload, seed and operation, and exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunArgs;
using perfbench::RunOutput;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "anonbench: %s\nusage: anonbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]"
               "\nworkloads:",
               why);
  for (const auto& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        if (!(a.seconds > 0 && a.seconds <= 3600)) usage("--seconds must be in (0, 3600]");
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--trace-dir") {
        a.trace_dir = val;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print(const RunOutput& out) {
  std::string line = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}, \"op_samples_ms\": [";
  for (std::size_t i = 0; i < out.op_samples_ms.size(); ++i) {
    line += i > 0 ? ",[" : "[";
    for (std::size_t k = 0; k < out.op_samples_ms[i].size(); ++k) {
      if (k > 0) line += ',';
      line += number(out.op_samples_ms[i][k]);
    }
    line += ']';
  }
  line += "], \"op_deterministic\": [";
  for (std::size_t i = 0; i < out.op_deterministic.size(); ++i)
    line += std::string(i > 0 ? "," : "") + (out.op_deterministic[i] ? "true" : "false");
  line += "]}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  RunArgs args = parse(argc, argv);
  args.process_start = process_start;

  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == args.workload;
  if (!known) usage(("unknown workload " + args.workload).c_str());

  RunOutput out;
  try {
    out = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    out.fail("workload " + args.workload + ", seed " + std::to_string(args.seed) +
             ": " + e.what());
  }
  if (!out.correct) std::fprintf(stderr, "anonbench: WRONG OUTPUT: %s\n", out.diagnostic.c_str());
  print(out);
  return out.correct ? 0 : 1;
}
