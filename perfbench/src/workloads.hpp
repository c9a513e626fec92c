// The benchmark's workloads.  Each runs in its own process, from set-up
// through the timed batch to the output checks, and fills a RunOutput.
#pragma once

#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

// consensus-perlink, cohort-scale, sec5-stack, live-mixed.
const std::vector<std::string>& workload_names();
RunOutput run_workload(const RunArgs& args);

}  // namespace perfbench
