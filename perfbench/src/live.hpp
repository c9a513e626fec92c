// The live (anonsvc) side of the benchmark: the decomposed live cells of
// the live-mixed workload, and the open-loop client phase of its traced
// runs.
#pragma once

#include <optional>
#include <vector>

#include "scenario/report.hpp"
#include "scenario/spec.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "weakset/ws_register.hpp"

namespace perfbench {

// One transport-"live" consensus cell, layer by layer, as the scenario
// layer's live runner does it: boot a loopback cluster, ask every correct
// node for its decision, stop.  `decisions` receives each node's answer.
anon::ConsensusCellOutcome live_consensus_cell(
    const anon::ScenarioSpec& spec, Tracer* tr,
    std::vector<std::optional<anon::Value>>* decisions);

// One transport-"live" ABD cell: a write on node 0, then a read on another
// node.  `history` receives the two calls on one steady clock.
anon::AbdCellOutcome live_abd_cell(const anon::ScenarioSpec& spec, Tracer* tr,
                                   std::vector<anon::RegOpRecord>* history);

// Traced live-mixed runs only: an open-loop, fixed-rate mix of ws_get,
// reg_read and reg_write calls on one cluster, for the svc per-layer
// metrics (per-call service time, achieved round length, frames and bytes
// per call, generator lateness).  Its histories are checked; its calls
// count in `out.attempted` / `out.failed`.
void run_open_loop_phase(const RunArgs& args, Tracer& tracer, RunOutput& out);

}  // namespace perfbench
