// The benchmark's two run modes.
#pragma once

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Tracing off: for `seconds`, times whole iterations of the workload through run_flows
/// and reports the end-to-end metrics.
Outcome run_e2e(const Workload& w, double seconds);

/// Traced run: assembles each simulation from the pieces run_flows uses,
/// times spans around them, replays the inner layers, and reports the
/// per-layer ledger.
Outcome run_ledger(const Workload& w, double seconds);

}  // namespace perfbench
