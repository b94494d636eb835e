// Per-packet path digest of a finished trace.
//
// Groups a TraceData's spans by (flow, packet id), one group per wire
// packet, and derives the study's core quantity: the pacing error at every
// stage — span time minus the pacer's intended send time — so "where did
// the schedule slip" is answerable per layer, not just at the tap
// (metrics::PrecisionReport measures only the wire stage; the wire-stage
// statistics here must and do agree with it).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/quantile_sketch.hpp"
#include "obs/trace.hpp"

namespace quicsteps::obs {

/// Per-stage pacing-error aggregation (microseconds).
struct StageErrorReport {
  TraceStage stage = TraceStage::kPacerRelease;
  QuantileSketch error_us;
  double mean_us() const {
    return error_us.count() == 0
               ? 0.0
               : static_cast<double>(error_us.sum()) /
                     static_cast<double>(error_us.count());
  }
};

/// The per-run trace digest, computed in two passes straight off the span
/// stream without materializing a timeline per packet.
struct TraceSummary {
  /// Distinct (flow, packet id) groups: every traced packet, paced or not.
  std::int64_t packets = 0;
  /// Groups whose spans include both the pacer release and delivery.
  std::int64_t complete_chains = 0;
  /// Pacing error per stage over every group that carries a pacer intent
  /// (its first non-zero intended time), stages in path order. Only stages
  /// that observed at least one such packet appear.
  std::vector<StageErrorReport> errors;
};
TraceSummary summarize_trace(const TraceData& data);

}  // namespace quicsteps::obs
