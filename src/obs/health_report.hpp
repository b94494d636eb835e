// HealthReport: a deterministic, machine-checkable verdict on a run.
//
// Fleet runs produce too much telemetry to eyeball; CI needs one JSON
// artifact that says whether the run behaved and, when it did not,
// points at the windows where it went wrong. The report is derived
// entirely from already-deterministic inputs (the TimeSeries ring, the
// fleet quantile sketches, the counters table), so its JSON is
// byte-identical between runs of one config — a golden-testable
// artifact, not a log.
//
// Detectors:
//   * stalls        — maximal runs of windows with neither wire activity
//                     nor delivery, strictly between the first and last
//                     active window, longer than k*RTT (a dead bottleneck
//                     mid-run; leading/trailing idle time is not a stall);
//   * pacing spikes — windows whose mean wire-stage pacing error exceeds
//                     a threshold (the pacer's intent collapsed);
//   * drop bursts   — windows where the bottleneck dropped at least
//                     `min_drops` packets AND more than `fraction` of
//                     what it handled (loss concentrated in time);
//   * conservation  — counter rows still holding packets at the end of
//                     the run (in != out + dropped; in-flight leftovers).
//
// healthy() is the CI gate: no stalls, no spikes, no bursts, and every
// flow completed. Conservation deltas are reported but informational —
// a deadline-terminated run legitimately leaves packets queued.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/counters.hpp"
#include "obs/quantile_sketch.hpp"
#include "obs/time_series.hpp"
#include "sim/time.hpp"

namespace quicsteps::obs {

struct HealthThresholds {
  /// A no-activity gap longer than this many RTTs is a stall.
  double stall_rtt_multiple = 4.0;
  /// Windows whose |mean wire-stage pacing error| exceeds this are spikes.
  std::int64_t spike_mean_error_us = 50'000;
  /// Drop-burst window: at least `min_drops` drops and more than
  /// `fraction` of the packets the bottleneck handled that window.
  double drop_burst_fraction = 0.05;
  std::int64_t drop_burst_min_drops = 8;
};

/// Everything the builder needs that is not in the telemetry structures
/// themselves: the path RTT the stall scale hangs off, the thresholds,
/// and the fleet summary the caller already computed.
struct HealthContext {
  sim::Duration rtt;
  HealthThresholds thresholds;
  std::int64_t flows = 0;
  std::int64_t completed_flows = 0;
  double fairness = 0.0;
};

struct HealthReport {
  struct Stall {
    std::int64_t begin_window = 0;  // first idle ordinal of the run
    std::int64_t end_window = 0;    // last idle ordinal (inclusive)
    std::int64_t duration_us = 0;
  };
  struct Spike {
    std::int64_t window = 0;
    std::int64_t mean_error_us = 0;
    std::int64_t samples = 0;
  };
  struct DropBurst {
    std::int64_t window = 0;
    std::int64_t dropped = 0;
    std::int64_t delivered = 0;
  };
  struct ConservationDelta {
    std::string stage;
    std::int64_t queued = 0;
  };
  struct SketchSummary {
    std::int64_t count = 0;
    std::int64_t p50 = 0;
    std::int64_t p90 = 0;
    std::int64_t p99 = 0;
    std::int64_t p999 = 0;
  };

  std::int64_t flows = 0;
  std::int64_t completed_flows = 0;
  double fairness = 0.0;
  std::int64_t window_us = 0;
  std::int64_t windows = 0;
  std::int64_t evicted_windows = 0;
  std::int64_t wire_packets = 0;
  std::int64_t delivered_packets = 0;
  std::int64_t dropped_packets = 0;
  SketchSummary pacing_error_us;
  SketchSummary fct_us;
  std::vector<Stall> stalls;
  std::vector<Spike> pacing_spikes;
  std::vector<DropBurst> drop_bursts;
  std::vector<ConservationDelta> conservation;

  bool healthy() const {
    return stalls.empty() && pacing_spikes.empty() && drop_bursts.empty() &&
           completed_flows == flows;
  }

  /// Fixed-key-order, fixed-precision JSON — byte-deterministic for one
  /// logical report.
  std::string to_json() const;
};

/// Builds the report. `series`, `pacing_error_us`, and `fct_us` may be
/// null (the corresponding sections stay zero/empty); `counters` rows
/// with a nonzero queued balance become conservation deltas.
HealthReport build_health_report(const HealthContext& context,
                                 const TimeSeries* series,
                                 const QuantileSketch* pacing_error_us,
                                 const QuantileSketch* fct_us,
                                 const net::CountersTable& counters);

}  // namespace quicsteps::obs
