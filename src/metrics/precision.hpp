// Pacing precision report (paper Section 4.4).
//
// The paper compares the sender's intended per-packet send timestamp
// (logged by the quiche server) with the actual wire timestamp from the
// sniffer, and reports the STANDARD DEVIATION of the differences — the
// mean is meaningless because server and sniffer clocks are unsynchronized
// there. Our simulated clocks ARE synchronized, but we keep the same
// metric for comparability. Computed by CaptureAnalyzer.
#pragma once

#include <cstddef>

#include "metrics/stats.hpp"

namespace quicsteps::metrics {

struct PrecisionReport {
  /// Summary of wire_time - expected_send_time per packet, in ms.
  Summary summary_ms;
  /// The paper's headline number: stddev of the offsets.
  double precision_ms = 0.0;
  std::size_t samples = 0;
};

}  // namespace quicsteps::metrics
