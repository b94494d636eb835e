// Inter-packet gap report (paper Figures 2, 4, 5, 6, left panels).
//
// Computed by CaptureAnalyzer from the sniffer capture: wire timestamps of
// the server's DATA packets only (ACKs flow the other way and handshake
// packets are not part of the steady transfer).
#pragma once

#include <vector>

#include "metrics/stats.hpp"

namespace quicsteps::metrics {

struct GapReport {
  /// All inter-packet gaps in milliseconds, capture order.
  std::vector<double> gaps_ms;
  /// Fraction of gaps at or below the back-to-back bound (serialization
  /// delay plus measurement slack).
  double back_to_back_fraction = 0.0;
  /// Fraction of gaps below 1.5 ms (the paper's "majority" observation).
  double below_1500us_fraction = 0.0;
  Summary summary_ms;

  Cdf cdf() const { return Cdf(gaps_ms); }
};

}  // namespace quicsteps::metrics
