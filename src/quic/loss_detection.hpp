// Loss detection per RFC 9002 Section 6: packet-number threshold, time
// threshold, and the probe timeout (PTO). Persistent congestion (§7.6) is
// detected across consecutive lost packets.
#pragma once

#include <cstdint>
#include <vector>

#include "quic/rtt_estimator.hpp"
#include "quic/sent_packet_map.hpp"
#include "sim/time.hpp"

namespace quicsteps::quic {

class LossDetection {
 public:
  struct Config {
    int packet_threshold = 3;          // kPacketThreshold
    double time_threshold = 9.0 / 8.0; // kTimeThreshold
    sim::Duration granularity = sim::Duration::millis(1);
    sim::Duration max_ack_delay = sim::Duration::millis(25);
    int persistent_congestion_threshold = 3;
  };

  struct Result {
    std::vector<SentPacket> lost;
    bool persistent_congestion = false;
    /// Earliest instant a still-tracked packet could be declared lost by
    /// the time threshold; infinite if none.
    sim::Time next_loss_time = sim::Time::infinite();
  };

  LossDetection() : LossDetection(Config{}) {}
  explicit LossDetection(Config config) : config_(config) {}

  /// Scans `map` for packets now considered lost given `largest_acked`.
  /// Lost packets are REMOVED from the map during the scan. The result is
  /// a member buffer, valid until the next call, so a loss episode reuses
  /// the capacity of the last one instead of allocating.
  const Result& detect(SentPacketMap& map, std::uint64_t largest_acked,
                       const RttEstimator& rtt, sim::Time now);

  /// PTO deadline given the oldest outstanding ack-eliciting packet.
  sim::Time pto_deadline(const SentPacketMap& map, const RttEstimator& rtt,
                         int pto_count) const;

  const Config& config() const { return config_; }

 private:
  sim::Duration loss_delay(const RttEstimator& rtt) const;

  Config config_;
  Result result_;
};

}  // namespace quicsteps::quic
