#include "quic/loss_detection.hpp"

namespace quicsteps::quic {

sim::Duration LossDetection::loss_delay(const RttEstimator& rtt) const {
  const sim::Duration base = sim::max(rtt.smoothed(), rtt.latest());
  const auto delay = base * config_.time_threshold;
  return sim::max(delay, config_.granularity);
}

const LossDetection::Result& LossDetection::detect(
    SentPacketMap& map, std::uint64_t largest_acked, const RttEstimator& rtt,
    sim::Time now) {
  Result& result = result_;
  result.lost.clear();
  result.persistent_congestion = false;
  result.next_loss_time = sim::Time::infinite();
  const sim::Duration delay = loss_delay(rtt);
  const sim::Time lost_send_time = now - delay;

  map.remove_below_if(
      largest_acked,
      [&](const SentPacket& pkt) {
        if (largest_acked >= pkt.pn + config_.packet_threshold ||
            pkt.time_sent <= lost_send_time) {
          return true;
        }
        result.next_loss_time =
            sim::min(result.next_loss_time, pkt.time_sent + delay);
        return false;
      },
      &result.lost);

  // Persistent congestion: the span of consecutive losses exceeds
  // persistent_congestion_threshold * PTO (RFC 9002 §7.6), only meaningful
  // with RTT samples.
  if (result.lost.size() >= 2 && rtt.has_samples()) {
    const sim::Duration pto = rtt.pto_interval(config_.max_ack_delay);
    const sim::Duration span =
        result.lost.back().time_sent - result.lost.front().time_sent;
    if (span > pto * config_.persistent_congestion_threshold) {
      result.persistent_congestion = true;
    }
  }
  return result;
}

sim::Time LossDetection::pto_deadline(const SentPacketMap& map,
                                      const RttEstimator& rtt,
                                      int pto_count) const {
  const SentPacket* oldest = map.oldest();
  if (oldest == nullptr) return sim::Time::infinite();
  sim::Duration interval = rtt.pto_interval(config_.max_ack_delay);
  for (int i = 0; i < pto_count; ++i) interval = interval * 2;  // backoff
  return oldest->time_sent + interval;
}

}  // namespace quicsteps::quic
