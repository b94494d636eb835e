// Packet-train report (paper Figures 3, 4, 5, 6, right panels).
//
// Definition from the paper: all consecutive packets with an inter-packet
// gap below 0.1 ms each form one packet train; a single isolated packet is
// a train of length one. The headline metric is the distribution of
// PACKETS across train lengths (not the distribution of trains), which is
// how the paper weights its percentages ("packet trains consisting of five
// packets or less contain 99.9 % of the packets"). Computed by
// CaptureAnalyzer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace quicsteps::metrics {

struct TrainReport {
  /// packets_by_length[L] = number of PACKETS that sit in trains of
  /// length L.
  std::map<std::size_t, std::int64_t> packets_by_length;
  std::int64_t total_packets = 0;

  /// Fraction of packets in trains of length <= n.
  double fraction_in_trains_up_to(std::size_t n) const {
    if (total_packets == 0) return 0.0;
    std::int64_t covered = 0;
    for (const auto& [len, packets] : packets_by_length) {
      if (len <= n) covered += packets;
    }
    return static_cast<double>(covered) / static_cast<double>(total_packets);
  }
  std::size_t max_train_length() const {
    return packets_by_length.empty() ? 0 : packets_by_length.rbegin()->first;
  }
};

}  // namespace quicsteps::metrics
