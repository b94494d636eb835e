#include "metrics/capture_analysis.hpp"

#include <algorithm>

namespace quicsteps::metrics {

void CaptureAnalyzer::add(const net::Packet& pkt) {
  if (pkt.flow != config_.flow) return;
  if (pkt.kind != net::PacketKind::kQuicData &&
      pkt.kind != net::PacketKind::kTcpData) {
    return;
  }

  // Precision offset. GSO hides per-packet expectations (one timestamp per
  // buffer), so the paper measures precision without GSO; segments beyond
  // the first carry no expectation of their own and are skipped.
  if (!(pkt.gso_buffer_id != 0 && pkt.gso_segment_index != 0)) {
    const sim::Duration offset = pkt.wire_time - pkt.expected_send_time;
    if (config_.lite) {
      offset_stream_.push(offset.to_millis());
    } else {
      offsets_ms_.push_back(offset.to_millis());
    }
  }

  if (data_packets_ > 0) {
    const sim::Duration gap = pkt.wire_time - last_time_;
    if (config_.lite) {
      gap_stream_.push(gap.to_millis());
    } else {
      gaps_ms_.push_back(gap.to_millis());
    }
    if (gap <= config_.back_to_back_bound) ++b2b_gaps_;
    if (gap < sim::Duration::micros(1500)) ++below_1500us_gaps_;
    if (gap < config_.train_threshold) {
      ++current_train_;
    } else {
      packets_by_length_[current_train_] +=
          static_cast<std::int64_t>(current_train_);
      current_train_ = 1;
    }
  } else {
    current_train_ = 1;
  }
  last_time_ = pkt.wire_time;
  ++data_packets_;
}

CaptureAnalysis CaptureAnalyzer::finish() const {
  CaptureAnalysis out;

  const std::size_t gap_count =
      config_.lite ? gap_stream_.count() : gaps_ms_.size();
  out.gaps.gaps_ms = gaps_ms_;  // empty in lite mode
  if (gap_count > 0) {
    const double n = static_cast<double>(gap_count);
    out.gaps.back_to_back_fraction = static_cast<double>(b2b_gaps_) / n;
    out.gaps.below_1500us_fraction =
        static_cast<double>(below_1500us_gaps_) / n;
    out.gaps.summary_ms =
        config_.lite ? gap_stream_.summary() : summarize(out.gaps.gaps_ms);
  }

  out.trains.packets_by_length = packets_by_length_;
  if (data_packets_ > 0) {
    // Close the open train without disturbing the incremental state.
    out.trains.packets_by_length[current_train_] +=
        static_cast<std::int64_t>(current_train_);
  }
  out.trains.total_packets = data_packets_;

  if (config_.lite) {
    out.precision.samples = offset_stream_.count();
    out.precision.summary_ms = offset_stream_.summary();
  } else {
    out.precision.samples = offsets_ms_.size();
    out.precision.summary_ms = summarize(offsets_ms_);
  }
  out.precision.precision_ms = out.precision.summary_ms.stddev;

  out.wire_data_packets = data_packets_;
  return out;
}

CaptureAnalysis CaptureAnalyzer::analyze(
    const std::vector<net::Packet>& capture) const {
  CaptureAnalyzer pass(config_);
  for (const auto& pkt : capture) pass.add(pkt);
  return pass.finish();
}

std::size_t FlowCaptureDemux::add_flow(std::uint32_t flow,
                                       CaptureAnalyzer::Config config) {
  config.flow = flow;
  slots_.push_back(Slot{flow, CaptureAnalyzer(config)});
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size() - 1);
  const auto pos = std::lower_bound(
      index_.begin(), index_.end(), flow,
      [](const auto& entry, std::uint32_t id) { return entry.first < id; });
  if (pos == index_.end() || pos->first != flow) {
    // Duplicate registrations keep routing to the first slot, as the old
    // linear scan did.
    index_.insert(pos, {flow, slot});
  }
  return slot;
}

int FlowCaptureDemux::add(const net::Packet& pkt) {
  // Burst cache: wire packets arrive in per-flow trains.
  if (last_hit_ < slots_.size() && slots_[last_hit_].flow == pkt.flow) {
    slots_[last_hit_].analyzer.add(pkt);
    return static_cast<int>(last_hit_);
  }
  // Branchless binary search over the sorted (flow -> slot) index.
  std::size_t lo = 0;
  std::size_t len = index_.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    lo += index_[lo + half - 1].first < pkt.flow ? half : 0;
    len -= half;
  }
  if (len == 1 && index_[lo].first == pkt.flow) {
    const std::size_t slot = index_[lo].second;
    last_hit_ = slot;
    slots_[slot].analyzer.add(pkt);
    return static_cast<int>(slot);
  }
  return -1;
}

void FlowCaptureDemux::analyze(const std::vector<net::Packet>& capture) {
  for (const auto& pkt : capture) add(pkt);
}

}  // namespace quicsteps::metrics
