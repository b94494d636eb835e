#include "kernel/nic.hpp"

#include <memory>
#include <utility>
#include <vector>

namespace quicsteps::kernel {

void Nic::deliver(net::Packet pkt) {
  const sim::Time now = loop_.now();

  if (pkt.is_gso_buffer()) {
    // Segmentation happens here, at the driver boundary. Stock GSO releases
    // all segments immediately (they then serialize back-to-back at line
    // rate); the paced-GSO patch spaces segment i by i * seg/rate.
    const bool paced = !pkt.gso_pacing_rate.is_zero();
    sim::Time release = now;
    // A buffer that is uniquely ours at the driver boundary moves its
    // segment train straight into the slab (no per-segment Packet copy);
    // one still shared elsewhere is copied from.
    const bool owned = pkt.gso_segments.use_count() == 1;
    auto& segments = const_cast<std::vector<net::Packet>&>(*pkt.gso_segments);
    for (auto& seg : segments) {
      const std::int64_t seg_bytes = seg.size_bytes;
      net::Packet segment = owned ? std::move(seg) : seg;
      segment.kernel_entry_time = pkt.kernel_entry_time;
      QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kGsoSegment,
                           trace_component_, now, segment);
      transmit(std::move(segment), release);
      if (paced) release += pkt.gso_pacing_rate.transmit_time(seg_bytes);
    }
    if (owned) {
      // The buffer is spent; hand the husk (and its capacity) back to the
      // slab pool so the next sendmsg_gso reuses it instead of allocating.
      segments.clear();
      wire_.slab().put_gso_buffer(
          std::const_pointer_cast<std::vector<net::Packet>>(
              std::move(pkt.gso_segments)));
    }
    return;
  }

  sim::Time earliest = now;
  if (config_.launch_time && pkt.has_txtime) {
    if (pkt.txtime > now) {
      earliest = pkt.txtime + os_.rng().uniform_duration(
                                  sim::Duration::zero(),
                                  config_.launch_jitter_max);
    } else if (config_.drop_missed_launch) {
      // The launch slot has passed before the descriptor reached the NIC.
      ++missed_launch_drops_;
      return;
    }
  }
  transmit(std::move(pkt), earliest);
}

void Nic::transmit(net::Packet pkt, sim::Time earliest) {
  const sim::Time start = sim::max(sim::max(loop_.now(), earliest), busy_until_);
  const sim::Duration tx = config_.line_rate.transmit_time(pkt.size_bytes);
  busy_until_ = start + tx;
  ++packets_sent_;
  QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kNicTx, trace_component_,
                       start, pkt);
  // Completions are never cancelled, so the record can be slotless.
  loop_.post_drain_at(busy_until_, wire_.channel(),
                      wire_.slab().put(std::move(pkt)));
}

TxWire::TxWire(sim::EventLoop& loop, net::PacketSlab& slab,
               net::PacketSink& downstream)
    : slab_(slab),
      downstream_(downstream),
      channel_(loop.register_drain(sim::EventClass::kTransmit,
                                   &TxWire::drain_tx, this)) {}

void TxWire::drain_tx(void* self, std::uint32_t ref) {
  TxWire* wire = static_cast<TxWire*>(self);
  wire->downstream_.deliver(wire->slab_.take(ref));
}

}  // namespace quicsteps::kernel
