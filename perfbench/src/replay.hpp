// Replays of the layers that run inside EventLoop::run_until, through their
// public classes, on inputs sized from a workload's own counters. Each
// returns the best (least host-perturbed) of a few timed repetitions.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "framework/topology.hpp"
#include "sim/event_loop.hpp"

namespace perfbench {

struct ReplayCost {
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
  std::int64_t ops = 0;
};

/// Hold model on sim::EventLoop: `depth` pending events, each execution
/// schedules its successor with a class drawn from `class_mix` and a delay
/// averaging `mean_delay_ns`, and re-arms (schedules then cancels) a timer
/// at `cancels_per_event`. ns per executed event.
ReplayCost replay_event_loop(
    std::int64_t depth, std::int64_t mean_delay_ns, double cancels_per_event,
    const std::array<std::uint64_t, quicsteps::sim::kEventClassCount>&
        class_mix);

/// quic::SentPacketMap at `depth` packets in flight: add one packet, and
/// ACK the two oldest with on_ack_blocks every second add. ns per packet.
ReplayCost replay_sent_map(std::int64_t depth);

/// The sender qdisc named `name` (fq, fq_codel, etf, pfifo_fast), built as
/// framework::SenderPath builds it: bursts of `backlog` packets spread
/// over `flows` flow ids are enqueued, then drained through the event
/// loop. ns per packet enqueued.
ReplayCost replay_qdisc(const std::string& name, std::int64_t backlog,
                        std::int64_t flows, std::int64_t packet_bytes,
                        const quicsteps::framework::TopologyConfig& topology);

/// net::FlowTableSink with `flows` routes, fed trains of `train_length`
/// packets per flow id drawn at random. ns per lookup.
ReplayCost replay_flow_table(std::int64_t flows, double train_length);

}  // namespace perfbench
