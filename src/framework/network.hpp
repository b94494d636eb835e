// The datapath fabric: one wiring for any sender count.
//
//   SenderPath      one sender's kernel egress: [qdisc under test] -> NIC
//                   (1 Gbit/s, optional LaunchTime) -> the wire.
//   BottleneckPath  everything the senders share: WIRE TAP (sniffer) ->
//                   TBF 40 Mbit/s (DROPS HAPPEN HERE) -> netem +20 ms ->
//                   client UDP receiver -> per-flow dispatch table, plus
//                   the ACK return path (netem +20 ms -> server receiver
//                   -> dispatch back to the owning sender).
//
// framework::Network (flows.hpp) composes N sender hosts onto one shared
// path. A harness whose endpoints ExperimentConfig cannot express wires
// the same pieces itself: an OsModel (fork salt 1), a BottleneckPath on
// it, a SenderPath on the path's nic_wire(), then register_flow for each
// endpoint pair.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/conservation_auditor.hpp"
#include "framework/topology.hpp"
#include "kernel/nic.hpp"
#include "kernel/os_model.hpp"
#include "kernel/qdisc.hpp"
#include "kernel/qdisc_netem.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "kernel/udp_socket.hpp"
#include "net/counters.hpp"
#include "net/flow_table.hpp"
#include "net/packet_slab.hpp"
#include "net/wire_tap.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace quicsteps::framework {

/// One sender's kernel egress chain, built per `config.server_qdisc`:
/// the qdisc under test feeding a NIC that serializes onto `wire` (the
/// shared path's, which carries its packet slab).
class SenderPath {
 public:
  SenderPath(sim::EventLoop& loop, const TopologyConfig& config,
             kernel::OsModel& os, kernel::TxWire& wire);

  /// Head of the chain: the stack's UdpSocket target.
  net::PacketSink* egress() { return qdisc_.get(); }
  kernel::Qdisc& qdisc() { return *qdisc_; }
  const kernel::Qdisc& qdisc() const { return *qdisc_; }

  /// Registers this sender's kernel stages (qdisc, NIC) on `bus` under
  /// `prefix` and installs their span hookups.
  void set_trace(obs::TraceBus& bus, const std::string& prefix);

 private:
  std::unique_ptr<kernel::Nic> nic_;
  std::unique_ptr<kernel::Qdisc> qdisc_;
};

/// Everything between the senders' NICs and the endpoints, shared by all
/// flows: tap, bottleneck TBF, both netem delays, both UDP receivers, and
/// the flow-id dispatch tables that route each packet to the endpoint
/// owning its flow.
///
/// `server_recv_os` models the kernel that runs the server-side ACK
/// receiver (the first sender host's OS). RNG forks are salt-addressed:
/// client OS = fork(2), data netem = fork(3), ack netem = fork(4). The
/// salts are the historical wiring's, so an N=1 run keeps its wire bits.
class BottleneckPath {
 public:
  BottleneckPath(sim::EventLoop& loop, const TopologyConfig& config,
                 sim::Rng& rng, kernel::OsModel& server_recv_os);

  /// The tap (then TBF, netem, client).
  net::PacketSink* wire_ingress() { return tap_.get(); }
  /// Where sender NICs serialize to: completions feed wire_ingress().
  kernel::TxWire& nic_wire() { return nic_wire_; }
  /// Where client endpoints send ACKs: netem back toward the servers.
  net::PacketSink* ack_ingress() { return &ack_netem_; }

  /// Routes flow `id`'s data packets (client side) to `data` and its ACKs
  /// (server side) to `ack`. Packets of unregistered ids trip
  /// QUICSTEPS_AUDIT.
  void register_flow(std::uint32_t id, net::PacketSink* data,
                     net::PacketSink* ack);
  /// Bulk registration bracket for fabric-scale flow counts: reserves the
  /// dispatch tables and the drop-attribution array for `expected` flows,
  /// turns each register_flow into O(1) appends, and sorts everything once
  /// at finish. Optional — incremental register_flow keeps working (and is
  /// what the N<=8 paths use).
  void begin_flow_registration(std::size_t expected);
  void finish_flow_registration();

  net::WireTap& tap() { return *tap_; }
  const net::WireTap& tap() const { return *tap_; }
  /// The shared packet slab. Sender paths built on this bottleneck join
  /// the same slab.
  net::PacketSlab& slab() { return slab_; }
  const kernel::TbfQdisc& bottleneck() const { return bottleneck_; }

  /// Total bottleneck drops — the paper's "dropped packets" column.
  std::int64_t bottleneck_drops() const {
    return bottleneck_.counters().packets_dropped;
  }
  /// Drops attributed to one flow (who actually lost the buffer race).
  std::int64_t bottleneck_drops(std::uint32_t flow) const;

  /// Appends the shared stages to a counter table / conservation auditor
  /// (the caller adds its per-sender qdisc stages). The auditor borrows
  /// this path's counters — audit() while it is alive.
  void add_counters(net::CountersTable& table) const;
  void add_conservation_stages(check::ConservationAuditor& auditor) const;

  /// Registers every shared stage (tap, bottleneck, netems, receivers) on
  /// `bus` and installs their span hookups — component names match the
  /// counter-table rows.
  void set_trace(obs::TraceBus& bus);

 private:
  kernel::OsModel client_os_;

  // The flat packet store every datapath component shares — constructed
  // first so it outlives the components holding a reference to it.
  net::PacketSlab slab_;

  // Dispatch tables outlive the receivers that deliver into them.
  net::FlowTableSink data_dispatch_;
  net::FlowTableSink ack_dispatch_;

  // Data path, downstream-first construction order.
  std::unique_ptr<kernel::UdpReceiver> client_receiver_;
  kernel::NetemQdisc data_netem_;
  kernel::TbfQdisc bottleneck_;
  std::unique_ptr<net::WireTap> tap_;
  kernel::TxWire nic_wire_;

  // ACK path.
  std::unique_ptr<kernel::UdpReceiver> server_receiver_;
  kernel::NetemQdisc ack_netem_;

  /// Index of `flow` in drop_flow_ids_, or drop_flow_ids_.size() when the
  /// id was never registered. Branchless binary search — the drop observer
  /// runs on the bottleneck's per-drop hot path.
  std::size_t drop_slot(std::uint32_t flow) const;

  // Per-flow drop attribution, flat instead of a map: ids sorted after
  // registration, counts aligned by index. A drop costs one branchless
  // search + one increment, not a map node touch.
  std::vector<std::uint32_t> drop_flow_ids_;
  std::vector<std::int64_t> drop_counts_;
  bool registering_ = false;
};

}  // namespace quicsteps::framework
