#include "framework/network.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "check/audit.hpp"
#include "kernel/qdisc_etf.hpp"
#include "kernel/qdisc_fifo.hpp"
#include "kernel/qdisc_fq.hpp"
#include "kernel/qdisc_fq_codel.hpp"

namespace quicsteps::framework {

namespace {

/// netem queue sized to two BDPs so it never drops (paper Section 3.2).
constexpr std::int64_t kNetemLimitPackets = 100000;
/// Receive buffer of both UDP receivers (client data, server ACKs).
constexpr std::int64_t kRcvbufBytes = 50 * 1024 * 1024;

}  // namespace

SenderPath::SenderPath(sim::EventLoop& loop, const TopologyConfig& config,
                       kernel::OsModel& os, kernel::TxWire& wire) {
  kernel::Nic::Config nic_cfg;
  nic_cfg.line_rate = config.server_nic_rate;
  nic_cfg.launch_time = config.server_qdisc == QdiscKind::kEtfOffload;
  nic_cfg.drop_missed_launch = config.drop_missed_launch;
  nic_ = std::make_unique<kernel::Nic>(loop, nic_cfg, os, wire);

  switch (config.server_qdisc) {
    case QdiscKind::kFifo:
      qdisc_ = std::make_unique<kernel::FifoQdisc>(
          loop, kernel::FifoQdisc::Config{}, nic_.get());
      break;
    case QdiscKind::kFqCodel: {
      kernel::FqCodelQdisc::Config cfg;
      cfg.drain_rate = config.server_nic_rate;
      qdisc_ = std::make_unique<kernel::FqCodelQdisc>(loop, cfg, nic_.get());
      break;
    }
    case QdiscKind::kFq:
      qdisc_ = std::make_unique<kernel::FqQdisc>(
          loop, kernel::FqQdisc::Config{}, os, nic_.get());
      break;
    case QdiscKind::kEtf:
    case QdiscKind::kEtfOffload:
      qdisc_ = std::make_unique<kernel::EtfQdisc>(loop, config.etf, os,
                                                  nic_.get());
      break;
  }
}

void SenderPath::set_trace(obs::TraceBus& bus, const std::string& prefix) {
  qdisc_->set_trace(
      &bus, bus.register_component(prefix + "qdisc/" + qdisc_->name()));
  nic_->set_trace(&bus, bus.register_component(prefix + "nic"));
}

BottleneckPath::BottleneckPath(sim::EventLoop& loop,
                               const TopologyConfig& config, sim::Rng& rng,
                               kernel::OsModel& server_recv_os)
    : client_os_(kernel::OsTimingConfig{}, rng.fork(2)),
      client_receiver_(std::make_unique<kernel::UdpReceiver>(
          loop, slab_, client_os_, kRcvbufBytes,
          [this](net::Packet pkt) { data_dispatch_.deliver(std::move(pkt)); },
          config.client_gro_window)),
      data_netem_(loop, slab_,
                  {.delay = config.path_delay_one_way,
                   .limit_packets = kNetemLimitPackets,
                   .loss_probability = config.path_loss_probability,
                   .reorder_probability = config.path_reorder_probability},
                  rng.fork(3), client_receiver_.get()),
      bottleneck_(loop, slab_,
                  {.rate = config.bottleneck_rate,
                   .burst_bytes = config.tbf_burst_bytes,
                   .limit_bytes = config.bottleneck_buffer_bytes},
                  &data_netem_),
      tap_(std::make_unique<net::WireTap>(loop, &bottleneck_)),
      nic_wire_(loop, slab_, *tap_),
      server_receiver_(std::make_unique<kernel::UdpReceiver>(
          loop, slab_, server_recv_os, kRcvbufBytes,
          [this](net::Packet pkt) { ack_dispatch_.deliver(std::move(pkt)); })),
      ack_netem_(loop, slab_,
                 {.delay = config.path_delay_one_way,
                  .limit_packets = kNetemLimitPackets},
                 rng.fork(4), server_receiver_.get()) {
  bottleneck_.set_drop_observer([this](const net::Packet& pkt) {
    const std::size_t slot = drop_slot(pkt.flow);
    QUICSTEPS_AUDIT(slot < drop_counts_.size(),
                    "bottleneck drop for unregistered flow " +
                        std::to_string(pkt.flow));
    if (slot < drop_counts_.size()) ++drop_counts_[slot];
  });
}

void BottleneckPath::register_flow(std::uint32_t id, net::PacketSink* data,
                                   net::PacketSink* ack) {
  data_dispatch_.add_route(id, data);
  ack_dispatch_.add_route(id, ack);
  if (registering_) {
    drop_flow_ids_.push_back(id);  // sorted at finish_flow_registration
    return;
  }
  const auto pos =
      std::lower_bound(drop_flow_ids_.begin(), drop_flow_ids_.end(), id);
  if (pos != drop_flow_ids_.end() && *pos == id) return;  // add_route audited
  drop_counts_.insert(
      drop_counts_.begin() + (pos - drop_flow_ids_.begin()), 0);
  drop_flow_ids_.insert(pos, id);
}

void BottleneckPath::begin_flow_registration(std::size_t expected) {
  registering_ = true;
  data_dispatch_.begin_bulk(expected);
  ack_dispatch_.begin_bulk(expected);
  drop_flow_ids_.reserve(drop_flow_ids_.size() + expected);
}

void BottleneckPath::finish_flow_registration() {
  registering_ = false;
  data_dispatch_.finish_bulk();
  ack_dispatch_.finish_bulk();
  std::sort(drop_flow_ids_.begin(), drop_flow_ids_.end());
  drop_counts_.assign(drop_flow_ids_.size(), 0);
}

std::size_t BottleneckPath::drop_slot(std::uint32_t flow) const {
  std::size_t lo = 0;
  std::size_t len = drop_flow_ids_.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    lo += drop_flow_ids_[lo + half - 1] < flow ? half : 0;
    len -= half;
  }
  if (len == 1 && drop_flow_ids_[lo] == flow) return lo;
  return drop_flow_ids_.size();
}

std::int64_t BottleneckPath::bottleneck_drops(std::uint32_t flow) const {
  const std::size_t slot = drop_slot(flow);
  return slot < drop_counts_.size() ? drop_counts_[slot] : 0;
}

void BottleneckPath::add_counters(net::CountersTable& table) const {
  table.add("bottleneck/tbf", bottleneck_.counters());
  table.add("path/data_netem", data_netem_.counters());
  table.add("path/ack_netem", ack_netem_.counters());
}

void BottleneckPath::set_trace(obs::TraceBus& bus) {
  // Registration order is wire order; the names mirror add_counters rows
  // so the trace's component table and the counter table line up.
  tap_->set_trace(&bus, bus.register_component("wire/tap"));
  bottleneck_.set_trace(&bus, bus.register_component("bottleneck/tbf"));
  data_netem_.set_trace(&bus, bus.register_component("path/data_netem"));
  client_receiver_->set_trace(&bus, bus.register_component("client/udp_rx"));
  ack_netem_.set_trace(&bus, bus.register_component("path/ack_netem"));
  server_receiver_->set_trace(&bus, bus.register_component("server/udp_rx"));
}

void BottleneckPath::add_conservation_stages(
    check::ConservationAuditor& auditor) const {
  const std::size_t tbf = auditor.add_stage(
      "bottleneck/tbf", bottleneck_.counters(),
      [this] { return static_cast<std::int64_t>(bottleneck_.backlog_packets()); });
  const std::size_t netem = auditor.add_stage(
      "path/data_netem", data_netem_.counters(),
      [this] { return data_netem_.in_flight(); });
  auditor.add_stage("path/ack_netem", ack_netem_.counters(),
                    [this] { return ack_netem_.in_flight(); });
  // The TBF hands released packets straight to netem in the same event, so
  // their books must agree exactly at every instant.
  auditor.add_edge(tbf, netem);
}

}  // namespace quicsteps::framework
