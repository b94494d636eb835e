#include "framework/topology.hpp"

#include <string>
#include <utility>

#include "framework/network.hpp"

namespace quicsteps::framework {

const char* to_string(QdiscKind kind) {
  switch (kind) {
    case QdiscKind::kFifo:
      return "pfifo_fast";
    case QdiscKind::kFqCodel:
      return "fq_codel";
    case QdiscKind::kFq:
      return "fq";
    case QdiscKind::kEtf:
      return "etf";
    case QdiscKind::kEtfOffload:
      return "etf+launchtime";
  }
  return "?";
}

// Fork salts 1 (server OS) and 2-4 (inside BottleneckPath) are the wiring's
// historical values; salts address generators, so construction order is
// free but the salt assignment is load-bearing for reproducibility.
Topology::Topology(sim::EventLoop& loop, TopologyConfig config, sim::Rng& rng)
    : config_(config),
      server_os_(config.server_os, rng.fork(1)),
      path_(std::make_unique<BottleneckPath>(loop, config_, rng, server_os_)),
      sender_(std::make_unique<SenderPath>(loop, config_, server_os_,
                                           path_->nic_wire())),
      to_client_([this](net::Packet pkt) {
        if (client_handler_) client_handler_(std::move(pkt));
      }),
      to_server_([this](net::Packet pkt) {
        if (server_handler_) server_handler_(std::move(pkt));
      }) {
  path_->set_default_routes(&to_client_, &to_server_);
}

Topology::~Topology() = default;

net::PacketSink* Topology::server_egress() { return sender_->egress(); }
net::PacketSink* Topology::client_egress() { return path_->ack_ingress(); }
const net::WireTap& Topology::tap() const { return path_->tap(); }
net::WireTap& Topology::tap() { return path_->tap(); }
std::int64_t Topology::bottleneck_drops() const {
  return path_->bottleneck_drops();
}
const kernel::TbfQdisc& Topology::bottleneck() const {
  return path_->bottleneck();
}
const kernel::Qdisc& Topology::server_qdisc() const {
  return sender_->qdisc();
}
const kernel::NetemQdisc& Topology::data_netem() const {
  return path_->data_netem();
}
const kernel::NetemQdisc& Topology::client_netem() const {
  return path_->ack_netem();
}
kernel::OsModel& Topology::client_os() { return path_->client_os(); }

net::CountersTable Topology::counters_table() const {
  net::CountersTable table;
  table.add(std::string("qdisc/") + sender_->qdisc().name(),
            sender_->qdisc().counters());
  path_->add_counters(table);
  return table;
}

check::ConservationAuditor Topology::conservation_auditor() const {
  check::ConservationAuditor auditor;
  auditor.add_stage(std::string("qdisc/") + sender_->qdisc().name(),
                    sender_->qdisc().counters());
  path_->add_conservation_stages(auditor);
  return auditor;
}

void Topology::set_client_handler(kernel::UdpReceiver::Handler handler) {
  client_handler_ = std::move(handler);
}

void Topology::set_server_handler(kernel::UdpReceiver::Handler handler) {
  server_handler_ = std::move(handler);
}

}  // namespace quicsteps::framework
