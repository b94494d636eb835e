// The measurement topology (paper Figure 1), as one wired object:
//
//   server stack ── UdpSocket ── [qdisc under test] ── NIC (1 Gbit/s,
//   optional LaunchTime) ── WIRE TAP (sniffer) ── TBF 40 Mbit/s (the
//   client-side IFB ingress bottleneck; DROPS HAPPEN HERE) ── netem +20 ms
//   ── client UDP receiver (50 MiB buffer) ── client
//
//   client ACKs ── netem +20 ms ── server UDP receiver ── server stack
//
// The tap sits before the shaper, so captured timing reflects the server's
// pacing, not the bottleneck's re-shaping — exactly the paper's design.
//
// Topology is the single-sender (N=1) instantiation of the datapath
// fabric: one framework::SenderPath on one framework::BottleneckPath
// (network.hpp), with endpoint-agnostic handler routing. Competing-flow
// experiments compose N sender hosts onto the same shared path via
// framework::Network (flows.hpp).
#pragma once

#include <cstdint>
#include <memory>

#include "check/conservation_auditor.hpp"
#include "kernel/nic.hpp"
#include "kernel/os_model.hpp"
#include "kernel/qdisc.hpp"
#include "kernel/qdisc_etf.hpp"
#include "kernel/qdisc_fifo.hpp"
#include "kernel/qdisc_fq.hpp"
#include "kernel/qdisc_fq_codel.hpp"
#include "kernel/qdisc_netem.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "kernel/udp_socket.hpp"
#include "net/wire_tap.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace quicsteps::framework {

class BottleneckPath;
class SenderPath;

enum class QdiscKind : std::uint8_t {
  kFifo,        // pfifo_fast: kernel default, txtime ignored
  kFqCodel,     // Debian default
  kFq,          // timestamp-honoring fair queue
  kEtf,         // software ETF
  kEtfOffload,  // ETF + NIC LaunchTime
};

const char* to_string(QdiscKind kind);

struct TopologyConfig {
  QdiscKind server_qdisc = QdiscKind::kFqCodel;  // Debian Bookworm default
  kernel::EtfQdisc::Config etf;                  // delta defaults to 200 us
  /// TSN-strict LaunchTime (see kernel::Nic::Config::drop_missed_launch).
  bool drop_missed_launch = false;
  net::DataRate server_nic_rate = net::DataRate::gigabits_per_second(1);

  net::DataRate bottleneck_rate = net::DataRate::megabits_per_second(40);
  /// Bottleneck FIFO depth in bytes (1 BDP at 40 Mbit/s x 40 ms = 200 kB).
  std::int64_t bottleneck_buffer_bytes = 200 * 1000;
  std::int64_t tbf_burst_bytes = 2 * 1514;

  sim::Duration path_delay_one_way = sim::Duration::millis(20);
  /// netem queue sized to two BDPs so it never drops (paper Section 3.2).
  std::int64_t netem_limit_packets = 100000;
  /// Path impairments on the DATA direction (tc netem loss/reorder) — zero
  /// in the paper's controlled setup; exposed for robustness experiments.
  double path_loss_probability = 0.0;
  double path_reorder_probability = 0.0;
  sim::Duration path_jitter = sim::Duration::zero();

  std::int64_t client_rcvbuf_bytes = 50 * 1024 * 1024;
  /// Client-side GRO coalescing window (zero = GRO off, the paper setup).
  sim::Duration client_gro_window = sim::Duration::zero();

  kernel::OsTimingConfig server_os;
  kernel::OsTimingConfig client_os;
};

/// Owns every path element between (and including) the two hosts' kernels.
/// The transport endpoints attach via the exposed sinks/handlers.
class Topology {
 public:
  Topology(sim::EventLoop& loop, TopologyConfig config, sim::Rng& rng);
  ~Topology();

  /// Head of the server egress chain: the stack's UdpSocket target.
  net::PacketSink* server_egress();
  /// Head of the client egress chain (ACK path back to the server).
  net::PacketSink* client_egress();

  /// Wire the endpoint handlers.
  void set_client_handler(kernel::UdpReceiver::Handler handler);
  void set_server_handler(kernel::UdpReceiver::Handler handler);

  const net::WireTap& tap() const;
  net::WireTap& tap();
  /// Bottleneck drop count — the paper's "dropped packets" column.
  std::int64_t bottleneck_drops() const;
  const kernel::TbfQdisc& bottleneck() const;
  const kernel::Qdisc& server_qdisc() const;
  const kernel::NetemQdisc& data_netem() const;
  const kernel::NetemQdisc& client_netem() const;
  kernel::OsModel& server_os() { return server_os_; }
  kernel::OsModel& client_os();
  const TopologyConfig& config() const { return config_; }

  /// The shared-path half of this topology (the fabric piece the N-flow
  /// Network also builds).
  BottleneckPath& path() { return *path_; }

  /// Per-component counter snapshots in sorted name order.
  net::CountersTable counters_table() const;

  /// Conservation auditor spanning both directions of the path. The
  /// auditor borrows this topology's counters — audit() while it's alive.
  /// Valid at any instant, including mid-run: it checks per-stage book
  /// balance and the synchronous bottleneck -> netem hand-off, not
  /// end-to-end delivery (packets may legitimately be in flight on links).
  check::ConservationAuditor conservation_auditor() const;

 private:
  TopologyConfig config_;
  kernel::OsModel server_os_;
  std::unique_ptr<BottleneckPath> path_;
  std::unique_ptr<SenderPath> sender_;

  // Endpoint-agnostic routing: the shared path's default routes point at
  // these adapters, which forward to whatever handlers are set (or drop).
  net::CallbackSink to_client_;
  net::CallbackSink to_server_;
  kernel::UdpReceiver::Handler client_handler_;
  kernel::UdpReceiver::Handler server_handler_;
};

}  // namespace quicsteps::framework
