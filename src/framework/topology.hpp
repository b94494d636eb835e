// The measurement topology (paper Figure 1):
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
// TopologyConfig parameterizes that path. framework::BottleneckPath and
// framework::SenderPath (network.hpp) build it, and framework::Network
// (flows.hpp) composes any number of senders onto one shared path.
#pragma once

#include <cstdint>

#include "kernel/os_model.hpp"
#include "kernel/qdisc_etf.hpp"
#include "net/data_rate.hpp"
#include "sim/time.hpp"

namespace quicsteps::framework {

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
  /// Path impairments on the DATA direction (tc netem loss/reorder) — zero
  /// in the paper's controlled setup; exposed for robustness experiments.
  double path_loss_probability = 0.0;
  double path_reorder_probability = 0.0;

  /// Client-side GRO coalescing window (zero = GRO off, the paper setup).
  sim::Duration client_gro_window = sim::Duration::zero();

  kernel::OsTimingConfig server_os;
};

}  // namespace quicsteps::framework
