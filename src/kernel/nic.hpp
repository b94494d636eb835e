// NIC model: line-rate serializer, GSO expansion point, LaunchTime engine.
//
// This is the last element before the wire (and thus before the tap). It
//   * expands GSO super-packets into wire packets — back-to-back for stock
//     GSO, spread at the buffer's pacing rate for the paced-GSO patch;
//   * with LaunchTime enabled, holds a packet that arrives before its
//     txtime until that txtime (clipping ETF's early-dequeue error);
//   * serializes everything at the line rate, which produces the ~12 us
//     minimum inter-packet gap the paper calls out for 1 Gbit/s.
#pragma once

#include <cstdint>

#include "kernel/os_model.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::kernel {

/// The wire every NIC of a network serialises onto. It owns the one
/// TX-completion drain channel those NICs share: a completion only takes
/// the packet out of the slab and delivers it downstream, so nothing in it
/// is per-NIC, and the fabric registers one channel for any sender count
/// (drain channel ids are 14 bits wide).
class TxWire {
 public:
  TxWire(sim::EventLoop& loop, net::PacketSlab& slab,
         net::PacketSink& downstream);
  TxWire(const TxWire&) = delete;
  TxWire& operator=(const TxWire&) = delete;

  net::PacketSlab& slab() const { return slab_; }
  sim::DrainId channel() const { return channel_; }

 private:
  static void drain_tx(void* self, std::uint32_t ref);

  net::PacketSlab& slab_;
  net::PacketSink& downstream_;
  sim::DrainId channel_;
};

class Nic final : public net::PacketSink, public obs::TraceSource {
 public:
  struct Config {
    net::DataRate line_rate = net::DataRate::gigabits_per_second(1);
    bool launch_time = false;
    /// Residual error of the LaunchTime engine (I210-class hardware fires
    /// within a microsecond of the armed time).
    sim::Duration launch_jitter_max = sim::Duration::micros(1);
    /// TSN-strict behavior: a packet that reaches the NIC after its armed
    /// launch time has missed its slot and is DROPPED. Off by default (the
    /// paper's measured setup transmits such packets immediately); used by
    /// the ETF-delta ablation to show the Bosk et al. trade-off.
    bool drop_missed_launch = false;
  };

  /// TX completions are drain records on `wire`'s channel carrying slab
  /// refs.
  Nic(sim::EventLoop& loop, Config config, OsModel& os, TxWire& wire)
      : loop_(loop), wire_(wire), config_(config), os_(os) {}

  void deliver(net::Packet pkt) override;

  std::int64_t packets_sent() const { return packets_sent_; }
  std::int64_t missed_launch_drops() const { return missed_launch_drops_; }

 private:
  /// Serializes one wire packet whose transmission may start no earlier
  /// than `earliest`.
  void transmit(net::Packet pkt, sim::Time earliest);

  sim::EventLoop& loop_;
  TxWire& wire_;
  Config config_;
  OsModel& os_;
  sim::Time busy_until_;
  std::int64_t packets_sent_ = 0;
  std::int64_t missed_launch_drops_ = 0;
};

}  // namespace quicsteps::kernel
