// ETF (Earliest TxTime First) qdisc model.
//
// Differences from FQ that the paper exercises:
//  * packets whose txtime is already in the past are DROPPED, not sent;
//  * the qdisc dequeues `delta` ahead of each packet's txtime so the
//    driver path has time to complete — the packet then spends a variable
//    amount of that window in the kernel/driver before reaching the NIC;
//  * with hardware offload (LaunchTime) the NIC holds the early packet
//    until its txtime (see nic.hpp), clipping the early-send error but not
//    the late tail — which is why the paper measures no precision gain.
#pragma once

#include <cstdint>
#include <vector>

#include "kernel/os_model.hpp"
#include "kernel/qdisc.hpp"

namespace quicsteps::kernel {

class EtfQdisc final : public Qdisc {
 public:
  struct Config {
    /// How far ahead of txtime the qdisc hands packets to the driver.
    sim::Duration delta = sim::Duration::micros(200);
    std::int64_t limit_packets = 1000;
    /// Mean/stddev of the kernel+driver path time between dequeue and NIC
    /// arrival. On the modelled host this typically EXCEEDS the 200 us
    /// delta (Bosk et al. call 175 us borderline), so packets usually reach
    /// the NIC after their txtime — which is why LaunchTime offload cannot
    /// improve precision (Section 4.4's null result).
    sim::Duration driver_path_mean = sim::Duration::micros(420);
    sim::Duration driver_path_stddev = sim::Duration::micros(250);
  };

  EtfQdisc(sim::EventLoop& loop, Config config, OsModel& os,
           net::PacketSink* downstream)
      : Qdisc(loop, "etf", downstream), config_(config), os_(os) {}

  void deliver(net::Packet pkt) override;

  std::size_t queued_packets() const { return timed_.size(); }
  std::int64_t late_drops() const { return late_drops_; }

 private:
  /// A queued packet's place in the txtime order. Equal txtimes leave in
  /// arrival order (the sequence number breaks the tie).
  struct Timed {
    sim::Time txtime;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Heap order: the earliest (txtime, seq) sits at timed_.front().
  static bool later(const Timed& a, const Timed& b) {
    return a.txtime != b.txtime ? a.txtime > b.txtime : a.seq > b.seq;
  }

  void arm_watchdog();
  void on_watchdog();
  void hand_to_driver(std::uint32_t slot);

  Config config_;
  OsModel& os_;
  /// Packets live in recycled slots from enqueue until they reach the
  /// driver, so neither the queue nor the driver-path closure (which
  /// captures only [this, slot]) allocates per packet.
  std::vector<net::Packet> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Timed> timed_;  // min-heap on (txtime, seq)
  std::uint64_t next_seq_ = 0;
  sim::EventHandle watchdog_;
  sim::Time watchdog_at_ = sim::Time::infinite();
  /// Releases are monotone: the driver queue preserves order, so a packet
  /// never overtakes its predecessor regardless of path-time jitter.
  sim::Time last_release_;
  std::int64_t late_drops_ = 0;
};

}  // namespace quicsteps::kernel
