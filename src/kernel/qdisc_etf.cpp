#include "kernel/qdisc_etf.hpp"

#include <algorithm>
#include <utility>

namespace quicsteps::kernel {

void EtfQdisc::deliver(net::Packet pkt) {
  note_arrival(pkt);

  const sim::Time now = loop_.now();
  if (!pkt.has_txtime) {
    // ETF refuses packets without a timestamp (EINVAL on the real qdisc);
    // we count them as drops so misconfiguration is visible.
    drop(pkt);
    return;
  }
  if (pkt.txtime < now) {
    ++late_drops_;
    drop(pkt);
    return;
  }
  if (static_cast<std::int64_t>(timed_.size()) >= config_.limit_packets) {
    drop(pkt);
    return;
  }

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(pkt));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(pkt);
  }
  timed_.push_back(Timed{slots_[slot].txtime, next_seq_++, slot});
  std::push_heap(timed_.begin(), timed_.end(), later);
  arm_watchdog();
}

void EtfQdisc::arm_watchdog() {
  if (timed_.empty()) return;
  const sim::Time head = timed_.front().txtime;
  if (watchdog_.pending() && watchdog_at_ <= head) return;
  watchdog_.cancel();
  watchdog_at_ = head;
  // Dequeue `delta` ahead of the head's txtime (never in the past).
  const sim::Time dequeue = sim::max(loop_.now(), head - config_.delta);
  watchdog_ = loop_.schedule_at(dequeue, sim::EventClass::kQueue,
                                [this] { on_watchdog(); });
}

void EtfQdisc::on_watchdog() {
  const sim::Time now = loop_.now();
  // Everything entering its delta window leaves towards the driver now.
  while (!timed_.empty() && timed_.front().txtime - config_.delta <= now) {
    const std::uint32_t slot = timed_.front().slot;
    std::pop_heap(timed_.begin(), timed_.end(), later);
    timed_.pop_back();
    // Kernel + driver path consumes a variable slice of the delta window;
    // the packet reaches the NIC after it. Without LaunchTime the NIC
    // transmits on arrival, so this spread is the ETF precision the paper
    // measures; with LaunchTime the NIC clips early arrivals to txtime.
    const sim::Duration path = os_.rng().normal_duration(
        config_.driver_path_mean, config_.driver_path_stddev,
        sim::Duration::micros(5));
    const sim::Time release = sim::max(now + path, last_release_);
    last_release_ = release;
    loop_.schedule_at(release, sim::EventClass::kQueue,
                      [this, slot] { hand_to_driver(slot); });
  }
  watchdog_at_ = sim::Time::infinite();
  arm_watchdog();
}

void EtfQdisc::hand_to_driver(std::uint32_t slot) {
  net::Packet pkt = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  forward(std::move(pkt));
}

}  // namespace quicsteps::kernel
