// Sender-side bookkeeping of unacknowledged packets, including the
// delivery-rate sampling state BBR consumes (a compact version of the
// rate-sample algorithm from draft-cheng-iccrg-delivery-rate-estimation).
//
// Layout: one contiguous, pn-ascending vector of slots. `add` appends; an
// acknowledged or lost packet leaves a tombstone in place, so the vector
// stays sorted and every lookup is one binary search. `head_` skips the
// dead prefix, and the vector is compacted once dead slots outnumber live
// ones, so capacity settles at the in-flight high-water mark and steady
// state allocates nothing (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace quicsteps::quic {

struct SentPacket {
  std::uint64_t pn = 0;
  std::int64_t bytes = 0;
  sim::Time time_sent;
  /// STREAM chunk carried (offset < 0 = none, e.g. a PING probe).
  std::int64_t stream_offset = -1;
  std::int64_t stream_length = 0;
  // Delivery-rate snapshot at send time.
  std::int64_t delivered_at_send = 0;
  sim::Time delivered_time_at_send;
  bool app_limited_at_send = false;
  // Flags last, so they share one padded word.
  bool ack_eliciting = true;
  bool in_flight = true;
  bool fin = false;
};

class SentPacketMap {
 public:
  /// Appends a packet; packet numbers must be added in ascending order.
  void add(SentPacket pkt);

  struct AckResult {
    std::vector<SentPacket> newly_acked;  // ascending pn
    std::int64_t acked_bytes = 0;
  };
  /// Removes and returns all tracked packets covered by `blocks` (any
  /// order, overlaps allowed) in ascending pn order. The result is a
  /// member buffer, valid until the next call.
  const AckResult& on_ack_blocks(const std::vector<net::AckBlock>& blocks);

  /// Removes and returns the packet with number `pn` if still tracked.
  bool take(std::uint64_t pn, SentPacket* out);

  const SentPacket* find(std::uint64_t pn) const;
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  std::int64_t bytes_in_flight() const { return bytes_in_flight_; }
  /// Oldest unacked packet, nullptr when empty.
  const SentPacket* oldest() const {
    return live_ == 0 ? nullptr : &slots_[head_].pkt;
  }

  /// Loss-detection scan: visits tracked packets with pn < bound in
  /// ascending order and removes each one `lost(pkt)` returns true for,
  /// appending it to `*out`.
  template <typename Pred>
  void remove_below_if(std::uint64_t bound, Pred&& lost,
                       std::vector<SentPacket>* out) {
    for (std::size_t i = head_; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.pkt.pn >= bound) break;
      if (!slot.live || !lost(std::as_const(slot.pkt))) continue;
      out->push_back(slot.pkt);
      kill(slot);
    }
    tidy();
  }

 private:
  struct Slot {
    SentPacket pkt;
    bool live = true;
  };

  /// First slot at or after head_ with pn >= `pn`.
  std::size_t lower_bound(std::uint64_t pn) const;
  /// Slot of the tracked packet `pn`, or slots_.size() if none.
  std::size_t index_of(std::uint64_t pn) const;
  void kill(Slot& slot);
  /// Advances head_ past tombstones; compacts when they dominate.
  void tidy();

  std::vector<Slot> slots_;
  std::size_t head_ = 0;  // first live slot (slots_.size() when empty)
  std::size_t live_ = 0;
  std::int64_t bytes_in_flight_ = 0;
  AckResult ack_result_;
};

}  // namespace quicsteps::quic
