// QUIC frame-level helpers.
//
// The simulator does not serialize wire images; packets carry structured
// metadata instead (see net::Packet). This header defines the constants and
// small helpers shared by the QUIC sender and receiver: datagram sizing and
// the received-packet-number interval set the ACK manager maintains.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace quicsteps::quic {

/// Wire size of a full QUIC datagram in these experiments.
inline constexpr std::int64_t kDatagramSize = 1500;
/// Application payload per full datagram (wire size minus IP/UDP/QUIC
/// header and AEAD overhead); sets the goodput ceiling:
/// 40 Mbit/s * 1402/1500 = 37.4 Mbit/s, matching the paper's topline.
inline constexpr std::int64_t kPayloadPerDatagram = 1402;
/// Wire size of a pure ACK datagram.
inline constexpr std::int64_t kAckPacketSize = 60;

/// Ordered set of received packet numbers, kept as a pn-ascending vector of
/// disjoint, non-adjacent inclusive intervals (the receiver state behind
/// QUIC ACK ranges). In-order arrival extends the last interval in place.
class PacketNumberSet {
 public:
  /// Inserts pn; returns false if it was already present (duplicate).
  bool insert(std::uint64_t pn);
  bool contains(std::uint64_t pn) const;

  /// Highest received packet number (0 if empty — check empty() first).
  std::uint64_t largest() const {
    return intervals_.empty() ? 0 : intervals_.back().last;
  }
  bool empty() const { return intervals_.empty(); }
  std::size_t interval_count() const { return intervals_.size(); }

  /// Writes the newest-first ACK blocks, at most `max_blocks`, into `*out`
  /// (cleared first; a caller that reserves `max_blocks` never reallocates).
  void to_ack_blocks(std::size_t max_blocks,
                     std::vector<net::AckBlock>* out) const;

 private:
  std::vector<net::AckBlock> intervals_;
};

/// Ordered set of received byte ranges (stream reassembly bookkeeping on
/// the client; completion = one interval covering [0, total)). Same layout
/// as PacketNumberSet: a start-ascending vector of disjoint, non-touching
/// half-open intervals, extended in place by in-order arrivals.
class ByteIntervalSet {
 public:
  /// Adds [offset, offset + length); returns the number of NEW bytes.
  std::int64_t add(std::int64_t offset, std::int64_t length);
  std::int64_t covered_bytes() const { return covered_; }
  /// Contiguous prefix [0, n) fully received.
  std::int64_t contiguous_prefix() const;
  std::size_t interval_count() const { return intervals_.size(); }

 private:
  struct Interval {
    std::int64_t start = 0;
    std::int64_t end = 0;  // exclusive
  };
  std::vector<Interval> intervals_;
  std::int64_t covered_ = 0;
};

}  // namespace quicsteps::quic
