// Sender-side record of TCP segments in flight, indexed by sequence number.
//
// Layout: one RingQueue of slots, segment `seq` at slots_[seq - base_] (the
// SentPacketMap layout, DESIGN.md §16). A new segment appends; acked
// segments leave the front, so capacity settles at the in-flight
// high-water mark and steady state allocates nothing. A segment declared
// lost keeps its slot until its retransmission is acked, so the
// retransmission (which reuses the sequence number) always finds it.
#pragma once

#include <cstdint>
#include <utility>

#include "check/audit.hpp"
#include "sim/ring_queue.hpp"
#include "sim/time.hpp"

namespace quicsteps::tcp {

class SegmentWindow {
 public:
  struct Segment {
    sim::Time time_sent;
    std::int64_t bytes = 0;
    bool retransmitted = false;
  };

  /// Sequence number of the next new segment.
  std::uint64_t next_seq() const { return base_ + slots_.size(); }
  bool empty() const { return in_flight_ == 0; }
  /// Segments in flight (sent, neither acked nor declared lost).
  std::size_t in_flight() const { return in_flight_; }
  std::int64_t bytes_in_flight() const { return bytes_in_flight_; }

  /// Records a send: a new segment at next_seq(), or the retransmission
  /// of a segment declared lost.
  void on_sent(std::uint64_t seq, const Segment& seg) {
    if (seq == next_seq()) {
      slots_.push_back(Slot{seg, State::kInFlight});
    } else {
      QUICSTEPS_AUDIT(seq >= base_ && seq - base_ < slots_.size() &&
                          slots_[seq - base_].state == State::kLost,
                      "TCP sends a segment that is neither new nor lost");
      slots_[seq - base_] = Slot{seg, State::kInFlight};
    }
    ++in_flight_;
    bytes_in_flight_ += seg.bytes;
  }

  /// Removes every in-flight segment in [first, last], ascending, calling
  /// `on_acked(seq, segment)` for each.
  template <typename Fn>
  void ack(std::uint64_t first, std::uint64_t last, Fn&& on_acked) {
    const std::uint64_t end = next_seq();
    for (std::uint64_t seq = first < base_ ? base_ : first;
         seq <= last && seq < end; ++seq) {
      Slot& slot = slots_[seq - base_];
      if (slot.state != State::kInFlight) continue;
      on_acked(seq, std::as_const(slot.seg));
      leave_flight(slot, State::kAcked);
    }
    while (!slots_.empty() && slots_.front().state == State::kAcked) {
      slots_.pop_front();
      ++base_;
    }
  }

  /// Loss scan: visits the in-flight segments below `bound` in ascending
  /// order and declares lost each one `lost(seq, segment)` returns true
  /// for.
  template <typename Pred>
  void declare_lost_below_if(std::uint64_t bound, Pred&& lost) {
    for (std::size_t i = 0; i < slots_.size() && base_ + i < bound; ++i) {
      Slot& slot = slots_[i];
      if (slot.state != State::kInFlight) continue;
      if (lost(base_ + i, std::as_const(slot.seg))) {
        leave_flight(slot, State::kLost);
      }
    }
  }

  /// Oldest in-flight segment's sequence number; requires !empty().
  std::uint64_t oldest() const { return base_ + oldest_index(); }
  const Segment& oldest_segment() const { return slots_[oldest_index()].seg; }
  /// Declares the oldest in-flight segment lost (RTO); requires !empty().
  void declare_oldest_lost() {
    leave_flight(slots_[oldest_index()], State::kLost);
  }

 private:
  enum class State : std::uint8_t { kInFlight, kAcked, kLost };
  struct Slot {
    Segment seg;
    State state;
  };

  std::size_t oldest_index() const {
    std::size_t i = 0;
    while (slots_[i].state != State::kInFlight) ++i;
    return i;
  }
  void leave_flight(Slot& slot, State state) {
    slot.state = state;
    --in_flight_;
    bytes_in_flight_ -= slot.seg.bytes;
  }

  sim::RingQueue<Slot> slots_;
  std::uint64_t base_ = 0;  // sequence number of slots_.front()
  std::size_t in_flight_ = 0;
  std::int64_t bytes_in_flight_ = 0;
};

}  // namespace quicsteps::tcp
