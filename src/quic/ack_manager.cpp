#include "quic/ack_manager.hpp"

namespace quicsteps::quic {

namespace {
// Bound on recycled ACK frames per receiver. It covers the ACKs one flow
// has in flight: ~420 at 10 Gbit/s (1500 B packets, one ACK per two, 1 ms
// return path).
constexpr std::size_t kMaxPooledFrames = 1024;
}  // namespace

bool AckManager::on_packet_received(std::uint64_t pn, bool ack_eliciting,
                                    sim::Time now) {
  const bool fresh = received_.insert(pn);
  if (!fresh) return false;
  if (pn >= received_.largest()) largest_recv_time_ = now;
  if (ack_eliciting) {
    if (pending_ack_eliciting_ == 0) first_pending_time_ = now;
    ++pending_ack_eliciting_;
  }
  return true;
}

sim::Time AckManager::ack_deadline() const {
  if (pending_ack_eliciting_ == 0) return sim::Time::infinite();
  if (ack_due_now()) return first_pending_time_;
  return first_pending_time_ + config_.max_ack_delay;
}

std::shared_ptr<const net::TransportAck> AckManager::build_ack(
    sim::Time now, std::int64_t max_data) {
  // The ring covers the ACKs in flight at once; a frame is rewritten only
  // when this pool holds its sole reference (use_count() == 1), so no
  // packet ever sees its ACK change. When the oldest is still in flight a
  // fresh frame joins the ring just before it (as the newest); a full ring
  // instead hands the in-flight oldest to its packet and drops it.
  std::shared_ptr<net::TransportAck> frame;
  if (!frames_.empty() && frames_[next_frame_].use_count() == 1) {
    frame = frames_[next_frame_];
  } else {
    frame = std::make_shared<net::TransportAck>();
    if (frames_.size() < kMaxPooledFrames) {
      frames_.insert(frames_.begin() + static_cast<std::ptrdiff_t>(next_frame_),
                     frame);
    } else {
      frames_[next_frame_] = frame;
    }
  }
  next_frame_ = (next_frame_ + 1) % frames_.size();

  received_.to_ack_blocks(config_.max_ack_blocks, &frame->blocks);
  frame->ack_delay = now - largest_recv_time_;
  frame->max_data = max_data;
  pending_ack_eliciting_ = 0;
  first_pending_time_ = sim::Time::infinite();
  return frame;
}

}  // namespace quicsteps::quic
