#include "quic/sent_packet_map.hpp"

#include <algorithm>

#include "check/audit.hpp"

namespace quicsteps::quic {

namespace {
// Below this many tombstones compaction is not worth a pass.
constexpr std::size_t kCompactMinDead = 64;
}  // namespace

void SentPacketMap::add(SentPacket pkt) {
  QUICSTEPS_AUDIT(slots_.empty() || slots_.back().pkt.pn < pkt.pn,
                  "SentPacketMap::add out of pn order");
  if (pkt.in_flight) bytes_in_flight_ += pkt.bytes;
  slots_.push_back(Slot{std::move(pkt), true});
  ++live_;
}

const SentPacketMap::AckResult& SentPacketMap::on_ack_blocks(
    const std::vector<net::AckBlock>& blocks) {
  std::vector<SentPacket>& acked = ack_result_.newly_acked;
  acked.clear();
  ack_result_.acked_bytes = 0;
  // Blocks arrive newest-first: walking them oldest-first emits ascending
  // pns, so the canonical case needs no sort. Tombstones left by earlier
  // blocks keep an overlap from reporting a packet twice.
  bool ascending = true;
  for (auto block = blocks.rbegin(); block != blocks.rend(); ++block) {
    if (live_ == 0) break;
    if (block->last < slots_[head_].pkt.pn) continue;  // all acked already
    for (std::size_t i = lower_bound(block->first);
         i < slots_.size() && slots_[i].pkt.pn <= block->last; ++i) {
      Slot& slot = slots_[i];
      if (!slot.live) continue;
      if (!acked.empty() && slot.pkt.pn < acked.back().pn) ascending = false;
      ack_result_.acked_bytes += slot.pkt.bytes;
      acked.push_back(slot.pkt);
      kill(slot);
    }
  }
  if (!ascending) {
    std::sort(acked.begin(), acked.end(),
              [](const SentPacket& a, const SentPacket& b) {
                return a.pn < b.pn;
              });
  }
  tidy();
  return ack_result_;
}

bool SentPacketMap::take(std::uint64_t pn, SentPacket* out) {
  const std::size_t i = index_of(pn);
  if (i == slots_.size()) return false;
  if (out != nullptr) *out = slots_[i].pkt;
  kill(slots_[i]);
  tidy();
  return true;
}

const SentPacket* SentPacketMap::find(std::uint64_t pn) const {
  const std::size_t i = index_of(pn);
  return i == slots_.size() ? nullptr : &slots_[i].pkt;
}

std::size_t SentPacketMap::lower_bound(std::uint64_t pn) const {
  const auto it = std::lower_bound(
      slots_.begin() + static_cast<std::ptrdiff_t>(head_), slots_.end(), pn,
      [](const Slot& slot, std::uint64_t key) { return slot.pkt.pn < key; });
  return static_cast<std::size_t>(it - slots_.begin());
}

std::size_t SentPacketMap::index_of(std::uint64_t pn) const {
  const std::size_t i = lower_bound(pn);
  const bool tracked =
      i < slots_.size() && slots_[i].pkt.pn == pn && slots_[i].live;
  return tracked ? i : slots_.size();
}

void SentPacketMap::kill(Slot& slot) {
  slot.live = false;
  --live_;
  if (slot.pkt.in_flight) bytes_in_flight_ -= slot.pkt.bytes;
}

void SentPacketMap::tidy() {
  while (head_ < slots_.size() && !slots_[head_].live) ++head_;
  const std::size_t dead = slots_.size() - live_;
  if (dead <= live_ || dead < kCompactMinDead) return;
  slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                              [](const Slot& slot) { return !slot.live; }),
               slots_.end());
  head_ = 0;
}

}  // namespace quicsteps::quic
