#include "quic/frames.hpp"

#include <algorithm>
#include <iterator>

namespace quicsteps::quic {

bool PacketNumberSet::insert(std::uint64_t pn) {
  // In-order fast path: pn at or past the end of the newest interval.
  if (intervals_.empty() || pn > intervals_.back().last + 1) {
    intervals_.push_back(net::AckBlock{pn, pn});
    return true;
  }
  if (pn == intervals_.back().last + 1) {
    intervals_.back().last = pn;
    return true;
  }

  // First interval starting after pn; its predecessor may hold pn.
  auto right = std::upper_bound(
      intervals_.begin(), intervals_.end(), pn,
      [](std::uint64_t key, const net::AckBlock& b) { return key < b.first; });
  const bool has_left = right != intervals_.begin();
  if (has_left && pn <= std::prev(right)->last) return false;  // duplicate

  const bool merge_left = has_left && std::prev(right)->last + 1 == pn;
  const bool merge_right = right != intervals_.end() && pn + 1 == right->first;
  if (merge_left && merge_right) {
    std::prev(right)->last = right->last;
    intervals_.erase(right);
  } else if (merge_left) {
    std::prev(right)->last = pn;
  } else if (merge_right) {
    right->first = pn;
  } else {
    intervals_.insert(right, net::AckBlock{pn, pn});
  }
  return true;
}

bool PacketNumberSet::contains(std::uint64_t pn) const {
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), pn,
      [](std::uint64_t key, const net::AckBlock& b) { return key < b.first; });
  return it != intervals_.begin() && pn <= std::prev(it)->last;
}

void PacketNumberSet::to_ack_blocks(std::size_t max_blocks,
                                    std::vector<net::AckBlock>* out) const {
  out->clear();
  if (intervals_.empty() || max_blocks == 0) return;
  // Newest ranges first; the OLDEST interval always rides along (it is the
  // cumulative ACK for the TCP model and cheap insurance for QUIC).
  for (auto it = intervals_.rbegin();
       it != std::prev(intervals_.rend()) && out->size() + 1 < max_blocks;
       ++it) {
    out->push_back(*it);
  }
  out->push_back(intervals_.front());
}

std::int64_t ByteIntervalSet::add(std::int64_t offset, std::int64_t length) {
  if (length <= 0) return 0;
  std::int64_t start = offset;
  std::int64_t end = offset + length;

  // In-order fast path: back-to-back stream delivery appends at (or
  // inside) the interval with the greatest start, which is extended in
  // place. The last interval has no successor, so no absorption check is
  // needed.
  if (!intervals_.empty()) {
    Interval& last = intervals_.back();
    if (start >= last.start && start <= last.end) {
      if (end <= last.end) return 0;  // fully covered already
      const std::int64_t new_bytes = end - last.end;
      last.end = end;
      covered_ += new_bytes;
      return new_bytes;
    }
  }

  // Absorb every interval overlapping or touching [start, end): the first
  // interval starting after `start`, or its predecessor if that reaches
  // `start`, up to the last one starting at or before `end`.
  auto first = std::upper_bound(
      intervals_.begin(), intervals_.end(), start,
      [](std::int64_t key, const Interval& iv) { return key < iv.start; });
  if (first != intervals_.begin() && std::prev(first)->end >= start) --first;
  auto last = first;
  std::int64_t absorbed = 0;
  for (; last != intervals_.end() && last->start <= end; ++last) {
    start = std::min(start, last->start);
    end = std::max(end, last->end);
    absorbed += last->end - last->start;
  }
  if (first == last) {
    intervals_.insert(first, Interval{start, end});
  } else {
    *first = Interval{start, end};
    intervals_.erase(std::next(first), last);
  }
  const std::int64_t new_bytes = (end - start) - absorbed;
  covered_ += new_bytes;
  return new_bytes;
}

std::int64_t ByteIntervalSet::contiguous_prefix() const {
  if (intervals_.empty() || intervals_.front().start != 0) return 0;
  return intervals_.front().end;
}

}  // namespace quicsteps::quic
