// Unit + integration tests for the QUIC transport: interval sets, RTT
// estimation, the ACK manager's delayed-ACK policy and frame recycling,
// loss detection thresholds, the sent-packet map's contract (with a
// differential run against an ordered-map model), connection
// send/ack/retransmit flow, and an end-to-end transfer over a lossy
// bottleneck using the reference server.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "net/link.hpp"
#include "quic/ack_manager.hpp"
#include "quic/client.hpp"
#include "quic/connection.hpp"
#include "quic/frames.hpp"
#include "quic/loss_detection.hpp"
#include "quic/rtt_estimator.hpp"
#include "quic/server.hpp"
#include "sim/random.hpp"

namespace quicsteps::quic {
namespace {

using namespace quicsteps::sim::literals;
using net::AckBlock;
using net::DataRate;
using net::Packet;
using net::TransportAck;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

// ------------------------------------------------------------ interval sets

TEST(PacketNumberSet, MergesAdjacentAndDetectsDuplicates) {
  PacketNumberSet set;
  EXPECT_TRUE(set.insert(1));
  EXPECT_TRUE(set.insert(3));
  EXPECT_EQ(set.interval_count(), 2u);
  EXPECT_TRUE(set.insert(2));  // bridges 1..3
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_FALSE(set.insert(2));  // duplicate
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(set.largest(), 3u);
}

TEST(PacketNumberSet, AckBlocksNewestFirst) {
  PacketNumberSet set;
  for (std::uint64_t pn : {1, 2, 3, 7, 8, 10}) set.insert(pn);
  std::vector<AckBlock> blocks;
  set.to_ack_blocks(8, &blocks);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].first, 10u);
  EXPECT_EQ(blocks[0].last, 10u);
  EXPECT_EQ(blocks[1].first, 7u);
  EXPECT_EQ(blocks[1].last, 8u);
  EXPECT_EQ(blocks[2].first, 1u);
  EXPECT_EQ(blocks[2].last, 3u);
}

TEST(PacketNumberSet, BlockLimitKeepsNewest) {
  PacketNumberSet set;
  for (std::uint64_t pn = 0; pn < 20; pn += 2) set.insert(pn);
  std::vector<AckBlock> blocks;
  set.to_ack_blocks(3, &blocks);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].last, 18u);
}

TEST(PacketNumberSet, OutOfOrderInsertMergesLeftRightAndBoth) {
  PacketNumberSet set;
  for (std::uint64_t pn : {1, 5, 10}) EXPECT_TRUE(set.insert(pn));
  EXPECT_EQ(set.interval_count(), 3u);
  EXPECT_TRUE(set.insert(2));  // extends [1,1] rightwards: merge left
  EXPECT_EQ(set.interval_count(), 3u);
  EXPECT_TRUE(set.insert(4));  // extends [5,5] leftwards: merge right
  EXPECT_EQ(set.interval_count(), 3u);
  EXPECT_TRUE(set.insert(3));  // bridges [1,2] and [4,5]
  EXPECT_EQ(set.interval_count(), 2u);
  EXPECT_TRUE(set.insert(7));  // isolated, between two intervals
  EXPECT_EQ(set.interval_count(), 3u);
  for (std::uint64_t pn : {1, 3, 5, 7, 10}) EXPECT_FALSE(set.insert(pn));
  EXPECT_FALSE(set.contains(6));
  EXPECT_EQ(set.largest(), 10u);

  std::vector<AckBlock> blocks;
  blocks.reserve(8);
  const AckBlock* storage = blocks.data();
  set.to_ack_blocks(8, &blocks);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].first, 10u);
  EXPECT_EQ(blocks[1].first, 7u);
  EXPECT_EQ(blocks[2].first, 1u);
  EXPECT_EQ(blocks[2].last, 5u);
  EXPECT_EQ(blocks.data(), storage);  // written in place, no regrowth
}

TEST(ByteIntervalSet, CountsNewBytesOnly) {
  ByteIntervalSet set;
  EXPECT_EQ(set.add(0, 100), 100);
  EXPECT_EQ(set.add(50, 100), 50);   // half overlap
  EXPECT_EQ(set.add(0, 150), 0);     // fully covered
  EXPECT_EQ(set.covered_bytes(), 150);
  EXPECT_EQ(set.contiguous_prefix(), 150);
}

TEST(ByteIntervalSet, GapBlocksPrefix) {
  ByteIntervalSet set;
  set.add(0, 100);
  set.add(200, 100);
  EXPECT_EQ(set.covered_bytes(), 200);
  EXPECT_EQ(set.contiguous_prefix(), 100);
  set.add(100, 100);  // fill the gap
  EXPECT_EQ(set.contiguous_prefix(), 300);
  EXPECT_EQ(set.interval_count(), 1u);
}

// Differential run against an ordered set of covered byte offsets: random
// overlapping, touching and disjoint adds, in and out of order.
TEST(ByteIntervalSet, MatchesAnOrderedByteSetModel) {
  for (std::uint64_t seed : {1, 2, 3}) {
    sim::Rng rng(seed);
    ByteIntervalSet set;
    std::set<std::int64_t> model;
    for (int op = 0; op < 2'000; ++op) {
      // Mostly in order near the frontier, sometimes anywhere behind it.
      const std::int64_t frontier =
          model.empty() ? 0 : *model.rbegin() + 1;
      const std::int64_t offset =
          rng.chance(0.6)
              ? std::max<std::int64_t>(0, frontier + rng.uniform(-4, 8))
              : rng.uniform(0, frontier + 16);
      const std::int64_t length = rng.uniform(-1, 24);
      std::int64_t expect_new = 0;
      for (std::int64_t b = offset; b < offset + length; ++b) {
        expect_new += model.insert(b).second ? 1 : 0;
      }
      ASSERT_EQ(set.add(offset, length), expect_new) << seed << "/" << op;
      ASSERT_EQ(set.covered_bytes(), static_cast<std::int64_t>(model.size()));
      if (op % 16 != 0) continue;  // the full walks below are O(model)
      std::int64_t prefix = 0;
      while (model.count(prefix) == 1) ++prefix;
      ASSERT_EQ(set.contiguous_prefix(), prefix) << seed << "/" << op;
      std::size_t runs = 0;
      std::int64_t prev = -2;
      for (std::int64_t b : model) {
        runs += b != prev + 1 ? 1 : 0;
        prev = b;
      }
      ASSERT_EQ(set.interval_count(), runs) << seed << "/" << op;
    }
  }
}

// -------------------------------------------------------------------- RTT

TEST(RttEstimator, FirstSampleInitializes) {
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);
  EXPECT_EQ(rtt.smoothed(), 40_ms);
  EXPECT_EQ(rtt.rttvar(), 20_ms);
  EXPECT_EQ(rtt.min(), 40_ms);
}

TEST(RttEstimator, EwmaConverges) {
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);
  for (int i = 0; i < 100; ++i) rtt.update(50_ms, Duration::zero(), 25_ms);
  EXPECT_NEAR(rtt.smoothed().to_millis(), 50.0, 1.0);
  EXPECT_EQ(rtt.min(), 40_ms);
}

TEST(RttEstimator, AckDelaySubtractedOnlyAboveMin) {
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);
  // 45 ms sample with 10 ms ack delay -> adjusted 35 ms would dip below
  // min (40 ms), so the raw sample must be used.
  rtt.update(45_ms, 10_ms, 25_ms);
  EXPECT_GT(rtt.smoothed(), 39_ms);
  // 60 ms sample with 10 ms delay -> adjusted 50 ms, still >= min.
  RttEstimator rtt2;
  rtt2.update(40_ms, Duration::zero(), 25_ms);
  rtt2.update(60_ms, 10_ms, 25_ms);
  EXPECT_LT(rtt2.smoothed(), 43_ms);  // (40*7 + 50)/8 = 41.25
}

TEST(RttEstimator, PtoIntervalFormula) {
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);
  // srtt + max(4*rttvar, 1ms) + max_ack_delay = 40 + 80 + 25.
  EXPECT_EQ(rtt.pto_interval(25_ms), 145_ms);
}

// ------------------------------------------------------------- AckManager

TEST(AckManager, AcksEverySecondElicitingPacket) {
  AckManager mgr;
  EXPECT_TRUE(mgr.on_packet_received(1, true, Time::zero() + 1_ms));
  EXPECT_FALSE(mgr.ack_due_now());
  EXPECT_TRUE(mgr.on_packet_received(2, true, Time::zero() + 2_ms));
  EXPECT_TRUE(mgr.ack_due_now());
}

TEST(AckManager, DelayedAckDeadline) {
  AckManager mgr;
  mgr.on_packet_received(1, true, Time::zero() + 1_ms);
  EXPECT_EQ(mgr.ack_deadline(), Time::zero() + 26_ms);  // +25 ms max delay
}

TEST(AckManager, BuildAckClearsPendingAndReportsDelay) {
  AckManager mgr;
  mgr.on_packet_received(1, true, Time::zero() + 1_ms);
  mgr.on_packet_received(2, true, Time::zero() + 2_ms);
  auto ack = mgr.build_ack(Time::zero() + 5_ms);
  EXPECT_EQ(ack->largest(), 2u);
  EXPECT_EQ(ack->ack_delay, 3_ms);
  EXPECT_FALSE(mgr.has_pending());
}

TEST(AckManager, DuplicateDoesNotRetrigger) {
  AckManager mgr;
  mgr.on_packet_received(1, true, Time::zero() + 1_ms);
  EXPECT_FALSE(mgr.on_packet_received(1, true, Time::zero() + 2_ms));
  EXPECT_FALSE(mgr.ack_due_now());
}

TEST(AckManager, HeldFrameIsNeverRewritten) {
  AckManager mgr;
  mgr.on_packet_received(1, true, Time::zero() + 1_ms);
  mgr.on_packet_received(2, true, Time::zero() + 2_ms);
  auto held = mgr.build_ack(Time::zero() + 3_ms, 5000);
  for (std::uint64_t pn = 4; pn < 40; ++pn) {
    mgr.on_packet_received(pn, true, Time::zero() + Duration::millis(pn));
    auto later = mgr.build_ack(Time::zero() + Duration::millis(pn));
    EXPECT_NE(later.get(), held.get());
    EXPECT_EQ(later->largest(), pn);
    EXPECT_EQ(later->max_data, 0);
  }
  ASSERT_EQ(held->blocks.size(), 1u);
  EXPECT_EQ(held->blocks[0].first, 1u);
  EXPECT_EQ(held->blocks[0].last, 2u);
  EXPECT_EQ(held->ack_delay, 1_ms);
  EXPECT_EQ(held->max_data, 5000);
}

TEST(AckManager, ReleasedFrameIsReused) {
  AckManager mgr;
  mgr.on_packet_received(1, true, Time::zero() + 1_ms);
  auto first = mgr.build_ack(Time::zero() + 1_ms, 5000);
  const TransportAck* storage = first.get();
  first.reset();  // the packet carrying it was delivered
  mgr.on_packet_received(3, true, Time::zero() + 2_ms);
  auto second = mgr.build_ack(Time::zero() + 4_ms);
  EXPECT_EQ(second.get(), storage);
  ASSERT_EQ(second->blocks.size(), 2u);
  EXPECT_EQ(second->blocks[0].first, 3u);
  EXPECT_EQ(second->blocks[1].last, 1u);
  EXPECT_EQ(second->ack_delay, 2_ms);
  EXPECT_EQ(second->max_data, 0);  // the old grant does not leak through
}

// ---------------------------------------------------------- LossDetection

SentPacket sent_pkt(std::uint64_t pn, Time at) {
  SentPacket p;
  p.pn = pn;
  p.bytes = kDatagramSize;
  p.time_sent = at;
  p.stream_offset = static_cast<std::int64_t>(pn) * kPayloadPerDatagram;
  p.stream_length = kPayloadPerDatagram;
  return p;
}

TEST(LossDetectionTest, PacketThresholdDeclaresLoss) {
  SentPacketMap map;
  for (std::uint64_t pn = 1; pn <= 5; ++pn) {
    map.add(sent_pkt(pn, Time::zero() + Duration::millis(pn)));
  }
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);
  LossDetection ld;
  // largest acked = 5: packets 1 and 2 are >= 3 behind.
  auto result = ld.detect(map, 5, rtt, Time::zero() + 10_ms);
  ASSERT_EQ(result.lost.size(), 2u);
  EXPECT_EQ(result.lost[0].pn, 1u);
  EXPECT_EQ(result.lost[1].pn, 2u);
  EXPECT_EQ(map.size(), 3u);
}

TEST(LossDetectionTest, TimeThresholdDeclaresLoss) {
  SentPacketMap map;
  map.add(sent_pkt(1, Time::zero() + 1_ms));
  map.add(sent_pkt(2, Time::zero() + 100_ms));
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);
  LossDetection ld;
  // largest acked = 2 (pn 1 only 1 behind, below packet threshold), but
  // pn 1 was sent 9/8*40=45 ms before now -> time threshold fires.
  auto result = ld.detect(map, 2, rtt, Time::zero() + 50_ms);
  ASSERT_EQ(result.lost.size(), 1u);
  EXPECT_EQ(result.lost[0].pn, 1u);
}

TEST(LossDetectionTest, SetsNextLossTimeForYoungPackets) {
  SentPacketMap map;
  map.add(sent_pkt(1, Time::zero() + 30_ms));
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);
  LossDetection ld;
  auto result = ld.detect(map, 2, rtt, Time::zero() + 40_ms);
  EXPECT_TRUE(result.lost.empty());
  EXPECT_EQ(result.next_loss_time, Time::zero() + 75_ms);  // 30 + 45
}

TEST(LossDetectionTest, PersistentCongestionOnLongSpan) {
  SentPacketMap map;
  map.add(sent_pkt(1, Time::zero() + 10_ms));
  map.add(sent_pkt(2, Time::zero() + 800_ms));
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);  // PTO = 145 ms, 3*PTO = 435 ms
  LossDetection ld;
  auto result = ld.detect(map, 6, rtt, Time::zero() + 900_ms);
  ASSERT_EQ(result.lost.size(), 2u);
  EXPECT_TRUE(result.persistent_congestion);
}

TEST(LossDetectionTest, PtoBacksOffExponentially) {
  SentPacketMap map;
  map.add(sent_pkt(1, Time::zero()));
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);
  LossDetection ld;
  const Time pto0 = ld.pto_deadline(map, rtt, 0);
  const Time pto2 = ld.pto_deadline(map, rtt, 2);
  EXPECT_EQ((pto2 - Time::zero()).ns(), 4 * (pto0 - Time::zero()).ns());
}

TEST(LossDetectionTest, PtoBackoffSaturatesAtInfinite) {
  // A dead path keeps backing off; doubling past int64 must end at
  // "never", not overflow (a zero-rate bottleneck reached this).
  SentPacketMap map;
  map.add(sent_pkt(1, Time::zero()));
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero(), 25_ms);
  LossDetection ld;
  EXPECT_FALSE(ld.pto_deadline(map, rtt, 30).is_infinite());
  EXPECT_TRUE(ld.pto_deadline(map, rtt, 80).is_infinite());
}

// ---------------------------------------------------------- SentPacketMap

std::vector<std::uint64_t> pns_of(const std::vector<SentPacket>& pkts) {
  std::vector<std::uint64_t> pns;
  for (const auto& p : pkts) pns.push_back(p.pn);
  return pns;
}

SentPacketMap map_with(std::uint64_t first, std::uint64_t last) {
  SentPacketMap map;
  for (std::uint64_t pn = first; pn <= last; ++pn) {
    map.add(sent_pkt(pn, Time::zero() + Duration::millis(pn)));
  }
  return map;
}

TEST(SentPacketMap, NewestFirstBlocksGiveAscendingNewlyAcked) {
  SentPacketMap map = map_with(1, 10);
  const auto& result = map.on_ack_blocks({{9, 10}, {5, 6}, {1, 2}});
  EXPECT_EQ(pns_of(result.newly_acked),
            (std::vector<std::uint64_t>{1, 2, 5, 6, 9, 10}));
  EXPECT_EQ(result.acked_bytes, 6 * kDatagramSize);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.bytes_in_flight(), 4 * kDatagramSize);
}

TEST(SentPacketMap, UnsortedOrOverlappingBlocksStillAscending) {
  SentPacketMap map = map_with(1, 20);
  EXPECT_EQ(pns_of(map.on_ack_blocks({{1, 2}, {9, 10}, {5, 6}}).newly_acked),
            (std::vector<std::uint64_t>{1, 2, 5, 6, 9, 10}));
  EXPECT_EQ(
      pns_of(map.on_ack_blocks({{12, 16}, {3, 4}, {14, 18}, {7, 13}})
                 .newly_acked),
      (std::vector<std::uint64_t>{3, 4, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18}));
  EXPECT_EQ(map.size(), 2u);
}

TEST(SentPacketMap, DuplicateAckReturnsEmptyAndKeepsBytesInFlight) {
  SentPacketMap map = map_with(1, 6);
  EXPECT_EQ(map.on_ack_blocks({{3, 4}, {1, 1}}).newly_acked.size(), 3u);
  const std::int64_t in_flight = map.bytes_in_flight();
  const auto& dup = map.on_ack_blocks({{3, 4}, {1, 1}});
  EXPECT_TRUE(dup.newly_acked.empty());
  EXPECT_EQ(dup.acked_bytes, 0);
  EXPECT_EQ(map.bytes_in_flight(), in_flight);
  EXPECT_EQ(map.size(), 3u);
}

TEST(SentPacketMap, FindAndTakeFailForAckedOrLostPn) {
  SentPacketMap map = map_with(1, 6);
  map.on_ack_blocks({{2, 2}});
  std::vector<SentPacket> lost;
  map.remove_below_if(
      4, [](const SentPacket& p) { return p.pn == 1; }, &lost);
  ASSERT_EQ(lost.size(), 1u);
  SentPacket out;
  for (std::uint64_t pn : {1, 2, 99}) {
    EXPECT_EQ(map.find(pn), nullptr) << pn;
    EXPECT_FALSE(map.take(pn, &out)) << pn;
  }
  ASSERT_NE(map.find(3), nullptr);
  EXPECT_TRUE(map.take(3, &out));
  EXPECT_EQ(out.pn, 3u);
  EXPECT_EQ(map.find(3), nullptr);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.bytes_in_flight(), 3 * kDatagramSize);
}

TEST(SentPacketMap, OldestFollowsTheHead) {
  SentPacketMap map = map_with(1, 5);
  map.on_ack_blocks({{1, 1}});
  ASSERT_NE(map.oldest(), nullptr);
  EXPECT_EQ(map.oldest()->pn, 2u);
  map.on_ack_blocks({{5, 5}, {2, 3}});
  EXPECT_EQ(map.oldest()->pn, 4u);
  map.on_ack_blocks({{4, 4}});
  EXPECT_EQ(map.oldest(), nullptr);
  EXPECT_TRUE(map.empty());
  map.add(sent_pkt(6, Time::zero()));
  ASSERT_NE(map.oldest(), nullptr);
  EXPECT_EQ(map.oldest()->pn, 6u);
}

// Differential run against a std::map model of the same contract: random
// adds (with pn gaps), canonical and scrambled ACKs, takes and loss scans.
TEST(SentPacketMap, MatchesAnOrderedMapModel) {
  for (std::uint64_t seed : {1, 2, 3}) {
    sim::Rng rng(seed);
    SentPacketMap map;
    std::map<std::uint64_t, SentPacket> model;
    std::int64_t model_in_flight = 0;
    std::uint64_t next_pn = 0;
    auto model_remove = [&](std::map<std::uint64_t, SentPacket>::iterator it) {
      if (it->second.in_flight) model_in_flight -= it->second.bytes;
      return model.erase(it);
    };
    auto random_pn = [&] {
      return static_cast<std::uint64_t>(
          rng.uniform(0, static_cast<std::int64_t>(next_pn) + 2));
    };
    for (int op = 0; op < 10'000; ++op) {
      const std::int64_t kind = rng.uniform(0, 9);
      if (kind < 4) {  // add
        next_pn += static_cast<std::uint64_t>(rng.uniform(1, 3));
        SentPacket p = sent_pkt(next_pn, Time::zero() + Duration::micros(op));
        p.bytes = rng.uniform(60, 1500);
        p.in_flight = rng.chance(0.9);
        map.add(p);
        if (p.in_flight) model_in_flight += p.bytes;
        model.emplace(p.pn, p);
      } else if (kind < 7) {  // ACK: newest-first, or scrambled/overlapping
        std::vector<AckBlock> blocks;
        const std::int64_t n = rng.uniform(1, 4);
        for (std::int64_t b = 0; b < n; ++b) {
          const std::uint64_t first = random_pn();
          blocks.push_back(
              {first, first + static_cast<std::uint64_t>(rng.uniform(0, 6))});
        }
        if (rng.chance(0.5)) {
          std::sort(blocks.begin(), blocks.end(),
                    [](const AckBlock& a, const AckBlock& b) {
                      return a.first > b.first;
                    });
        }
        std::vector<std::uint64_t> expect;
        std::int64_t expect_bytes = 0;
        for (auto it = model.begin(); it != model.end();) {
          const bool covered = std::any_of(
              blocks.begin(), blocks.end(), [&](const AckBlock& b) {
                return it->first >= b.first && it->first <= b.last;
              });
          if (!covered) {
            ++it;
            continue;
          }
          expect.push_back(it->first);
          expect_bytes += it->second.bytes;
          it = model_remove(it);
        }
        const auto& result = map.on_ack_blocks(blocks);
        ASSERT_EQ(pns_of(result.newly_acked), expect) << seed << "/" << op;
        ASSERT_EQ(result.acked_bytes, expect_bytes) << seed << "/" << op;
      } else if (kind < 9) {  // take one pn
        const std::uint64_t pn = random_pn();
        SentPacket out;
        const bool found = map.take(pn, &out);
        auto it = model.find(pn);
        ASSERT_EQ(found, it != model.end()) << seed << "/" << op;
        if (found) {
          ASSERT_EQ(out.bytes, it->second.bytes);
          model_remove(it);
        }
      } else {  // loss scan below a bound
        const std::uint64_t bound = random_pn();
        const std::uint64_t stride =
            static_cast<std::uint64_t>(rng.uniform(1, 4));
        auto lost_pred = [&](const SentPacket& p) { return p.pn % stride == 0; };
        std::vector<SentPacket> lost;
        map.remove_below_if(bound, lost_pred, &lost);
        std::vector<std::uint64_t> expect;
        for (auto it = model.begin(); it != model.end() && it->first < bound;) {
          if (!lost_pred(it->second)) {
            ++it;
            continue;
          }
          expect.push_back(it->first);
          it = model_remove(it);
        }
        ASSERT_EQ(pns_of(lost), expect) << seed << "/" << op;
      }
      ASSERT_EQ(map.size(), model.size()) << seed << "/" << op;
      ASSERT_EQ(map.bytes_in_flight(), model_in_flight) << seed << "/" << op;
      ASSERT_EQ(map.oldest() == nullptr, model.empty());
      if (!model.empty()) {
        ASSERT_EQ(map.oldest()->pn, model.begin()->first);
      }
      const std::uint64_t probe = random_pn();
      ASSERT_EQ(map.find(probe) != nullptr, model.count(probe) == 1);
    }
  }
}

// -------------------------------------------------------------- Connection

Connection::Config small_transfer(std::int64_t bytes = 50 * kPayloadPerDatagram) {
  Connection::Config cfg;
  cfg.total_payload_bytes = bytes;
  cfg.cc.algorithm = cc::CcAlgorithm::kCubic;
  return cfg;
}

std::shared_ptr<const TransportAck> ack_of(std::uint64_t first,
                                           std::uint64_t last,
                                           Duration delay = Duration::zero()) {
  auto ack = std::make_shared<TransportAck>();
  ack->blocks = {AckBlock{first, last}};
  ack->ack_delay = delay;
  return ack;
}

Packet ack_packet(std::uint64_t first, std::uint64_t last,
                  Duration delay = Duration::zero()) {
  Packet pkt;
  pkt.kind = net::PacketKind::kQuicAck;
  pkt.size_bytes = kAckPacketSize;
  pkt.ack = ack_of(first, last, delay);
  return pkt;
}

TEST(ConnectionTest, BuildsSequentialChunks) {
  Connection conn(small_transfer());
  auto p1 = conn.build_packet(Time::zero(), Time::zero());
  auto p2 = conn.build_packet(Time::zero(), Time::zero());
  EXPECT_EQ(p1.packet_number + 1, p2.packet_number);
  EXPECT_EQ(p1.stream_offset, 0);
  EXPECT_EQ(p2.stream_offset, kPayloadPerDatagram);
  EXPECT_EQ(conn.bytes_in_flight(), p1.size_bytes + p2.size_bytes);
}

TEST(ConnectionTest, CongestionBlockedAtInitialWindow) {
  Connection conn(small_transfer());
  int sent = 0;
  while (!conn.congestion_blocked() && sent < 100) {
    conn.build_packet(Time::zero(), Time::zero());
    ++sent;
  }
  EXPECT_EQ(sent, 10);  // RFC 9002 initial window = 10 datagrams
}

TEST(ConnectionTest, AckFreesWindowAndMeasuresRtt) {
  Connection conn(small_transfer());
  for (int i = 0; i < 10; ++i) conn.build_packet(Time::zero(), Time::zero());
  conn.on_ack_packet(ack_packet(1, 10), Time::zero() + 40_ms);
  EXPECT_EQ(conn.bytes_in_flight(), 0);
  EXPECT_EQ(conn.rtt().latest(), 40_ms);
  EXPECT_FALSE(conn.congestion_blocked());
}

TEST(ConnectionTest, LastChunkCarriesFin) {
  Connection conn(small_transfer(2 * kPayloadPerDatagram));
  auto p1 = conn.build_packet(Time::zero(), Time::zero());
  auto p2 = conn.build_packet(Time::zero(), Time::zero());
  EXPECT_FALSE(p1.fin);
  EXPECT_TRUE(p2.fin);
  EXPECT_FALSE(conn.has_data_to_send());
}

TEST(ConnectionTest, LossQueuesRetransmission) {
  Connection conn(small_transfer());
  for (int i = 0; i < 10; ++i) conn.build_packet(Time::zero(), Time::zero());
  // ACK 4..10, leaving 1..3 behind by more than the packet threshold.
  conn.on_ack_packet(ack_packet(4, 10), Time::zero() + 40_ms);
  EXPECT_EQ(conn.stats().packets_declared_lost, 3);
  ASSERT_TRUE(conn.has_data_to_send());
  auto retx = conn.build_packet(Time::zero() + 41_ms, Time::zero() + 41_ms);
  EXPECT_EQ(retx.stream_offset, 0);  // oldest lost chunk first
  EXPECT_GT(retx.packet_number, 10u);  // new packet number, QUIC-style
}

TEST(ConnectionTest, CompletionRequiresAllBytesAcked) {
  Connection conn(small_transfer(3 * kPayloadPerDatagram));
  conn.build_packet(Time::zero(), Time::zero());
  conn.build_packet(Time::zero(), Time::zero());
  conn.build_packet(Time::zero(), Time::zero());
  conn.on_ack_packet(ack_packet(1, 2), Time::zero() + 40_ms);
  EXPECT_FALSE(conn.transfer_complete());
  conn.on_ack_packet(ack_packet(3, 3), Time::zero() + 41_ms);
  EXPECT_TRUE(conn.transfer_complete());
  EXPECT_EQ(conn.stats().completion_time, Time::zero() + 41_ms);
}

TEST(ConnectionTest, PacingRateInfiniteBeforeFirstRttSample) {
  Connection conn(small_transfer());
  EXPECT_TRUE(conn.pacing_rate().is_infinite());
  for (int i = 0; i < 10; ++i) conn.build_packet(Time::zero(), Time::zero());
  conn.on_ack_packet(ack_packet(1, 10), Time::zero() + 40_ms);
  EXPECT_FALSE(conn.pacing_rate().is_infinite());
  // rate = 1.25 * cwnd / srtt; cwnd doubled to 30000 by the slow-start ack.
  const double expected =
      1.25 * static_cast<double>(conn.cwnd_bytes()) * 8.0 / 0.040;
  EXPECT_NEAR(conn.pacing_rate().bps(), expected, expected * 0.01);
}

TEST(ConnectionTest, PtoFiresAndProbes) {
  Connection conn(small_transfer());
  conn.build_packet(Time::zero(), Time::zero());
  const Time deadline = conn.next_timer_deadline();
  EXPECT_FALSE(deadline.is_infinite());
  conn.on_timer(deadline);
  EXPECT_EQ(conn.stats().pto_fired, 1);
  EXPECT_TRUE(conn.has_data_to_send());  // probe chunk queued
}

TEST(ConnectionTest, DuplicateAckIsIgnored) {
  Connection conn(small_transfer());
  for (int i = 0; i < 4; ++i) conn.build_packet(Time::zero(), Time::zero());
  conn.on_ack_packet(ack_packet(1, 2), Time::zero() + 40_ms);
  const auto cwnd = conn.cwnd_bytes();
  conn.on_ack_packet(ack_packet(1, 2), Time::zero() + 45_ms);
  EXPECT_EQ(conn.cwnd_bytes(), cwnd);
}

// ---------------------------------------------------- end-to-end transfer

struct Harness {
  EventLoop loop;
  // Server egress -> bottleneck link -> client; client ACKs -> return link
  // -> server. Links sized like the paper's topology (scaled RTT).
  net::Link ack_link;
  ReferenceServer server;
  net::Link data_link;
  Client client;

  class ToClient final : public net::PacketSink {
   public:
    explicit ToClient(Harness& h) : h_(h) {}
    void deliver(Packet pkt) override { h_.client.on_datagram(pkt); }
    Harness& h_;
  };
  class ToServer final : public net::PacketSink {
   public:
    explicit ToServer(Harness& h) : h_(h) {}
    void deliver(Packet pkt) override { h_.server.on_datagram(pkt); }
    Harness& h_;
  };
  ToClient to_client{*this};
  ToServer to_server{*this};

  explicit Harness(std::int64_t payload_bytes, std::int64_t buffer_bytes = -1,
                   cc::CcAlgorithm algo = cc::CcAlgorithm::kCubic)
      : ack_link(loop, {.rate = DataRate::infinite(), .delay = 20_ms},
                 &to_server),
        server(loop,
               [&] {
                 Connection::Config cfg;
                 cfg.total_payload_bytes = payload_bytes;
                 cfg.cc.algorithm = algo;
                 cfg.cc.bbr_flavor = cc::BbrFlavor::kV2Lite;
                 return cfg;
               }(),
               &data_link),
        data_link(loop,
                  {.rate = DataRate::megabits_per_second(40),
                   .delay = 20_ms,
                   .buffer_bytes = buffer_bytes},
                  &to_client),
        client(loop, {.ack = {}, .expected_payload_bytes = payload_bytes},
               &ack_link) {}
};

TEST(EndToEnd, LosslessTransferCompletes) {
  const std::int64_t payload = 200 * kPayloadPerDatagram;
  Harness h(payload);
  h.server.start();
  h.loop.run_until(Time::zero() + 30_s);
  EXPECT_TRUE(h.client.complete());
  EXPECT_TRUE(h.server.connection().transfer_complete());
  EXPECT_EQ(h.client.stats().payload_bytes_received, payload);
  EXPECT_EQ(h.server.connection().stats().packets_declared_lost, 0);
}

TEST(EndToEnd, LossyBottleneckStillCompletes) {
  const std::int64_t payload = 500 * kPayloadPerDatagram;
  // Tiny 8-packet buffer forces drops during slow start.
  Harness h(payload, 8 * kDatagramSize);
  h.server.start();
  h.loop.run_until(Time::zero() + 60_s);
  EXPECT_TRUE(h.client.complete()) << "transfer stalled";
  EXPECT_GT(h.server.connection().stats().packets_declared_lost, 0);
  // Every payload byte arrived exactly once in the interval set.
  EXPECT_EQ(h.client.received().covered_bytes(), payload);
}

TEST(EndToEnd, RttEstimateMatchesPathRtt) {
  Harness h(200 * kPayloadPerDatagram);
  h.server.start();
  h.loop.run_until(Time::zero() + 30_s);
  // 40 ms propagation + serialization; smoothed RTT must sit close above.
  EXPECT_GE(h.server.connection().rtt().min(), 40_ms);
  EXPECT_LT(h.server.connection().rtt().min(), 43_ms);
}

TEST(EndToEnd, BbrTransferCompletes) {
  const std::int64_t payload = 500 * kPayloadPerDatagram;
  Harness h(payload, 40 * kDatagramSize, cc::CcAlgorithm::kBbr);
  h.server.start();
  h.loop.run_until(Time::zero() + 60_s);
  EXPECT_TRUE(h.client.complete());
  EXPECT_TRUE(h.server.connection().controller().has_own_pacing_rate());
}

TEST(EndToEnd, NewRenoTransferCompletes) {
  const std::int64_t payload = 300 * kPayloadPerDatagram;
  Harness h(payload, 40 * kDatagramSize, cc::CcAlgorithm::kNewReno);
  h.server.start();
  h.loop.run_until(Time::zero() + 60_s);
  EXPECT_TRUE(h.client.complete());
}

}  // namespace
}  // namespace quicsteps::quic
