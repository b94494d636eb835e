// Unit + integration tests for the TCP/TLS baseline model: segment
// accounting, cumulative/SACK ACK processing, RACK-style loss rules,
// Karn's rule, RTO behavior, and an end-to-end transfer.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "net/link.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_client.hpp"
#include "tcp/tcp_connection.hpp"
#include "tcp/segment_window.hpp"
#include "tcp/tcp_server.hpp"

namespace quicsteps::tcp {
namespace {

using namespace quicsteps::sim::literals;
using net::AckBlock;
using net::DataRate;
using net::Packet;
using net::TransportAck;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

TcpConnection::Config small_transfer(std::int64_t segments = 50) {
  TcpConnection::Config cfg;
  cfg.total_payload_bytes = segments * kPayloadPerSegment;
  return cfg;
}

Packet tcp_ack(std::vector<AckBlock> blocks,
               Duration delay = Duration::zero()) {
  Packet pkt;
  pkt.kind = net::PacketKind::kTcpAck;
  pkt.size_bytes = kAckSegmentSize;
  auto ack = std::make_shared<TransportAck>();
  ack->blocks = std::move(blocks);
  ack->ack_delay = delay;
  pkt.ack = std::move(ack);
  return pkt;
}

// Differential run of the send window against std::map/std::set models of
// the in-flight and lost segments: new sends, retransmissions of lost
// segments, overlapping ACK ranges, loss scans and RTOs.
TEST(SegmentWindow, MatchesAnOrderedMapModel) {
  using Segment = SegmentWindow::Segment;
  for (std::uint64_t seed : {1, 2, 3}) {
    sim::Rng rng(seed);
    SegmentWindow window;
    std::map<std::uint64_t, Segment> in_flight;
    std::set<std::uint64_t> lost;
    std::uint64_t next = 0;
    std::int64_t model_bytes = 0;
    auto declare_lost = [&](std::map<std::uint64_t, Segment>::iterator it) {
      model_bytes -= it->second.bytes;
      lost.insert(it->first);
      return in_flight.erase(it);
    };
    auto random_seq = [&] {
      return static_cast<std::uint64_t>(
          rng.uniform(0, static_cast<std::int64_t>(next) + 2));
    };
    for (int op = 0; op < 10'000; ++op) {
      const Time now = Time::zero() + Duration::micros(op);
      const std::int64_t kind = rng.uniform(0, 9);
      if (kind < 4 || (kind == 4 && lost.empty())) {  // new segment
        const Segment seg{now, rng.uniform(66, 1500), false};
        window.on_sent(next, seg);
        in_flight.emplace(next++, seg);
        model_bytes += seg.bytes;
      } else if (kind == 4) {  // retransmit a lost segment
        auto it = lost.begin();
        std::advance(it, rng.uniform(
                             0, static_cast<std::int64_t>(lost.size()) - 1));
        const Segment seg{now, rng.uniform(66, 1500), true};
        window.on_sent(*it, seg);
        in_flight.emplace(*it, seg);
        model_bytes += seg.bytes;
        lost.erase(it);
      } else if (kind < 7) {  // ACK one range
        const std::uint64_t first = random_seq();
        const std::uint64_t last =
            first + static_cast<std::uint64_t>(rng.uniform(0, 12));
        std::vector<std::uint64_t> got;
        window.ack(first, last, [&](std::uint64_t seq, const Segment& seg) {
          got.push_back(seq);
          EXPECT_EQ(seg.bytes, in_flight.at(seq).bytes);
        });
        std::vector<std::uint64_t> expect;
        for (auto it = in_flight.lower_bound(first);
             it != in_flight.end() && it->first <= last;) {
          expect.push_back(it->first);
          model_bytes -= it->second.bytes;
          it = in_flight.erase(it);
        }
        ASSERT_EQ(got, expect) << seed << "/" << op;
      } else if (kind < 9) {  // loss scan below a bound
        const std::uint64_t bound = random_seq();
        const std::uint64_t stride =
            static_cast<std::uint64_t>(rng.uniform(1, 4));
        auto pred = [&](std::uint64_t seq, const Segment& seg) {
          return seg.retransmitted || seq % stride == 0;
        };
        std::vector<std::uint64_t> got;
        window.declare_lost_below_if(
            bound, [&](std::uint64_t seq, const Segment& seg) {
              const bool is_lost = pred(seq, seg);
              if (is_lost) got.push_back(seq);
              return is_lost;
            });
        std::vector<std::uint64_t> expect;
        for (auto it = in_flight.begin();
             it != in_flight.end() && it->first < bound;) {
          if (!pred(it->first, it->second)) {
            ++it;
            continue;
          }
          expect.push_back(it->first);
          it = declare_lost(it);
        }
        ASSERT_EQ(got, expect) << seed << "/" << op;
      } else if (!in_flight.empty()) {  // RTO on the oldest
        ASSERT_EQ(window.oldest(), in_flight.begin()->first);
        window.declare_oldest_lost();
        declare_lost(in_flight.begin());
      }
      ASSERT_EQ(window.next_seq(), next) << seed << "/" << op;
      ASSERT_EQ(window.in_flight(), in_flight.size()) << seed << "/" << op;
      ASSERT_EQ(window.empty(), in_flight.empty());
      ASSERT_EQ(window.bytes_in_flight(), model_bytes) << seed << "/" << op;
      if (!in_flight.empty()) {
        ASSERT_EQ(window.oldest(), in_flight.begin()->first);
        ASSERT_EQ(window.oldest_segment().time_sent,
                  in_flight.begin()->second.time_sent);
      }
    }
  }
}

TEST(TcpConnection, BuildsSequentialSegments) {
  TcpConnection conn(small_transfer());
  auto s0 = conn.build_segment(Time::zero());
  auto s1 = conn.build_segment(Time::zero());
  EXPECT_EQ(s0.packet_number, 0u);
  EXPECT_EQ(s1.packet_number, 1u);
  EXPECT_EQ(s1.stream_offset, kPayloadPerSegment);
  EXPECT_EQ(conn.bytes_in_flight(), s0.size_bytes + s1.size_bytes);
}

TEST(TcpConnection, CumulativeAckAdvancesCompletion) {
  TcpConnection conn(small_transfer(3));
  for (int i = 0; i < 3; ++i) conn.build_segment(Time::zero());
  EXPECT_FALSE(conn.transfer_complete());
  conn.on_ack_packet(tcp_ack({{0, 2}}), Time::zero() + 40_ms);
  EXPECT_TRUE(conn.transfer_complete());
  EXPECT_EQ(conn.bytes_in_flight(), 0);
}

TEST(TcpConnection, SackHoleDeclaredLostAfterDupThreshold) {
  TcpConnection conn(small_transfer());
  for (int i = 0; i < 8; ++i) conn.build_segment(Time::zero());
  // Cumulative 0..1, SACK 5..7: hole 2..4; seq 2,3,4 all >= 3 behind 7.
  conn.on_ack_packet(tcp_ack({{5, 7}, {0, 1}}), Time::zero() + 40_ms);
  EXPECT_EQ(conn.stats().segments_declared_lost, 3);
  // Lost segments queue for retransmission, oldest first, same sequence.
  auto retx = conn.build_segment(Time::zero() + 41_ms);
  EXPECT_EQ(retx.packet_number, 2u);
}

TEST(TcpConnection, RetransmissionJudgedOnlyByTime) {
  TcpConnection conn(small_transfer());
  for (int i = 0; i < 8; ++i) conn.build_segment(Time::zero());
  conn.on_ack_packet(tcp_ack({{5, 7}, {0, 1}}), Time::zero() + 40_ms);
  ASSERT_EQ(conn.stats().segments_declared_lost, 3);
  // Retransmit seq 2; newer SACKs must NOT instantly re-declare it lost.
  conn.build_segment(Time::zero() + 41_ms);
  conn.on_ack_packet(tcp_ack({{8, 8}, {0, 1}}), Time::zero() + 45_ms);
  EXPECT_EQ(conn.stats().segments_declared_lost, 3);  // unchanged
}

TEST(TcpConnection, KarnsRuleSkipsRetransmittedRttSamples) {
  TcpConnection conn(small_transfer());
  for (int i = 0; i < 8; ++i) conn.build_segment(Time::zero());
  conn.on_ack_packet(tcp_ack({{5, 7}, {0, 1}}), Time::zero() + 40_ms);
  const auto srtt_before = conn.rtt().smoothed();
  conn.build_segment(Time::zero() + 100_ms);  // retransmit seq 2
  // ACK covering only the retransmitted segment: no RTT update.
  conn.on_ack_packet(tcp_ack({{2, 2}}), Time::zero() + 900_ms);
  EXPECT_EQ(conn.rtt().smoothed(), srtt_before);
}

TEST(TcpConnection, RtoRetransmitsOldestAndBacksOff) {
  TcpConnection conn(small_transfer());
  conn.build_segment(Time::zero());
  const Time first_deadline = conn.next_timer_deadline();
  EXPECT_GE(first_deadline, Time::zero() + 200_ms);  // RTO_MIN
  conn.on_timer(first_deadline);
  EXPECT_EQ(conn.stats().rto_fired, 1);
  EXPECT_TRUE(conn.has_data_to_send());
  conn.build_segment(first_deadline);  // retransmit
  const Time second_deadline = conn.next_timer_deadline();
  EXPECT_GT(second_deadline - first_deadline,
            first_deadline - Time::zero());  // exponential backoff
}

TEST(TcpConnection, CongestionBlockedAtInitialWindow) {
  TcpConnection conn(small_transfer());
  int sent = 0;
  while (!conn.congestion_blocked() && sent < 100) {
    conn.build_segment(Time::zero());
    ++sent;
  }
  EXPECT_EQ(sent, 10);
}

struct TcpHarness {
  EventLoop loop;
  net::Link ack_link;
  TcpServer server;
  net::Link data_link;
  TcpClient client;

  net::CallbackSink to_client{
      [this](Packet pkt) { client.on_datagram(pkt); }};
  net::CallbackSink to_server{
      [this](Packet pkt) { server.on_datagram(pkt); }};

  explicit TcpHarness(std::int64_t payload, std::int64_t buffer_bytes = -1)
      : ack_link(loop, {.rate = DataRate::infinite(), .delay = 20_ms},
                 &to_server),
        server(loop,
               [&] {
                 TcpServer::Config cfg;
                 cfg.connection.total_payload_bytes = payload;
                 return cfg;
               }(),
               &data_link),
        data_link(loop,
                  {.rate = DataRate::megabits_per_second(40),
                   .delay = 20_ms,
                   .buffer_bytes = buffer_bytes},
                  &to_client),
        client(loop, {.expected_payload_bytes = payload, .ack = {}},
               &ack_link) {}
};

TEST(TcpEndToEnd, LosslessTransferCompletes) {
  const std::int64_t payload = 300 * kPayloadPerSegment;
  TcpHarness h(payload);
  h.server.start();
  h.loop.run_until(Time::zero() + 60_s);
  EXPECT_TRUE(h.client.complete());
  EXPECT_EQ(h.client.stats().payload_bytes_received, payload);
  EXPECT_EQ(h.server.connection().stats().segments_declared_lost, 0);
}

TEST(TcpEndToEnd, LossyBottleneckCompletesWithRetransmissions) {
  const std::int64_t payload = 600 * kPayloadPerSegment;
  TcpHarness h(payload, 20 * kSegmentSize);
  h.server.start();
  h.loop.run_until(Time::zero() + 120_s);
  EXPECT_TRUE(h.client.complete());
  EXPECT_GT(h.server.connection().stats().segments_retransmitted, 0);
  EXPECT_EQ(h.client.stats().payload_bytes_received, payload);
}

TEST(TcpEndToEnd, DuplicateTriggersImmediateAck) {
  // Covered implicitly by the lossy test completing; here verify the
  // counter moves when the same segment arrives twice.
  EventLoop loop;
  net::CollectorSink acks;
  TcpClient client(loop, {.expected_payload_bytes = 1 << 20, .ack = {}},
                   &acks);
  Packet seg;
  seg.kind = net::PacketKind::kTcpData;
  seg.packet_number = 0;
  seg.stream_offset = 0;
  seg.stream_length = kPayloadPerSegment;
  seg.size_bytes = kSegmentSize;
  client.on_datagram(seg);
  const auto before = acks.packets().size();
  client.on_datagram(seg);  // duplicate
  EXPECT_EQ(client.stats().duplicate_segments, 1);
  EXPECT_GT(acks.packets().size(), before);  // immediate dup-ACK
}

}  // namespace
}  // namespace quicsteps::tcp
