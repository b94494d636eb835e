// Tests for the stack behavioral models: profile construction, the
// event-loop disciplines (txtime vs waiting), GSO batching, and the
// signature wire behaviors each profile exists to produce.
#include <gtest/gtest.h>

#include "kernel/qdisc_fq.hpp"
#include "net/wire_tap.hpp"
#include "stacks/event_loop_model.hpp"
#include "stacks/stack_profile.hpp"

namespace quicsteps::stacks {
namespace {

using namespace quicsteps::sim::literals;
using net::DataRate;
using net::Packet;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

TEST(Profiles, QuicheUsesTxtimeAndInterval) {
  auto p = quiche_profile({});
  EXPECT_TRUE(p.pass_txtime);
  EXPECT_EQ(p.pacer.kind, pacing::PacerKind::kInterval);
  EXPECT_TRUE(p.cc.spurious_loss_rollback);
}

TEST(Profiles, SfPatchDisablesRollback) {
  auto p = quiche_profile({.sf_patch = true});
  EXPECT_FALSE(p.cc.spurious_loss_rollback);
  EXPECT_EQ(p.name, "quiche-sf");
}

TEST(Profiles, PicoquicUsesLeakyBucket) {
  auto p = picoquic_profile({});
  EXPECT_EQ(p.pacer.kind, pacing::PacerKind::kLeakyBucket);
  EXPECT_FALSE(p.pass_txtime);
  // Loss-based: deep bucket (the 16-17 packet train cap).
  EXPECT_EQ(p.pacer.bucket_depth_bytes, 16 * 1500);
  EXPECT_GT(p.loop_busy_cycle, Duration::zero());
}

TEST(Profiles, PicoquicBbrUsesShallowBucketAndFineTimers) {
  auto p = picoquic_profile({.cca = cc::CcAlgorithm::kBbr});
  EXPECT_LT(p.pacer.bucket_depth_bytes, 4 * 1500);
  EXPECT_EQ(p.loop_busy_cycle, Duration::zero());
  EXPECT_EQ(p.pacer_timer.granularity, Duration::zero());
}

TEST(Profiles, Ngtcp2IsStrictAndFlowControlled) {
  auto p = ngtcp2_profile({});
  EXPECT_FALSE(p.pass_txtime);
  EXPECT_DOUBLE_EQ(p.pacing_rate_factor, 1.0);
  EXPECT_TRUE(p.cc.require_cwnd_limited_growth);
  EXPECT_GT(p.flow_control_credit, 0);
  EXPECT_EQ(p.cc.bbr_flavor, cc::BbrFlavor::kV1);
}

// ---- behavioral: drive a StackServer against a collector ------------------

struct ServerRig {
  EventLoop loop;
  kernel::OsModel os;
  net::CollectorSink sink;
  StackServer server;

  ServerRig(StackProfile profile, std::int64_t payload_bytes)
      : os({}, sim::Rng(7)),
        server(loop, os, std::move(profile),
               [&] {
                 quic::Connection::Config cfg;
                 cfg.total_payload_bytes = payload_bytes;
                 return cfg;
               }(),
               &sink) {}
};

TEST(StackServer, QuicheAttachesTxtimeToEveryPacket) {
  ServerRig rig(quiche_profile({}), 100 * quic::kPayloadPerDatagram);
  rig.server.start();
  rig.loop.run_until(Time::zero() + 10_ms);
  ASSERT_FALSE(rig.sink.packets().empty());
  for (const auto& pkt : rig.sink.packets()) {
    EXPECT_TRUE(pkt.has_txtime);
  }
}

TEST(StackServer, QuicheWritesWholeWindowImmediately) {
  // No qdisc: the initial window leaves as one burst (cwnd-limited, no
  // user-space waiting) — the "quiche does not pace itself" property.
  ServerRig rig(quiche_profile({}), 100 * quic::kPayloadPerDatagram);
  rig.server.start();
  rig.loop.run_until(Time::zero() + 1_ms);
  EXPECT_EQ(rig.sink.packets().size(), 10u);  // full initial window
}

TEST(StackServer, WaitingStackSpacesInitialWindowAfterRttSample) {
  // ngtcp2-style: before any RTT sample, pacing is unbounded (IW burst);
  // this test only checks the app produces data and honors cwnd.
  ServerRig rig(ngtcp2_profile({}), 100 * quic::kPayloadPerDatagram);
  rig.server.start();
  rig.loop.run_until(Time::zero() + 1_ms);
  EXPECT_EQ(rig.sink.packets().size(), 10u);
  EXPECT_FALSE(rig.sink.packets()[0].has_txtime);
}

TEST(StackServer, GsoBatchesIntoSuperPackets) {
  auto profile = quiche_profile(
      {.gso = kernel::GsoMode::kOn, .gso_segments = 8});
  ServerRig rig(std::move(profile), 100 * quic::kPayloadPerDatagram);
  rig.server.start();
  rig.loop.run_until(Time::zero() + 1_ms);
  ASSERT_FALSE(rig.sink.packets().empty());
  EXPECT_TRUE(rig.sink.packets()[0].is_gso_buffer());
  EXPECT_EQ(rig.sink.packets()[0].gso_segment_count, 8u);
  // One syscall per buffer, not per packet.
  EXPECT_LT(rig.server.stats().send_syscalls, 3u);
}

TEST(StackServer, PacedGsoCarriesRate) {
  auto profile = quiche_profile(
      {.gso = kernel::GsoMode::kPaced, .gso_segments = 8});
  ServerRig rig(std::move(profile), 200 * quic::kPayloadPerDatagram);
  rig.server.start();
  rig.loop.run_until(Time::zero() + 1_ms);
  // Initial buffers ship before an RTT sample -> rate may be zero; feed an
  // ACK so the pacing rate exists, then expect rated buffers.
  Packet ack;
  ack.kind = net::PacketKind::kQuicAck;
  auto payload = std::make_shared<net::TransportAck>();
  payload->blocks = {net::AckBlock{1, 10}};
  payload->ack_delay = Duration::zero();
  ack.ack = payload;
  rig.loop.run_until(Time::zero() + 40_ms);
  rig.server.on_datagram(ack);
  rig.loop.run_until(Time::zero() + 41_ms);
  bool saw_rated = false;
  for (const auto& pkt : rig.sink.packets()) {
    if (pkt.is_gso_buffer() && !pkt.gso_pacing_rate.is_zero()) {
      saw_rated = true;
    }
  }
  EXPECT_TRUE(saw_rated);
}

TEST(StackServer, CpuTimeTracksSyscalls) {
  ServerRig rig(quiche_profile({}), 50 * quic::kPayloadPerDatagram);
  rig.server.start();
  rig.loop.run_until(Time::zero() + 1_ms);
  EXPECT_GT(rig.server.stats().send_syscalls, 0u);
  EXPECT_GT(rig.server.stats().cpu_time, Duration::zero());
}

}  // namespace
}  // namespace quicsteps::stacks
