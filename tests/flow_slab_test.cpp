// FlowStateSlab tests, mirroring the PacketSlab suite (slab_test.cpp):
// two-phase construction (reserve -> OS lane -> record lane), free-list
// slot recycling under the fixed capacity, and generation-checked handles
// that audit instead of aliasing a recycled flow's state — plus a fabric
// built past the event loop's 2^14 drain-channel ids.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/audit.hpp"
#include "core/quicsteps.hpp"
#include "framework/flow_slab.hpp"
#include "kernel/os_model.hpp"
#include "sim/random.hpp"

namespace quicsteps {
namespace {

using framework::FlowStateSlab;

/// A minimal record standing in for SenderHost: borrows the slot's
/// OsModel& (the slab's contract) and counts destructions.
struct TestRecord {
  TestRecord(kernel::OsModel& os, int value, int* destroyed)
      : os(&os), value(value), destroyed(destroyed) {}
  ~TestRecord() {
    if (destroyed != nullptr) ++*destroyed;
  }
  kernel::OsModel* os;
  int value;
  int* destroyed;
};

using Slab = FlowStateSlab<TestRecord>;

Slab::Handle emplace(Slab& slab, int value, int* destroyed = nullptr) {
  const Slab::Handle h = slab.reserve_slot();
  kernel::OsModel& os =
      slab.emplace_os(h, kernel::OsTimingConfig{}, sim::Rng(7));
  slab.emplace_record(h, os, value, destroyed);
  return h;
}

/// Redirects audit failures into a list for the lifetime of the test
/// (same idiom as slab_test.cpp — the default handler aborts).
class FlowSlabAuditTest : public ::testing::Test {
 protected:
  FlowSlabAuditTest() {
    check::set_audit_handler([this](const check::AuditFailure& failure) {
      failures_.push_back(failure.to_string());
    });
  }
  ~FlowSlabAuditTest() override { check::set_audit_handler({}); }

  std::vector<std::string> failures_;
};

TEST(FlowStateSlab, TwoPhaseEmplaceRoundTrips) {
  Slab slab(4);
  const Slab::Handle h = emplace(slab, 42);
  EXPECT_EQ(slab.size(), 1u);
  EXPECT_EQ(slab.capacity(), 4u);
  EXPECT_TRUE(slab.alive(h));
  EXPECT_EQ(slab.record(h).value, 42);
  // The record's borrowed OsModel is the slot's own kernel lane entry.
  EXPECT_EQ(slab.record(h).os, &slab.os(h));
}

TEST(FlowStateSlab, RecordsDoNotMoveAsSlotsFill) {
  // The raw-lane layout promise: earlier records stay put while later
  // slots are constructed (vector storage would reallocate and move).
  Slab slab(16);
  const Slab::Handle first = emplace(slab, 0);
  TestRecord* before = &slab.record(first);
  kernel::OsModel* os_before = &slab.os(first);
  for (int i = 1; i < 16; ++i) emplace(slab, i);
  EXPECT_EQ(&slab.record(first), before);
  EXPECT_EQ(&slab.os(first), os_before);
}

TEST(FlowStateSlab, DestroyRunsTheRecordDestructorAndRecyclesTheSlot) {
  Slab slab(2);
  int destroyed = 0;
  const Slab::Handle h = emplace(slab, 1, &destroyed);
  slab.destroy(h);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_FALSE(slab.alive(h));

  // Same slot, different generation: the recycled handle is a new ticket.
  const Slab::Handle next = emplace(slab, 2);
  EXPECT_EQ(h & Slab::kSlotMask, next & Slab::kSlotMask);
  EXPECT_NE(h, next);
  EXPECT_EQ(slab.record(next).value, 2);
}

TEST(FlowStateSlab, ClearDestroysEveryLiveRecord) {
  Slab slab(8);
  int destroyed = 0;
  std::vector<Slab::Handle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(emplace(slab, i, &destroyed));
  slab.clear();
  EXPECT_EQ(destroyed, 8);
  EXPECT_EQ(slab.size(), 0u);
  for (const Slab::Handle h : handles) EXPECT_FALSE(slab.alive(h));
}

TEST_F(FlowSlabAuditTest, StaleHandleAfterRecyclingTripsTheAliasingAudit) {
  if (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  Slab slab(2);
  const Slab::Handle stale = emplace(slab, 1);
  slab.destroy(stale);
  (void)emplace(slab, 2);  // recycles the slot under a new generation
  (void)slab.record(stale);  // must not alias record 2
  ASSERT_FALSE(failures_.empty());
  EXPECT_NE(failures_[0].find("recycled-slot aliasing"), std::string::npos);
}

TEST_F(FlowSlabAuditTest, RecordBeforeOsTripsTheTwoPhaseAudit) {
  if (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  Slab slab(1);
  const Slab::Handle h = slab.reserve_slot();
  kernel::OsModel dummy(kernel::OsTimingConfig{}, sim::Rng(1));
  slab.emplace_record(h, dummy, 1, nullptr);
  ASSERT_FALSE(failures_.empty());
  EXPECT_NE(failures_[0].find("before its OsModel"), std::string::npos);
}

// ------------------------------------------------- fabric beyond 2^14 flows

TEST(FabricScale, FlowsPastTheDrainChannelIdSpaceReachTheTap) {
  // Drain channel ids are 14 bits. Every sender NIC shares the shared
  // path's one TX-completion channel, so a fleet larger than 2^14 flows
  // still wires (a channel per NIC exhausted the id space here) and the
  // flows past index 16,383 transmit onto the wire like the rest.
  constexpr std::size_t kFlows = 16400;
  framework::ExperimentConfig flow;
  flow.stack = framework::StackKind::kIdealQuic;
  flow.payload_bytes = 64 * 1024;
  flow.topology.bottleneck_rate =
      net::DataRate::bits_per_second(std::int64_t{4'000'000} * kFlows);
  framework::MultiFlowConfig config;
  config.lite_metrics = true;
  config.flows.assign(kFlows, framework::FlowSpec{.config = flow});

  sim::EventLoop loop;
  sim::Rng rng(config.seed);
  std::vector<framework::RunResult> live(kFlows);
  framework::Network net(loop, config, rng, live);
  const std::uint32_t first_id = net.host(16384).flow_id();
  const std::uint32_t last_id = net.host(kFlows - 1).flow_id();
  std::vector<std::int64_t> tapped(kFlows - 16384, 0);
  net.path().tap().set_retain_capture(false);
  net.path().tap().set_on_packet([&](const net::Packet& pkt) {
    if (pkt.flow >= first_id && pkt.flow <= last_id) {
      ++tapped[pkt.flow - first_id];
    }
  });
  net.start();
  loop.run_until(sim::Time::zero() + sim::Duration::millis(1));

  for (std::size_t i = 0; i < tapped.size(); ++i) {
    EXPECT_GT(tapped[i], 0) << "flow index " << 16384 + i;
  }
}

}  // namespace
}  // namespace quicsteps
