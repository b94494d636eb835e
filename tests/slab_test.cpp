// Datapath storage and scheduling tests: PacketSlab put/take
// round-trips and free-list recycling, the recycled-slot aliasing audit,
// drain-channel execution order against closure events (shared sequence
// counter), the run() train loop, the slab-backed TBF (a burst train
// split across a drop-tail boundary and a golden release schedule), and a
// fabric built past the event loop's 2^14 drain-channel ids.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/audit.hpp"
#include "core/quicsteps.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps {
namespace {

using namespace quicsteps::sim::literals;
using net::DataRate;
using net::Packet;
using net::PacketSlab;
using sim::Duration;
using sim::EventClass;
using sim::EventLoop;
using sim::Time;

Packet make_packet(std::uint64_t id, std::int64_t size = 1500) {
  Packet p;
  p.id = id;
  p.flow = 1;
  p.size_bytes = size;
  return p;
}

/// Redirects audit failures into a list for the lifetime of the test
/// (same idiom as check_test.cpp — the default handler aborts).
class AuditCaptureTest : public ::testing::Test {
 protected:
  AuditCaptureTest() {
    check::set_audit_handler([this](const check::AuditFailure& failure) {
      failures_.push_back(failure.to_string());
    });
  }
  ~AuditCaptureTest() override { check::set_audit_handler({}); }

  std::vector<std::string> failures_;
};

// ------------------------------------------------------------ PacketSlab

TEST(PacketSlab, PutTakeRoundTripsThePacket) {
  PacketSlab slab;
  const PacketSlab::Ref ref = slab.put(make_packet(42, 1234));
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_EQ(slab.size_bytes(ref), 1234u);
  EXPECT_EQ(slab.peek(ref).id, 42u);
  const Packet pkt = slab.take(ref);
  EXPECT_EQ(pkt.id, 42u);
  EXPECT_EQ(pkt.size_bytes, 1234);
  EXPECT_EQ(slab.live(), 0u);
}

TEST(PacketSlab, FreeListBoundsCapacityToTheHighWaterMark) {
  PacketSlab slab;
  // 1000 packets through the slab, never more than 4 in flight: the slab
  // must recycle slots instead of growing per packet.
  std::vector<PacketSlab::Ref> in_flight;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    in_flight.push_back(slab.put(make_packet(id)));
    if (in_flight.size() == 4) {
      for (const PacketSlab::Ref ref : in_flight) {
        (void)slab.take(ref);
      }
      in_flight.clear();
    }
  }
  EXPECT_LE(slab.capacity(), 4u);
  EXPECT_EQ(slab.live(), in_flight.size());
}

TEST(PacketSlab, RefsStayDistinctAcrossRecycling) {
  PacketSlab slab;
  const PacketSlab::Ref first = slab.put(make_packet(1));
  (void)slab.take(first);
  const PacketSlab::Ref second = slab.put(make_packet(2));
  // Same slot, different generation: the recycled ref is a new ticket.
  EXPECT_EQ(first & PacketSlab::kSlotMask, second & PacketSlab::kSlotMask);
  EXPECT_NE(first, second);
  EXPECT_EQ(slab.peek(second).id, 2u);
  (void)slab.take(second);
}

TEST_F(AuditCaptureTest, StaleRefAfterRecyclingTripsTheAliasingAudit) {
  if (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  PacketSlab slab;
  const PacketSlab::Ref stale = slab.put(make_packet(1));
  (void)slab.take(stale);
  (void)slab.put(make_packet(2));  // recycles the slot under a new gen
  (void)slab.peek(stale);          // the consumed ref must not alias packet 2
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("recycled-slot aliasing"), std::string::npos);
}

TEST_F(AuditCaptureTest, DoubleTakeTripsTheAliasingAudit) {
  if (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  PacketSlab slab;
  const PacketSlab::Ref ref = slab.put(make_packet(7));
  (void)slab.take(ref);
  (void)slab.take(ref);
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("recycled-slot aliasing"), std::string::npos);
}

// -------------------------------------------------------- drain channels

void push_payload(void* ctx, std::uint32_t payload) {
  static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(payload));
}

TEST(DrainChannel, InterleavesWithClosureEventsInScheduleOrder) {
  // Drain records and closures share one sequence counter, so a datapath
  // hop (drain) and a timer (closure) due at the same instant run in the
  // order they were scheduled.
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kDelay, push_payload, &order);
  const Time t = Time::from_ns(1'000'000);
  loop.schedule_at(t, [&order] { order.push_back(100); });
  loop.schedule_drain_at(t, ch, 1);
  loop.schedule_drain_at(t, ch, 2);
  loop.schedule_at(t, [&order] { order.push_back(101); });
  loop.schedule_drain_at(t + Duration::micros(5), ch, 3);
  const std::size_t executed = loop.run();
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(order, (std::vector<int>{100, 1, 2, 101, 3}));
  EXPECT_EQ(loop.now(), t + Duration::micros(5));
}

TEST(DrainChannel, TrainLoopBatchesConsecutiveDrainRecords) {
  if (!sim::kLoopProfilingEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_TRACE=OFF";
  }
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kTransmit, push_payload, &order);
  // A pacer-burst shape: one closure (the timer) followed by a train of
  // drain records at successive NIC completion times.
  loop.schedule_at(Time::from_ns(1000), [&order] { order.push_back(-1); });
  for (int i = 0; i < 16; ++i) {
    loop.schedule_drain_at(Time::from_ns(2000 + i * 10), ch,
                           static_cast<std::uint32_t>(i));
  }
  loop.run();
  ASSERT_EQ(order.size(), 17u);
  EXPECT_EQ(order.front(), -1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[1 + i], i);
  EXPECT_EQ(loop.stats().drain_executed, 16u);
  // After the closure surfaces the first drain record, the rest of the
  // train rides the fast loop without re-entering the cursor search.
  EXPECT_GE(loop.stats().drain_batched, 15u);
}

/// Drain callback that posts its successor 1 ns later — into the bucket
/// being drained — until the chain has run `remaining` more times.
struct Chain {
  EventLoop* loop = nullptr;
  sim::DrainId ch = 0;
  int remaining = 0;
  int ran = 0;
};

void chain_step(void* ctx, std::uint32_t payload) {
  auto* chain = static_cast<Chain*>(ctx);
  ++chain->ran;
  if (payload == 1 && chain->remaining-- > 0) {
    chain->loop->post_drain_at(chain->loop->now() + Duration::nanos(1),
                               chain->ch, 1);
  }
}

TEST(DrainChannel, InsertsIntoTheActiveBucketKeepTheTrainGoing) {
  if constexpr (sim::kLoopProfilingEnabled) {
    EventLoop loop;
    Chain chain;
    chain.loop = &loop;
    chain.ch = loop.register_drain(EventClass::kQueue, chain_step, &chain);
    chain.remaining = 1000;
    // The chain starts at t=0; a sentinel later in the same 8.192 us
    // bucket keeps the bucket non-empty, so every post is an insert into
    // the sorted active bucket, ahead of its latest record.
    loop.post_drain_at(Time::zero(), chain.ch, 1);
    loop.post_drain_at(Time::from_ns(8000), chain.ch, 0);
    loop.run();
    EXPECT_EQ(chain.ran, 1002);
    EXPECT_EQ(loop.stats().drain_executed, 1002u);
    // Only the first record needs the cursor search; every later one,
    // the sentinel included, rides the train loop.
    EXPECT_EQ(loop.stats().drain_batched, loop.stats().drain_executed - 1);
  } else {
    GTEST_SKIP() << "built with -DQUICSTEPS_TRACE=OFF";
  }
}

TEST(DrainChannel, CancelledDrainRecordNeverFires) {
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kWakeup, push_payload, &order);
  sim::EventHandle keep = loop.schedule_drain_at(Time::from_ns(500), ch, 1);
  sim::EventHandle dead = loop.schedule_drain_at(Time::from_ns(500), ch, 2);
  dead.cancel();
  EXPECT_TRUE(keep.pending());
  EXPECT_FALSE(dead.pending());
  loop.run();
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_TRUE(loop.empty());
}

TEST(DrainChannel, RunUntilHonorsTheDeadlineForDrainRecords) {
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kDelay, push_payload, &order);
  loop.schedule_drain_at(Time::from_ns(1000), ch, 1);
  loop.schedule_drain_at(Time::from_ns(2000), ch, 2);
  loop.schedule_drain_at(Time::from_ns(3000), ch, 3);
  loop.run_until(Time::from_ns(2000));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ------------------------------------------- slab-backed TBF drop trains

TEST(SlabTbf, BurstTrainSplitsAcrossTheDropTailBoundary) {
  // A 5-packet burst against a 2-packet FIFO: the accepted prefix flows
  // through the slab and out; the dropped tail must never occupy a slot —
  // after the run drains, every slot is free again.
  EventLoop loop;
  net::CollectorSink sink;
  PacketSlab slab;
  kernel::TbfQdisc::Config config;
  config.rate = DataRate::megabits_per_second(12);  // 1500 B per ms
  config.burst_bytes = 1500;
  config.limit_bytes = 3000;
  kernel::TbfQdisc tbf(loop, slab, config, &sink);

  for (std::uint64_t id = 1; id <= 5; ++id) {
    tbf.deliver(make_packet(id));
  }
  // Packet 1 left on the initial token burst; 2 and 3 fill the FIFO;
  // 4 and 5 hit drop-tail before ever touching the slab.
  EXPECT_EQ(tbf.counters().packets_dropped, 2);
  EXPECT_EQ(tbf.backlog_packets(), 2u);
  EXPECT_EQ(slab.live(), 2u);

  loop.run();
  ASSERT_EQ(sink.packets().size(), 3u);
  EXPECT_EQ(sink.packets()[0].id, 1u);
  EXPECT_EQ(sink.packets()[1].id, 2u);
  EXPECT_EQ(sink.packets()[2].id, 3u);
  EXPECT_EQ(tbf.backlog_bytes(), 0);
  EXPECT_EQ(slab.live(), 0u);  // no stale refs left behind by the drops
}

/// Records the instant each packet reaches it.
class TimestampSink final : public net::PacketSink {
 public:
  explicit TimestampSink(EventLoop& loop) : loop_(loop) {}
  void deliver(Packet /*pkt*/) override {
    times_ns.push_back(loop_.now().ns());
  }
  std::vector<std::int64_t> times_ns;

 private:
  EventLoop& loop_;
};

TEST(SlabTbf, ReleaseScheduleGolden) {
  // Eight growing packets through a one-packet bucket at 1500 B/ms: the
  // first leaves on the initial burst, each later one when the bucket
  // covers it. The instants were captured when a closure-per-packet TBF
  // still ran beside the slab-backed one and both produced them, so they
  // pin the token arithmetic, not just this implementation's agreement
  // with itself.
  EventLoop loop;
  TimestampSink sink(loop);
  PacketSlab slab;
  kernel::TbfQdisc::Config config;
  config.rate = DataRate::megabits_per_second(12);
  config.burst_bytes = 1500;
  config.limit_bytes = 100 * 1500;
  kernel::TbfQdisc tbf(loop, slab, config, &sink);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    tbf.deliver(make_packet(id, 700 + static_cast<std::int64_t>(id) * 100));
  }
  loop.run();
  const std::vector<std::int64_t> golden_ns = {
      0,       133334,  800001,  1533334,
      2333334, 3200001, 4133334, 5133334};
  EXPECT_EQ(sink.times_ns, golden_ns);
  EXPECT_EQ(slab.live(), 0u);
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
