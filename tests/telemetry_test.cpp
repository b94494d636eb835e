// Fleet telemetry unit tests: FlowSampler determinism, QuantileSketch
// accuracy contracts, TimeSeries windowing semantics, and the
// HealthReport detectors + JSON shape. The end-to-end gates (N=1000
// artifact goldens, sampled-trace wire-hash identity) live in
// tests/flows_test.cpp — this file owns the component contracts those
// gates compose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/quicsteps.hpp"
#include "obs/flow_sampler.hpp"
#include "obs/health_report.hpp"
#include "obs/quantile_sketch.hpp"
#include "obs/time_series.hpp"

namespace quicsteps {
namespace {

using obs::FlowSampler;
using obs::HealthContext;
using obs::HealthReport;
using obs::QuantileSketch;
using obs::TimeSeries;
using sim::Duration;
using sim::Time;

// ------------------------------------------------------- FlowSampler

TEST(FlowSampler, DefaultAndRateOneSampleEverything) {
  EXPECT_TRUE(FlowSampler().sampled(0));
  EXPECT_TRUE(FlowSampler().sampled(12345));
  const FlowSampler one(7, 1);
  EXPECT_TRUE(one.sampled(0));
  EXPECT_TRUE(one.sampled(99));
}

TEST(FlowSampler, IsAPureFunctionOfSeedAndFlow) {
  const FlowSampler a(42, 16);
  const FlowSampler b(42, 16);
  for (std::uint32_t flow = 0; flow < 4096; ++flow) {
    EXPECT_EQ(a.sampled(flow), b.sampled(flow)) << flow;
  }
}

TEST(FlowSampler, HitsRoughlyOneInNAndSeedsDecorrelate) {
  const FlowSampler s(11, 100);
  int hits = 0;
  for (std::uint32_t flow = 0; flow < 100'000; ++flow) {
    hits += s.sampled(flow) ? 1 : 0;
  }
  // 1-in-100 over 100k flows: the splitmix mix should land near 1000.
  EXPECT_GT(hits, 700);
  EXPECT_LT(hits, 1300);

  // Different seeds pick different subsets (not merely shifted).
  const FlowSampler t(12, 100);
  int overlap = 0;
  for (std::uint32_t flow = 0; flow < 100'000; ++flow) {
    overlap += (s.sampled(flow) && t.sampled(flow)) ? 1 : 0;
  }
  EXPECT_LT(overlap, hits / 2);
}

// ---------------------------------------------------- QuantileSketch

TEST(QuantileSketch, SmallMagnitudesAreExact) {
  QuantileSketch sk;
  for (std::int64_t v = 0; v < 60; ++v) sk.observe(v);
  // |v| < 64 is one bucket per integer: quantiles are exact.
  EXPECT_EQ(sk.quantile(0.5), 29);
  EXPECT_EQ(sk.quantile(1.0), 59);
  EXPECT_EQ(sk.min(), 0);
  EXPECT_EQ(sk.max(), 59);
  EXPECT_EQ(sk.count(), 60);
  EXPECT_EQ(sk.sum(), 59 * 60 / 2);
}

TEST(QuantileSketch, NegativeValuesOrderBeforePositive) {
  QuantileSketch sk;
  sk.observe(-50);
  sk.observe(-5);
  sk.observe(3);
  sk.observe(40);
  EXPECT_EQ(sk.quantile(0.25), -50);
  EXPECT_EQ(sk.quantile(0.5), -5);
  EXPECT_EQ(sk.quantile(0.75), 3);
  EXPECT_EQ(sk.quantile(1.0), 40);
}

// Per-stage pacing errors are recorded in a QuantileSketch. Far outliers
// at both ends (-10 s and +200 ms in microseconds) are never clipped or
// hidden: they keep their own buckets at the extreme ranks, and
// count/sum/min/max and the rendering carry them exactly.
TEST(Histogram, UnderAndOverflowAreNeverSilent) {
  QuantileSketch sk;
  sk.observe(-50);
  sk.observe(-5);
  sk.observe(3);
  sk.observe(40);
  sk.observe(-10'000'000);
  sk.observe(200'000);
  EXPECT_EQ(sk.count(), 6);
  EXPECT_EQ(sk.sum(), -10'000'000 - 50 - 5 + 3 + 40 + 200'000);
  EXPECT_LE(sk.quantile(0.1), -10'000'000);
  EXPECT_EQ(QuantileSketch::bucket_of(sk.quantile(0.1)),
            QuantileSketch::bucket_of(-10'000'000));
  EXPECT_EQ(sk.quantile(0.25), -50);
  EXPECT_EQ(sk.quantile(0.75), 40);
  EXPECT_GE(sk.quantile(1.0), 200'000);
  EXPECT_EQ(QuantileSketch::bucket_of(sk.quantile(1.0)),
            QuantileSketch::bucket_of(200'000));
  EXPECT_NE(sk.to_string().find("min=-10000000 max=200000 "),
            std::string::npos);
}

TEST(QuantileSketch, EmptySketchReportsZeros) {
  const QuantileSketch sk;
  EXPECT_EQ(sk.quantile(0.99), 0);
  EXPECT_EQ(sk.to_string(),
            "count=0 sum=0 min=0 max=0 p50=0 p90=0 p99=0 p999=0");
}

// splitmix64 — deterministic pseudo-random stream for the accuracy
// cross-check (no std::random: identical values on every platform).
std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

TEST(QuantileSketch, QuantilesLandWithinOneBucketOfExact) {
  // The acceptance cross-check: sketch quantiles vs the exact sorted
  // percentile over the full sample, across five orders of magnitude and
  // both signs. "Within one log bucket" is the sketch's contract
  // (inclusive upper edge of the rank's bucket).
  QuantileSketch sk;
  std::vector<std::int64_t> exact;
  std::uint64_t state = 99;
  for (int i = 0; i < 50'000; ++i) {
    const std::int64_t v =
        static_cast<std::int64_t>(splitmix(state) % 2'000'000) - 400'000;
    sk.observe(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(exact.size() - 1));
    const std::int64_t truth = exact[rank];
    const std::int64_t est = sk.quantile(q);
    EXPECT_LE(std::abs(QuantileSketch::bucket_of(est) -
                       QuantileSketch::bucket_of(truth)),
              1)
        << "q=" << q << " exact=" << truth << " sketch=" << est;
    // The bucket bound implies a ~3.1% relative error bound; check it
    // directly too (plus a bucket of absolute slack near zero).
    EXPECT_LE(std::abs(est - truth),
              std::abs(truth) / 16 + 64)
        << "q=" << q;
  }
}

// --------------------------------------------------------- TimeSeries

TEST(TimeSeries, WindowsAccumulateByTapTimestamp) {
  TimeSeries ts(Duration::millis(1), 64, nullptr, nullptr);
  ts.on_wire_packet(Time::from_ns(100'000), 1200);     // window 0
  ts.on_wire_packet(Time::from_ns(900'000), 1200);     // window 0
  ts.on_wire_packet(Time::from_ns(1'500'000), 600);    // window 1
  ts.finalize();
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.window(0).wire_packets, 2);
  EXPECT_EQ(ts.window(0).wire_bytes, 2400);
  EXPECT_EQ(ts.window(1).wire_packets, 1);
  EXPECT_EQ(ts.window(1).wire_bytes, 600);
  EXPECT_EQ(ts.evicted_windows(), 0);
}

TEST(TimeSeries, RingEvictsOldestAndCountsIt) {
  TimeSeries ts(Duration::millis(1), 4, nullptr, nullptr);
  for (std::int64_t w = 0; w < 10; ++w) {
    ts.on_wire_packet(Time::from_ns(w * 1'000'000 + 1), 100);
  }
  ts.finalize();
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.begin_ordinal(), 6);
  EXPECT_EQ(ts.end_ordinal(), 10);
  EXPECT_EQ(ts.evicted_windows(), 6);
  for (std::int64_t w = 6; w < 10; ++w) {
    EXPECT_EQ(ts.window(w).wire_packets, 1) << w;
  }
}

TEST(TimeSeries, IdleGapBeyondCapacityEvictsWholesale) {
  // A packet, a long silence, a packet: the gap must not materialize
  // (or iterate) millions of idle windows — everything before the new
  // tail is evicted arithmetically.
  TimeSeries ts(Duration::micros(1), 8, nullptr, nullptr);
  ts.on_wire_packet(Time::from_ns(1), 100);
  ts.on_wire_packet(Time::from_ns(5'000'000'000), 100);  // 5s later
  ts.finalize();
  EXPECT_EQ(ts.size(), 8u);
  EXPECT_EQ(ts.end_ordinal(), 5'000'001);
  EXPECT_EQ(ts.evicted_windows(), 5'000'001 - 8);
  EXPECT_EQ(ts.window(ts.end_ordinal() - 1).wire_packets, 1);
  EXPECT_EQ(ts.window(ts.end_ordinal() - 2).wire_packets, 0);
}

struct FakeCounters {
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
  std::int64_t backlog = 0;
  static TimeSeries::Snapshot read(void* ctx) {
    auto* c = static_cast<FakeCounters*>(ctx);
    return {c->delivered, c->dropped, c->backlog};
  }
};

TEST(TimeSeries, CounterDeltasAttributeToTheClosingWindow) {
  FakeCounters fake;
  TimeSeries ts(Duration::millis(1), 16, &FakeCounters::read, &fake);
  ts.on_wire_packet(Time::from_ns(100), 100);  // opens window 0
  fake.delivered = 10;
  fake.dropped = 2;
  fake.backlog = 3;
  ts.on_wire_packet(Time::from_ns(1'000'100), 100);  // rolls to window 1
  fake.delivered = 25;  // +15 during window 1 (and the drain)
  fake.backlog = 0;
  ts.finalize();
  EXPECT_EQ(ts.window(0).delivered_packets, 10);
  EXPECT_EQ(ts.window(0).dropped_packets, 2);
  EXPECT_EQ(ts.window(0).backlog_packets, 3);
  EXPECT_EQ(ts.window(1).delivered_packets, 15);
  EXPECT_EQ(ts.window(1).dropped_packets, 0);
  EXPECT_EQ(ts.window(1).backlog_packets, 0);
  // finalize() is idempotent: a second call must not re-snapshot.
  fake.delivered = 99;
  ts.finalize();
  EXPECT_EQ(ts.window(1).delivered_packets, 15);
}

obs::SpanEvent wire_span(std::int64_t at_ns, std::int64_t intended_ns) {
  obs::SpanEvent ev;
  ev.at = Time::from_ns(at_ns);
  ev.intended = Time::from_ns(intended_ns);
  ev.stage = obs::TraceStage::kWire;
  return ev;
}

TEST(TimeSeries, FoldSpansAddsStageErrorsToSpanWindows) {
  TimeSeries ts(Duration::millis(1), 16, nullptr, nullptr);
  ts.on_wire_packet(Time::from_ns(500'000), 100);
  ts.finalize();
  const auto wire = static_cast<std::size_t>(obs::TraceStage::kWire);
  std::vector<obs::SpanEvent> spans;
  spans.push_back(wire_span(500'000, 480'000));    // +20 us, window 0
  spans.push_back(wire_span(600'000, 650'000));    // -50 us, window 0
  spans.push_back(wire_span(1'200'000, 1'100'000));  // +100 us, window 1
  spans.push_back(wire_span(700'000, 0));  // no pacer intent: skipped
  ts.fold_spans(spans);
  ASSERT_EQ(ts.size(), 2u);  // window 1 is a span-only extension
  EXPECT_EQ(ts.window(0).stage_count[wire], 2);
  EXPECT_EQ(ts.window(0).stage_error_sum_us[wire], 20 - 50);
  EXPECT_EQ(ts.window(1).stage_count[wire], 1);
  EXPECT_EQ(ts.window(1).stage_error_sum_us[wire], 100);
}

TEST(TimeSeries, CsvIsByteDeterministic) {
  TimeSeries ts(Duration::millis(1), 8, nullptr, nullptr);
  ts.on_wire_packet(Time::from_ns(100), 500);
  ts.on_wire_packet(Time::from_ns(1'000'100), 700);
  ts.finalize();
  const std::string csv = ts.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "window,start_us,wire_packets,wire_bytes,delivered_packets,"
            "dropped_packets,backlog_packets,n_transport:pacer_release,"
            "err_us_transport:pacer_release,n_kernel:socket_write,"
            "err_us_kernel:socket_write,n_kernel:qdisc_enqueue,"
            "err_us_kernel:qdisc_enqueue,n_kernel:qdisc_dequeue,"
            "err_us_kernel:qdisc_dequeue,n_kernel:qdisc_drop,"
            "err_us_kernel:qdisc_drop,n_kernel:gso_segment,"
            "err_us_kernel:gso_segment,n_kernel:nic_tx,"
            "err_us_kernel:nic_tx,n_wire:packet_departure,"
            "err_us_wire:packet_departure,n_transport:datagram_received,"
            "err_us_transport:datagram_received");
  EXPECT_NE(csv.find("\n0,0,1,500,"), std::string::npos);
  EXPECT_NE(csv.find("\n1,1000,1,700,"), std::string::npos);
}

// ------------------------------------------------------- HealthReport

HealthContext healthy_context() {
  HealthContext ctx;
  ctx.rtt = Duration::millis(20);
  ctx.flows = 2;
  ctx.completed_flows = 2;
  ctx.fairness = 1.0;
  return ctx;
}

TEST(HealthReport, StallIsAnInteriorIdleGapLongerThanKRtt) {
  // 1 ms windows, 20 ms RTT, k=4 -> gaps > 80 ms (80 windows) stall.
  TimeSeries ts(Duration::millis(1), 4096, nullptr, nullptr);
  ts.on_wire_packet(Time::from_ns(500'000), 100);  // window 0
  // windows 1..99 idle: 99 ms interior gap > 80 ms.
  ts.on_wire_packet(Time::from_ns(100'500'000), 100);  // window 100
  ts.finalize();
  const HealthReport report = obs::build_health_report(
      healthy_context(), &ts, nullptr, nullptr, net::CountersTable());
  ASSERT_EQ(report.stalls.size(), 1u);
  EXPECT_EQ(report.stalls[0].begin_window, 1);
  EXPECT_EQ(report.stalls[0].end_window, 99);
  EXPECT_EQ(report.stalls[0].duration_us, 99'000);
  EXPECT_FALSE(report.healthy());
}

TEST(HealthReport, LeadingAndTrailingIdleAreNotStalls) {
  TimeSeries ts(Duration::millis(1), 4096, nullptr, nullptr);
  // Active only in windows 200..201: the 200-window lead-in must not be
  // reported (flows with start delays are not stalled, just not started).
  ts.on_wire_packet(Time::from_ns(200'500'000), 100);
  ts.on_wire_packet(Time::from_ns(201'500'000), 100);
  ts.finalize();
  const HealthReport report = obs::build_health_report(
      healthy_context(), &ts, nullptr, nullptr, net::CountersTable());
  EXPECT_TRUE(report.stalls.empty());
  EXPECT_TRUE(report.healthy());
}

TEST(HealthReport, DropBurstNeedsBothMinimumAndFraction) {
  FakeCounters fake;
  TimeSeries ts(Duration::millis(1), 64, &FakeCounters::read, &fake);
  ts.on_wire_packet(Time::from_ns(100), 100);
  fake.delivered = 100;
  fake.dropped = 3;  // 3 drops: under min_drops=8 -> not a burst
  ts.on_wire_packet(Time::from_ns(1'000'100), 100);
  fake.delivered = 200;
  fake.dropped = 23;  // +20 drops vs +100 delivered: 16.7% -> burst
  ts.on_wire_packet(Time::from_ns(2'000'100), 100);
  fake.delivered = 2000;
  fake.dropped = 33;  // +10 drops vs +1800 delivered: 0.55% -> no burst
  ts.finalize();
  const HealthReport report = obs::build_health_report(
      healthy_context(), &ts, nullptr, nullptr, net::CountersTable());
  ASSERT_EQ(report.drop_bursts.size(), 1u);
  EXPECT_EQ(report.drop_bursts[0].window, 1);
  EXPECT_EQ(report.drop_bursts[0].dropped, 20);
  EXPECT_EQ(report.drop_bursts[0].delivered, 100);
}

TEST(HealthReport, PacingSpikeOnWireStageMean) {
  TimeSeries ts(Duration::millis(1), 64, nullptr, nullptr);
  ts.on_wire_packet(Time::from_ns(100), 100);
  ts.on_wire_packet(Time::from_ns(1'000'100), 100);
  ts.finalize();
  std::vector<obs::SpanEvent> spans;
  spans.push_back(wire_span(200'000, 190'000));  // +10 us: fine
  // window 1: mean error 60 ms > 50 ms threshold.
  spans.push_back(wire_span(1'100'000, 1'100'000 - 60'000'000));
  ts.fold_spans(spans);
  const HealthReport report = obs::build_health_report(
      healthy_context(), &ts, nullptr, nullptr, net::CountersTable());
  ASSERT_EQ(report.pacing_spikes.size(), 1u);
  EXPECT_EQ(report.pacing_spikes[0].window, 1);
  EXPECT_EQ(report.pacing_spikes[0].mean_error_us, 60'000);
  EXPECT_EQ(report.pacing_spikes[0].samples, 1);
}

TEST(HealthReport, IncompleteFlowsAreUnhealthy) {
  HealthContext ctx = healthy_context();
  ctx.completed_flows = 1;
  const HealthReport report = obs::build_health_report(
      ctx, nullptr, nullptr, nullptr, net::CountersTable());
  EXPECT_FALSE(report.healthy());
}

TEST(HealthReport, JsonIsFixedShapeAndDeterministic) {
  QuantileSketch pacing;
  pacing.observe(10);
  pacing.observe(20);
  const HealthReport report = obs::build_health_report(
      healthy_context(), nullptr, &pacing, nullptr, net::CountersTable());
  const std::string json = report.to_json();
  EXPECT_EQ(json, report.to_json());  // pure function of the inputs
  EXPECT_NE(json.find("\"schema\": \"quicsteps-health-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"flows\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"fairness\": 1.000000"), std::string::npos);
  EXPECT_NE(
      json.find(
          "\"pacing_error_us\": {\"count\": 2, \"p50\": 10, \"p90\": 20, "
          "\"p99\": 20, \"p999\": 20}"),
      std::string::npos);
  EXPECT_NE(json.find("\"healthy\": true"), std::string::npos);
}

}  // namespace
}  // namespace quicsteps
