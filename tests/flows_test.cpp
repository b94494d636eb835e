// Fabric tests: the N-flow datapath (flows.hpp / network.hpp) against its
// three contracts — N=1 runs are bit-identical to Runner::run_once, the
// run deadline covers every flow (the old duel truncated flow B), and N
// identical flows split the shared bottleneck fairly (Jain's index ~ 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/determinism_hasher.hpp"
#include "core/quicsteps.hpp"

namespace quicsteps {
namespace {

using framework::ExperimentConfig;
using framework::FlowSpec;
using framework::MultiFlowConfig;
using framework::MultiFlowResult;
using framework::ParallelRunner;
using framework::RunResult;
using framework::Runner;
using framework::StackKind;
using sim::Duration;

ExperimentConfig small_config(StackKind stack, std::int64_t payload_bytes) {
  ExperimentConfig config;
  config.stack = stack;
  config.payload_bytes = payload_bytes;
  return config;
}

// FNV-1a over a text artifact's bytes: one golden for a whole CSV or JSON.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// ------------------------------------------------- N=1 fabric identity

TEST(RunFlows, SingleFlowMatchesRunOnceBitExact) {
  for (StackKind stack :
       {StackKind::kQuiche, StackKind::kQuicheSf, StackKind::kPicoquic,
        StackKind::kNgtcp2, StackKind::kTcpTls, StackKind::kIdealQuic}) {
    const ExperimentConfig config = small_config(stack, 512 * 1024);
    const RunResult once = Runner::run_once(config, 3);

    MultiFlowConfig flows;
    flows.seed = 3;
    flows.flows.push_back(FlowSpec{.config = config});
    const MultiFlowResult multi = framework::run_flows(flows);

    ASSERT_EQ(multi.flows.size(), 1u);
    const RunResult& flow = multi.flows[0];
    EXPECT_EQ(flow.wire_hash, once.wire_hash) << to_string(stack);
    EXPECT_EQ(flow.completed, once.completed) << to_string(stack);
    EXPECT_EQ(flow.packets_sent, once.packets_sent) << to_string(stack);
    EXPECT_EQ(flow.wire_data_packets, once.wire_data_packets);
    EXPECT_EQ(flow.dropped_packets, once.dropped_packets);
    EXPECT_EQ(flow.gaps.gaps_ms.size(), once.gaps.gaps_ms.size());
    EXPECT_DOUBLE_EQ(flow.goodput.goodput.mbps(),
                     once.goodput.goodput.mbps());
    // One flow alone owns every bottleneck drop and all the fairness.
    EXPECT_EQ(multi.bottleneck_drops, once.dropped_packets);
  }
}

TEST(RunFlows, SingleFlowKeepsHistoricalFlowIds) {
  // QUIC=1, TCP=2 — Runner::run_once's convention, which the capture
  // demux must follow for N=1 reports to match.
  MultiFlowConfig quic;
  quic.flows.push_back(
      FlowSpec{.config = small_config(StackKind::kIdealQuic, 64 * 1024)});
  quic.flows[0].config.keep_capture = true;
  const MultiFlowResult quic_result = framework::run_flows(quic);
  ASSERT_NE(quic_result.flows[0].capture, nullptr);
  ASSERT_FALSE(quic_result.flows[0].capture->empty());
  EXPECT_EQ(quic_result.flows[0].capture->front().flow, 1u);

  MultiFlowConfig tcp;
  tcp.flows.push_back(
      FlowSpec{.config = small_config(StackKind::kTcpTls, 64 * 1024)});
  tcp.flows[0].config.keep_capture = true;
  const MultiFlowResult tcp_result = framework::run_flows(tcp);
  ASSERT_NE(tcp_result.flows[0].capture, nullptr);
  ASSERT_FALSE(tcp_result.flows[0].capture->empty());
  EXPECT_EQ(tcp_result.flows[0].capture->front().flow, 2u);
}

// ------------------------------------------------------ deadline policy

TEST(RunFlows, DeadlineCoversEveryFlow) {
  // Regression for the duel deadline bug: the loop used to stop at flow
  // A's budget plus B's start delay, truncating a larger flow B.
  const ExperimentConfig a = small_config(StackKind::kQuicheSf, 1 << 20);
  const ExperimentConfig b = small_config(StackKind::kPicoquic, 64 << 20);

  MultiFlowConfig flows;
  flows.flows.push_back(FlowSpec{.config = a});
  flows.flows.push_back(
      FlowSpec{.config = b, .start_delay = Duration::millis(500)});
  const Duration deadline = framework::flows_deadline(flows);

  // Every flow's full budget fits, offset by its start delay.
  EXPECT_GE(deadline, Duration::millis(500) + framework::run_deadline(b));
  // The old formula starved B: A's budget + B's delay is far too short.
  EXPECT_GT(deadline, framework::run_deadline(a) + Duration::millis(500));

  // App-limited workloads extend the budget by their release time.
  MultiFlowConfig chunked = flows;
  chunked.flows[1].config.workload.kind = quic::SourceKind::kChunked;
  EXPECT_GT(framework::flows_deadline(chunked), deadline);
}

// -------------------------------------------------- N-flow fairness

TEST(RunFlows, FourIdenticalFlowsSplitFairly) {
  MultiFlowConfig flows;
  flows.seed = 11;
  for (int i = 0; i < 4; ++i) {
    flows.flows.push_back(FlowSpec{
        .config = small_config(StackKind::kQuicheSf, 3ll * 256 * 1024)});
  }
  const MultiFlowResult result = framework::run_flows(flows);

  ASSERT_EQ(result.flows.size(), 4u);
  double total_mbps = 0.0;
  std::int64_t attributed_drops = 0;
  for (const RunResult& flow : result.flows) {
    EXPECT_TRUE(flow.completed);
    EXPECT_GT(flow.goodput.goodput.mbps(), 0.0);
    total_mbps += flow.goodput.goodput.mbps();
    attributed_drops += flow.dropped_packets;
  }
  // Four identical stacks sharing 40 Mbit/s: near-perfect Jain's index,
  // aggregate inside the bottleneck, and every drop attributed to some
  // flow.
  EXPECT_GT(result.fairness, 0.9);
  EXPECT_LE(total_mbps, 40.0);
  EXPECT_EQ(attributed_drops, result.bottleneck_drops);
}

TEST(RunFlows, HundredIdenticalFlowsShareNearPerfectly) {
  // The fabric-scale fairness golden: 100 homogeneous flows on one
  // bottleneck must land within a percent of perfect Jain's index, with
  // every bottleneck drop attributed to exactly one flow. The bottleneck
  // is capacity-scaled with N (as the flow-scale benches do) — at the
  // single-flow default the fabric is in 100x overload and congestion
  // collapse, not fairness, is what gets measured. Lite metrics: at this
  // N the raw per-flow sample vectors are dead weight.
  MultiFlowConfig flows;
  flows.seed = 21;
  flows.lite_metrics = true;
  for (int i = 0; i < 100; ++i) {
    ExperimentConfig config = small_config(StackKind::kIdealQuic, 16 * 1024);
    config.topology.bottleneck_rate = net::DataRate::megabits_per_second(400);
    config.topology.bottleneck_buffer_bytes = 2 * 1000 * 1000;
    flows.flows.push_back(FlowSpec{.config = config});
  }
  const MultiFlowResult result = framework::run_flows(flows);

  ASSERT_EQ(result.flows.size(), 100u);
  std::int64_t attributed_drops = 0;
  for (const RunResult& flow : result.flows) {
    EXPECT_GT(flow.goodput.goodput.mbps(), 0.0);
    attributed_drops += flow.dropped_packets;
    // Lite mode keeps the aggregates but not the raw samples.
    EXPECT_TRUE(flow.gaps.gaps_ms.empty());
  }
  EXPECT_GE(result.fairness, 0.99);
  EXPECT_EQ(attributed_drops, result.bottleneck_drops);
}

TEST(RunFlows, LiteMetricsKeepAggregatesIdentical) {
  MultiFlowConfig retained;
  retained.seed = 4;
  for (int i = 0; i < 2; ++i) {
    retained.flows.push_back(
        FlowSpec{.config = small_config(StackKind::kIdealQuic, 128 * 1024)});
  }
  MultiFlowConfig lite = retained;
  lite.lite_metrics = true;

  const MultiFlowResult full = framework::run_flows(retained);
  const MultiFlowResult streamed = framework::run_flows(lite);
  ASSERT_EQ(full.flows.size(), streamed.flows.size());
  for (std::size_t i = 0; i < full.flows.size(); ++i) {
    const RunResult& a = full.flows[i];
    const RunResult& b = streamed.flows[i];
    // The simulation itself is untouched by the metrics mode.
    EXPECT_EQ(a.wire_hash, b.wire_hash);
    EXPECT_EQ(a.wire_data_packets, b.wire_data_packets);
    // Streaming aggregates match the retained ones (Welford vs two-pass:
    // equal to floating-point noise).
    EXPECT_EQ(b.gaps.gaps_ms.size(), 0u);
    ASSERT_EQ(a.gaps.summary_ms.count, b.gaps.summary_ms.count);
    EXPECT_NEAR(a.gaps.summary_ms.mean, b.gaps.summary_ms.mean, 1e-9);
    EXPECT_NEAR(a.gaps.summary_ms.stddev, b.gaps.summary_ms.stddev, 1e-9);
    EXPECT_DOUBLE_EQ(a.gaps.summary_ms.min, b.gaps.summary_ms.min);
    EXPECT_DOUBLE_EQ(a.gaps.summary_ms.max, b.gaps.summary_ms.max);
    EXPECT_DOUBLE_EQ(a.gaps.back_to_back_fraction,
                     b.gaps.back_to_back_fraction);
    EXPECT_NEAR(a.precision.precision_ms, b.precision.precision_ms, 1e-9);
    EXPECT_EQ(a.trains.total_packets, b.trains.total_packets);
    EXPECT_EQ(a.trains.packets_by_length, b.trains.packets_by_length);
  }
}

TEST(RunFlows, JainIndexHandMath) {
  EXPECT_DOUBLE_EQ(framework::jain_index({10.0, 10.0, 10.0, 10.0}), 1.0);
  // One flow hogging everything: 1/N.
  EXPECT_DOUBLE_EQ(framework::jain_index({40.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(framework::jain_index({0.0, 0.0}), 0.0);
  EXPECT_NEAR(framework::jain_index({30.0, 10.0}), 0.8, 1e-12);
}

// ------------------------------------------------ parallel fan-out

TEST(ParallelFlows, FlowSetsAreBitIdenticalToSerial) {
  // Pooled flow sets must match a serial run bit for bit.
  std::vector<MultiFlowConfig> sets;
  const auto add_pair = [&sets](std::uint64_t seed, StackKind a, StackKind b,
                                std::int64_t payload) {
    MultiFlowConfig config;
    config.seed = seed;
    config.flows.push_back(FlowSpec{.config = small_config(a, payload)});
    config.flows.push_back(FlowSpec{.config = small_config(b, payload)});
    sets.push_back(config);
  };
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    add_pair(seed, StackKind::kQuiche, StackKind::kPicoquic, 256 * 1024);
  }

  const auto serial = ParallelRunner(1).run_flow_sets(sets);
  const auto parallel = ParallelRunner(4).run_flow_sets(sets);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    SCOPED_TRACE("set " + std::to_string(s));
    ASSERT_EQ(serial[s].flows.size(), parallel[s].flows.size());
    EXPECT_DOUBLE_EQ(serial[s].fairness, parallel[s].fairness);
    EXPECT_EQ(serial[s].bottleneck_drops, parallel[s].bottleneck_drops);
    for (std::size_t f = 0; f < serial[s].flows.size(); ++f) {
      const RunResult& one = serial[s].flows[f];
      const RunResult& pooled = parallel[s].flows[f];
      EXPECT_EQ(one.completed, pooled.completed);
      EXPECT_EQ(one.packets_sent, pooled.packets_sent);
      EXPECT_EQ(one.dropped_packets, pooled.dropped_packets);
      EXPECT_EQ(one.packets_declared_lost, pooled.packets_declared_lost);
      EXPECT_EQ(one.wire_data_packets, pooled.wire_data_packets);
      EXPECT_EQ(one.wire_hash, pooled.wire_hash);
    }
  }
}

TEST(ParallelFlows, ExtractionIsBitIdenticalAtScale) {
  // The fabric-scale determinism gate: every per-flow wire hash, drop
  // count and goodput of a 1000-flow run, folded into one digest. The
  // goldens were captured while the per-flow extraction still had a
  // sharded twin that agreed with the serial walk bit for bit.
  MultiFlowConfig config;
  config.seed = 9;
  config.lite_metrics = true;
  for (int i = 0; i < 1000; ++i) {
    config.flows.push_back(
        FlowSpec{.config = small_config(StackKind::kIdealQuic, 4096)});
  }

  const MultiFlowResult result = framework::run_flows(config);

  ASSERT_EQ(result.flows.size(), 1000u);
  check::DeterminismHasher flows;
  for (const RunResult& flow : result.flows) {
    flows.add_u64(flow.wire_hash);
    flows.add_i64(flow.dropped_packets);
    flows.add_u64(std::bit_cast<std::uint64_t>(flow.goodput.goodput.mbps()));
  }
  EXPECT_EQ(flows.digest(), 0x181841b171bf38a0ull);
  EXPECT_DOUBLE_EQ(result.fairness, 0.55393731589967221);
  EXPECT_EQ(result.bottleneck_drops, 5436);
}

// --------------------------------------------- fleet telemetry gates

TEST(TelemetryFleet, ArtifactsAreBitIdenticalAtScale) {
  // The telemetry spine feeds from the event core (wire tap + bottleneck
  // counters) and the fleet sketches fold in flows[] order, so every
  // derived artifact — windowed CSV, registry emission (fleet sketches
  // included), health JSON — is pinned byte for byte. N=1000 with 1-in-100
  // sampled tracing: the fabric-scale configuration, not a toy. A build
  // without trace sites emits no spans, hence its own goldens.
  MultiFlowConfig config;
  config.seed = 9;
  config.lite_metrics = true;
  config.trace_sample = 100;
  config.telemetry_window = Duration::millis(10);
  for (int i = 0; i < 1000; ++i) {
    FlowSpec spec{.config = small_config(StackKind::kIdealQuic, 4096)};
    spec.config.trace = true;
    config.flows.push_back(spec);
  }

  const MultiFlowResult result = framework::run_flows(config);

  ASSERT_NE(result.timeseries, nullptr);
  EXPECT_GT(result.timeseries->size(), 0u);
  const bool traced = obs::kTraceEnabled;
  EXPECT_EQ(fnv1a(result.timeseries->to_csv()),
            traced ? 0xf842d2c1554fbbc7ull : 0x5ee4af03e068f234ull);
  EXPECT_EQ(fnv1a(result.metrics.to_string()),
            traced ? 0x0bdac92ffb97fcdbull : 0xfe9ab862312945c5ull);
  EXPECT_EQ(fnv1a(framework::fleet_health(config, result).to_json()),
            traced ? 0x1f7edf4406f04e5bull : 0x0019450e546cbfc8ull);

  if (obs::kTraceEnabled) {
    // The fleet sketches materialized and carry the sampled population.
    const auto& sketches = result.metrics.sketches();
    const auto pacing = sketches.find("fleet/pacing_error_us/wire");
    ASSERT_NE(pacing, sketches.end());
    EXPECT_GT(pacing->second.count(), 0);
    const auto fct = sketches.find("fleet/fct_us");
    ASSERT_NE(fct, sketches.end());
    EXPECT_GT(fct->second.count(), 0);
  }
}

TEST(TelemetryFleet, SampledTracingLeavesTheWireUntouched) {
  // Sampling only filters what the observability spine records; the
  // simulated packet stream must be bit-identical whether a flow is
  // traced, sampled out, or the run is untraced entirely.
  MultiFlowConfig untraced;
  untraced.seed = 5;
  for (int i = 0; i < 40; ++i) {
    untraced.flows.push_back(
        FlowSpec{.config = small_config(StackKind::kIdealQuic, 16 * 1024)});
  }
  MultiFlowConfig sampled = untraced;
  sampled.trace_sample = 10;
  for (FlowSpec& spec : sampled.flows) spec.config.trace = true;

  const MultiFlowResult base = framework::run_flows(untraced);
  const MultiFlowResult traced = framework::run_flows(sampled);

  ASSERT_EQ(base.flows.size(), traced.flows.size());
  EXPECT_DOUBLE_EQ(base.fairness, traced.fairness);
  for (std::size_t f = 0; f < base.flows.size(); ++f) {
    EXPECT_EQ(base.flows[f].wire_hash, traced.flows[f].wire_hash) << f;
  }

  if (obs::kTraceEnabled) {
    // Deterministic subset: exactly the flows the sampler picks carry a
    // trace, and both runs' packet books agree.
    const obs::FlowSampler sampler(sampled.seed, sampled.trace_sample);
    std::size_t traced_flows = 0;
    for (std::size_t f = 0; f < traced.flows.size(); ++f) {
      const bool has_trace = traced.flows[f].trace != nullptr;
      // Multi-flow fabrics assign wire ids 10, 11, ... in flows[] order.
      EXPECT_EQ(has_trace,
                sampler.sampled(static_cast<std::uint32_t>(10 + f)))
          << f;
      traced_flows += has_trace ? 1 : 0;
    }
    EXPECT_GT(traced_flows, 0u);
    EXPECT_LT(traced_flows, traced.flows.size());
  }
}

TEST(TelemetryFleet, SketchTailMatchesExactQuantilesOfTheRun) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "trace compiled out";
  // Full-sample cross-check on a real run: trace every flow, rebuild the
  // exact wire-stage pacing-error population from the spans, and require
  // the fleet sketch's p50/p99 to land within one log bucket of the
  // exact percentile.
  MultiFlowConfig config;
  config.seed = 3;
  config.telemetry_window = Duration::millis(10);
  for (int i = 0; i < 20; ++i) {
    FlowSpec spec{.config = small_config(StackKind::kIdealQuic, 64 * 1024)};
    spec.config.trace = true;
    config.flows.push_back(spec);
  }
  const MultiFlowResult result = framework::run_flows(config);

  std::vector<std::int64_t> exact;
  for (const RunResult& flow : result.flows) {
    ASSERT_NE(flow.trace, nullptr);
    for (const obs::SpanEvent& ev : flow.trace->events) {
      if (ev.stage == obs::TraceStage::kWire && ev.intended.ns() != 0) {
        exact.push_back((ev.at - ev.intended).us());
      }
    }
  }
  ASSERT_FALSE(exact.empty());
  std::sort(exact.begin(), exact.end());

  const auto& sketches = result.metrics.sketches();
  const auto it = sketches.find("fleet/pacing_error_us/wire");
  ASSERT_NE(it, sketches.end());
  const obs::QuantileSketch& sketch = it->second;
  EXPECT_EQ(sketch.count(), static_cast<std::int64_t>(exact.size()));
  for (const double q : {0.5, 0.9, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(exact.size() - 1));
    EXPECT_LE(std::abs(obs::QuantileSketch::bucket_of(sketch.quantile(q)) -
                       obs::QuantileSketch::bucket_of(exact[rank])),
              1)
        << "q=" << q;
  }
}

// ------------------------------------------------ dispatch auditing

TEST(RunFlows, StrayFlowIdTripsDispatchAudit) {
  if (!check::kAuditEnabled) GTEST_SKIP() << "audit compiled out";
  std::vector<std::string> failures;
  check::set_audit_handler([&failures](const check::AuditFailure& failure) {
    failures.push_back(failure.to_string());
  });

  {
    MultiFlowConfig config;
    config.flows.push_back(
        FlowSpec{.config = small_config(StackKind::kQuiche, 64 * 1024)});
    config.flows.push_back(
        FlowSpec{.config = small_config(StackKind::kQuiche, 64 * 1024)});
    sim::EventLoop loop;
    sim::Rng rng(config.seed);
    std::vector<RunResult> live(config.flows.size());
    framework::Network net(loop, config, rng, live);

    // Packets whose flow id no endpoint registered must never reach flow
    // 10 or 11: the ones that get through trip the flow table's audit,
    // and a burst past the 200 kB buffer trips the drop attribution's.
    net::Packet stray;
    stray.flow = 99;
    stray.kind = net::PacketKind::kQuicData;
    stray.size_bytes = 1200;
    for (int i = 0; i < 200; ++i) net.path().wire_ingress()->deliver(stray);
    loop.run_until(sim::Time::zero() + Duration::seconds(1));
  }
  check::set_audit_handler({});

  const auto count = [&failures](const std::string& text) {
    return std::count_if(failures.begin(), failures.end(),
                         [&text](const std::string& failure) {
                           return failure.find(text) != std::string::npos;
                         });
  };
  EXPECT_GT(count("packet for unregistered flow 99"), 0);
  EXPECT_GT(count("bottleneck drop for unregistered flow 99"), 0);
}

}  // namespace
}  // namespace quicsteps
