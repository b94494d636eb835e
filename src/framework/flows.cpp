#include "framework/flows.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "check/audit.hpp"
#include "check/determinism_hasher.hpp"
#include "framework/runner.hpp"
#include "metrics/capture_analysis.hpp"
#include "obs/path_timeline.hpp"

namespace quicsteps::framework {

namespace {

std::uint32_t default_flow_id(const FlowSpec& spec, std::size_t index,
                              std::size_t count) {
  if (spec.id != 0) return spec.id;
  if (count == 1) {
    // Runner::run_once's historical convention, load-bearing for the N=1
    // bit-identity guarantee.
    return spec.config.stack == StackKind::kTcpTls ? 2u : 1u;
  }
  return static_cast<std::uint32_t>(10 + index);
}

/// TimeSeries snapshot provider: cumulative bottleneck counters, read
/// through a raw function pointer (no heap closure on the hot path).
obs::TimeSeries::Snapshot bottleneck_snapshot(void* ctx) {
  Network* net = static_cast<Network*>(ctx);
  const net::Counters& c = net->path().bottleneck().counters();
  obs::TimeSeries::Snapshot snap;
  snap.delivered_packets = c.packets_out;
  snap.dropped_packets = c.packets_dropped;
  snap.backlog_packets = c.packets_queued();
  return snap;
}

}  // namespace

SenderHost::SenderHost(sim::EventLoop& loop, const FlowSpec& spec,
                       std::uint32_t flow_id, std::uint64_t seed,
                       kernel::OsModel& os, BottleneckPath& path,
                       RunResult& live_result)
    : flow_id_(flow_id),
      spec_(spec),
      os_(os),
      path_(loop, spec_.config.topology, os_, path.nic_wire()) {
  endpoint_ =
      make_flow_endpoint(loop, os_, spec_.config, flow_id_, seed,
                         path_.egress(), path.ack_ingress(), live_result);
  endpoint_->set_gso_pool(path.slab());
  // Duplicate flow ids trip the flow table's registration audit.
  path.register_flow(flow_id_, &endpoint_->data_ingress(),
                     &endpoint_->ack_ingress());
}

Network::Network(sim::EventLoop& loop, const MultiFlowConfig& config,
                 sim::Rng& rng, std::vector<RunResult>& live_results)
    : loop_(loop), deadline_(sim::Time::zero() + flows_deadline(config)) {
  QUICSTEPS_AUDIT(!config.flows.empty(), "Network needs at least one flow");
  QUICSTEPS_AUDIT(live_results.size() == config.flows.size(),
                  "live_results must be sized to the flow count");
  if (config.flows.empty()) return;
  const std::size_t n = config.flows.size();
  // Reserved up front: the path and the hosts hold references into both
  // vectors, so neither may ever reallocate.
  oses_.reserve(n);
  hosts_.reserve(n);

  // Host 0's kernel also runs the shared server-side ACK receiver, as a
  // single server OS serves both roles on the paper's one-sender path.
  // Its OS model is built before the path, which borrows it. Per-host OS
  // salts are 1 + 16*i: host 0 keeps the historical fork(1) so an N=1 run
  // is bit-identical to the old wiring, and salts 2-4 stay reserved for
  // the shared path.
  oses_.emplace_back(config.flows[0].config.topology.server_os, rng.fork(1));
  path_ = std::make_unique<BottleneckPath>(
      loop, config.flows[0].config.topology, rng, oses_[0]);

  // Routes are bulk-registered: reserve, append per host, sort once at
  // finish (an O(n) insert per flow is O(n^2) at 10k routes).
  path_->begin_flow_registration(n);
  for (std::size_t i = 0; i < n; ++i) {
    FlowSpec spec = config.flows[i];
    const std::uint32_t id = default_flow_id(spec, i, n);
    if (n > 1 && !spec.config.qlog_path.empty()) {
      // One qlog file per flow, not N writers on one file.
      spec.config.qlog_path += ".flow" + std::to_string(id);
    }
    if (i != 0) {
      oses_.emplace_back(spec.config.topology.server_os,
                         rng.fork(1 + 16 * static_cast<std::uint64_t>(i)));
    }
    hosts_.emplace_back(loop, spec, id, config.seed, oses_[i], *path_,
                        live_results[i]);
  }
  path_->finish_flow_registration();
}

void Network::start() {
  for (SenderHost& flow_host : hosts_) {
    if (flow_host.start_delay().is_zero()) {
      flow_host.start();
      continue;
    }
    // Pointer capture: the host outlives the run loop, but a scheduled
    // callback must not hold a reference to a local by the analyzer's
    // dangling-callback rule (scheduling/ref-capture).
    SenderHost* delayed = &flow_host;
    loop_.schedule_after(flow_host.start_delay(),
                         [delayed] { delayed->start(); });
  }
}

void Network::set_trace(obs::TraceBus& bus, const obs::FlowSampler& sampler) {
  bus.set_sampler(sampler);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    // Sender-side components of unsampled flows never get a bus: their
    // QUICSTEPS_TRACE_SPAN sites stay on the null-pointer fast path, so an
    // unsampled flow costs the same as an untraced one.
    if (!sampler.sampled(hosts_[i].flow_id())) continue;
    const std::string prefix =
        hosts_.size() == 1 ? std::string() : "host" + std::to_string(i) + "/";
    hosts_[i].set_trace(bus, prefix);
  }
  path_->set_trace(bus);
}

net::CountersTable Network::counters_table() const {
  net::CountersTable table;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const SenderHost& flow_host = hosts_[i];
    const std::string prefix =
        hosts_.size() == 1 ? std::string("qdisc/")
                           : "host" + std::to_string(i) + "/qdisc/";
    table.add(prefix + flow_host.qdisc().name(), flow_host.qdisc().counters());
  }
  path_->add_counters(table);
  return table;
}

check::ConservationAuditor Network::conservation_auditor() const {
  check::ConservationAuditor auditor;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const SenderHost& flow_host = hosts_[i];
    const std::string prefix =
        hosts_.size() == 1 ? std::string("qdisc/")
                           : "host" + std::to_string(i) + "/qdisc/";
    const kernel::Qdisc& qdisc = flow_host.qdisc();
    if (qdisc.backlog_packets() >= 0) {
      // The discipline reports its live depth: audit the full per-stage
      // identity (in == out + dropped + queued, queued == live depth).
      const kernel::Qdisc* q = &qdisc;
      auditor.add_stage(prefix + qdisc.name(), qdisc.counters(),
                        [q] { return q->backlog_packets(); });
    } else {
      auditor.add_stage(prefix + qdisc.name(), qdisc.counters());
    }
  }
  path_->add_conservation_stages(auditor);
  return auditor;
}

double jain_index(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

sim::Duration flows_deadline(const MultiFlowConfig& config) {
  // Every flow gets its full budget, offset by its start delay — the max,
  // not flow A's budget plus B's delay (which truncated a larger flow B).
  sim::Duration deadline = sim::Duration::zero();
  for (const FlowSpec& spec : config.flows) {
    const sim::Duration flow_deadline = spec.start_delay +
                                        run_deadline(spec.config) +
                                        workload_duration(spec.config);
    if (flow_deadline > deadline) deadline = flow_deadline;
  }
  return deadline;
}

MultiFlowResult run_flows(const MultiFlowConfig& config) {
  MultiFlowResult result;
  if (config.flows.empty()) return result;

  sim::EventLoop loop;
  sim::Rng rng(config.seed);
  result.flows.resize(config.flows.size());
  Network net(loop, config, rng, result.flows);
  const std::size_t n = net.flow_count();

  // One bus serves the whole network; it is installed only when a flow
  // opted in, so an untraced run keeps every component's bus pointer null
  // (the runtime no-op path BENCH_micro measures).
  obs::TraceBus trace_bus;
  bool tracing = false;
  for (const FlowSpec& spec : config.flows) {
    if (spec.config.trace) tracing = true;
  }
  const obs::FlowSampler sampler(config.seed, config.trace_sample);
  if (tracing && obs::kTraceEnabled) {
    net.set_trace(trace_bus, sampler);
    // Pre-size the span store: ~payload/MSS wire packets per flow, ~9
    // stages each plus ACK-path spans, scaled down by the sampling period
    // (only sampled flows publish). Overshooting slightly is fine — the
    // goal is no reallocation while the run is hot.
    std::size_t hint = 0;
    for (const FlowSpec& spec : config.flows) {
      hint += static_cast<std::size_t>(spec.config.payload_bytes / 1200 + 64) *
              12;
    }
    trace_bus.reserve(hint / sampler.every() + 1024);
  }

  // Fleet telemetry: the windowed time series rides the event core (fed
  // from the tap callback below). Counter snapshots land at window rolls.
  const bool telemetry = !config.telemetry_window.is_zero();
  std::unique_ptr<obs::TimeSeries> timeseries;
  obs::TimeSeries* ts = nullptr;
  obs::CounterHandle wire_packets_handle;
  obs::CounterHandle wire_bytes_handle;
  if (telemetry) {
    timeseries = std::make_unique<obs::TimeSeries>(
        config.telemetry_window, config.telemetry_capacity,
        &bottleneck_snapshot, &net);
    ts = timeseries.get();
    // Pre-resolved handles: the per-packet path below pays one int64 add,
    // not a map lookup per touch (obs::CounterHandle).
    wire_packets_handle = result.metrics.counter("fleet/wire_packets");
    wire_bytes_handle = result.metrics.counter("fleet/wire_bytes");
  }

  // All per-flow metrics derive from the shared tap; one incremental pass
  // demuxes each departure into its flow's analyzer, determinism hash,
  // and (when requested) retained capture — the capture is walked once
  // regardless of N. In audit builds the same pass checks that wire time
  // never goes backwards.
  metrics::FlowCaptureDemux demux;
  std::vector<check::DeterminismHasher> hashers(n);
  std::vector<std::shared_ptr<std::vector<net::Packet>>> captures(n);
  metrics::CaptureAnalyzer::Config analyzer_config;
  analyzer_config.lite = config.lite_metrics;
  for (std::size_t i = 0; i < n; ++i) {
    demux.add_flow(net.host(i).flow_id(), analyzer_config);
    if (config.flows[i].config.keep_capture) {
      captures[i] = std::make_shared<std::vector<net::Packet>>();
    }
  }
  check::MonotonicityAuditor tap_monotone("wire-tap departure time");
  std::int64_t tap_packets = 0;
  // The streaming demux below makes the tap's own retained capture dead
  // weight — per-flow captures are filled on the fly when requested.
  net.path().tap().set_retain_capture(false);
  net.path().tap().set_on_packet([&demux, &hashers, &captures, &tap_monotone,
                                  &tap_packets, ts, wire_packets_handle,
                                  wire_bytes_handle](const net::Packet& pkt) {
    ++tap_packets;
    if (ts != nullptr) {
      ts->on_wire_packet(pkt.wire_time, pkt.size_bytes);
      wire_packets_handle.add(1);
      wire_bytes_handle.add(pkt.size_bytes);
    }
    const int slot = demux.add(pkt);
    if (slot >= 0) {
      hashers[static_cast<std::size_t>(slot)].add_i64(pkt.wire_time.ns());
      if (captures[static_cast<std::size_t>(slot)] != nullptr) {
        captures[static_cast<std::size_t>(slot)]->push_back(pkt);
      }
    }
    if constexpr (check::kAuditEnabled) {
      tap_monotone.observe(pkt.wire_time.ns());
    }
  });

  net.start();
  loop.run_until(net.deadline());

  // Post-run invariants: every stage's books balance, and the tap saw
  // exactly what entered the bottleneck (they are wired back-to-back).
  if constexpr (check::kAuditEnabled) {
    net.conservation_auditor().audit();
    QUICSTEPS_AUDIT(net.path().bottleneck().counters().packets_in ==
                        tap_packets,
                    "tap and bottleneck disagree on wire packet count");
  }

  // Close the telemetry series before the spans move: finalize attributes
  // the post-run queue drain to the last active window, then the span fold
  // adds per-stage pacing errors into the windows of their timestamps
  // (sampled flows only — exact for the sampled population).
  if (telemetry) timeseries->finalize();

  obs::TraceData all_spans;
  if (tracing) all_spans = trace_bus.take();
  if (telemetry && tracing) timeseries->fold_spans(all_spans.events);

  // Each traced flow gets the full component table plus only its own
  // spans (ACKs included — they carry the flow's id on the return path),
  // split off the bus in one stable pass: count, reserve, fill.
  std::vector<std::shared_ptr<obs::TraceData>> flow_traces(n);
  if (tracing) {
    std::vector<std::pair<std::uint32_t, std::size_t>> traced;  // id, index
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t id = net.host(i).flow_id();
      if (config.flows[i].config.trace && sampler.sampled(id)) {
        traced.emplace_back(id, i);
      }
    }
    if (n == 1 && !traced.empty()) {
      // Single flow: every span on the bus is this flow's — move the
      // whole trace instead of copying it.
      flow_traces[0] = std::make_shared<obs::TraceData>(std::move(all_spans));
    } else if (!traced.empty()) {
      std::sort(traced.begin(), traced.end());
      auto index_of = [&traced, n](std::uint32_t flow) {
        const auto it = std::lower_bound(
            traced.begin(), traced.end(), flow,
            [](const auto& entry, std::uint32_t key) {
              return entry.first < key;
            });
        return it != traced.end() && it->first == flow ? it->second : n;
      };
      std::vector<std::size_t> counts(n, 0);
      for (const obs::SpanEvent& ev : all_spans.events) {
        const std::size_t i = index_of(ev.flow);
        if (i < n) ++counts[i];
      }
      for (const auto& [id, i] : traced) {
        flow_traces[i] = std::make_shared<obs::TraceData>();
        flow_traces[i]->events.reserve(counts[i]);
      }
      for (const obs::SpanEvent& ev : all_spans.events) {
        const std::size_t i = index_of(ev.flow);
        if (i < n) flow_traces[i]->events.push_back(ev);
      }
    }
  }

  // Self-measurement: fold the counter table, the loop profile, and the
  // per-flow ledgers into one deterministic registry.
  result.counters = net.counters_table();
  obs::MetricsRegistry& reg = result.metrics;
  reg.add_counters_table("", result.counters);
  const sim::LoopStats& ls = loop.stats();
  for (std::size_t c = 0; c < sim::kEventClassCount; ++c) {
    const char* cls = sim::to_string(static_cast<sim::EventClass>(c));
    reg.add_counter(std::string("loop/scheduled/") + cls,
                    static_cast<std::int64_t>(ls.scheduled[c]));
    reg.add_counter(std::string("loop/executed/") + cls,
                    static_cast<std::int64_t>(ls.executed[c]));
  }
  reg.add_counter("loop/cancelled", static_cast<std::int64_t>(ls.cancelled));
  reg.add_counter("loop/overflow_scheduled",
                  static_cast<std::int64_t>(ls.overflow_scheduled));
  reg.add_counter("loop/drain_executed",
                  static_cast<std::int64_t>(ls.drain_executed));
  reg.add_counter("loop/drain_batched",
                  static_cast<std::int64_t>(ls.drain_batched));
  reg.set_gauge("loop/max_pending",
                static_cast<std::int64_t>(ls.max_pending));
  // Fleet wire-stage pacing error over the sampled flows (a fleet tail).
  obs::QuantileSketch* fleet_pacing =
      telemetry && tracing ? &reg.sketch("fleet/pacing_error_us/wire")
                           : nullptr;

  // Per-flow extraction and registry fold, one walk in flows[] order:
  // demux finish, hash digest, fill_result, per-flow trace and ledgers.
  std::vector<double> goodputs(n);
  for (std::size_t i = 0; i < n; ++i) {
    RunResult& flow_result = result.flows[i];
    net.host(i).endpoint().fill_result(flow_result);
    metrics::CaptureAnalysis analysis = demux.finish(i);
    flow_result.gaps = std::move(analysis.gaps);
    flow_result.trains = std::move(analysis.trains);
    flow_result.precision = std::move(analysis.precision);
    flow_result.wire_data_packets = analysis.wire_data_packets;
    flow_result.wire_hash = hashers[i].digest();
    flow_result.dropped_packets =
        net.path().bottleneck_drops(net.host(i).flow_id());
    if (captures[i] != nullptr) {
      flow_result.capture = std::move(captures[i]);
    }
    goodputs[i] = flow_result.goodput.goodput.mbps();

    const std::string flow_prefix =
        "flow" + std::to_string(net.host(i).flow_id()) + "/";
    reg.set_gauge(flow_prefix + "bottleneck_drops",
                  flow_result.dropped_packets);
    reg.add_counter(flow_prefix + "pacer_releases",
                    flow_result.pacer_releases);
    reg.add_counter(flow_prefix + "pacer_deferrals",
                    flow_result.pacer_deferrals);
    if (flow_traces[i] == nullptr) continue;
    if (n > 1) flow_traces[i]->components = all_spans.components;
    if (fleet_pacing != nullptr) {
      for (const obs::SpanEvent& ev : flow_traces[i]->events) {
        if (ev.stage == obs::TraceStage::kWire && ev.intended.ns() != 0) {
          fleet_pacing->observe((ev.at - ev.intended).us());
        }
      }
    }
    flow_result.trace = std::move(flow_traces[i]);
    obs::TraceSummary summary = obs::summarize_trace(*flow_result.trace);
    reg.set_gauge(flow_prefix + "complete_chains", summary.complete_chains);
    for (obs::StageErrorReport& se : summary.errors) {
      reg.sketch(flow_prefix + "pacing_error/" + obs::to_string(se.stage)) =
          std::move(se.error_us);
    }
  }
  result.fairness = jain_index(goodputs);
  result.bottleneck_drops = net.path().bottleneck_drops();

  if (telemetry) {
    obs::QuantileSketch& fct = reg.sketch("fleet/fct_us");
    for (const RunResult& flow_result : result.flows) {
      if (flow_result.completed) {
        fct.observe(flow_result.goodput.elapsed.us());
      }
    }
    result.timeseries = std::move(timeseries);
  }
  return result;
}

obs::HealthReport fleet_health(const MultiFlowConfig& config,
                               const MultiFlowResult& result) {
  obs::HealthContext ctx;
  if (!config.flows.empty()) {
    // Two one-way netem legs: base RTT is twice the one-way delay. The
    // stall threshold scales from this, so a long-RTT run is not flagged
    // for gaps a short-RTT run would sail through.
    ctx.rtt = config.flows[0].config.topology.path_delay_one_way * 2.0;
  }
  ctx.flows = static_cast<std::int64_t>(result.flows.size());
  for (const RunResult& flow : result.flows) {
    if (flow.completed) ++ctx.completed_flows;
  }
  ctx.fairness = result.fairness;
  const auto& sketches = result.metrics.sketches();
  const auto pacing = sketches.find("fleet/pacing_error_us/wire");
  const auto fct = sketches.find("fleet/fct_us");
  return obs::build_health_report(
      ctx, result.timeseries.get(),
      pacing == sketches.end() ? nullptr : &pacing->second,
      fct == sketches.end() ? nullptr : &fct->second, result.counters);
}

}  // namespace quicsteps::framework
