// N competing flows over one shared bottleneck — the experiment family
// the paper defers (Section 3.4) and the fabric's reason to exist.
//
//   SenderHost  one sender: its own OS model, kernel egress (SenderPath:
//               qdisc + NIC), and endpoint (QUIC stack, ideal, or TCP),
//               registered on the shared path under its flow id.
//   Network     N SenderHosts composed onto one BottleneckPath, with
//               per-flow start delays (a flow can join an ongoing race).
//   run_flows   builds a Network, runs every transfer to its deadline,
//               and demuxes the shared tap into per-flow metrics in a
//               single pass. Runner::run_once is the N=1 call (and stays
//               bit-identical to the historical single-flow wiring).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <string>

#include "framework/endpoint.hpp"
#include "framework/experiment.hpp"
#include "framework/network.hpp"
#include "kernel/os_model.hpp"
#include "obs/flow_sampler.hpp"
#include "obs/health_report.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/time_series.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace quicsteps::framework {

struct FlowSpec {
  ExperimentConfig config;
  /// Delay before this flow's sender starts.
  sim::Duration start_delay = sim::Duration::zero();
  /// Wire flow id; 0 = auto-assign. A single flow keeps Runner::run_once's
  /// historical ids (QUIC=1, TCP=2) so N=1 runs are bit-identical to the
  /// old wiring; multi-flow runs get ids 10, 11, ...
  std::uint32_t id = 0;
};

struct MultiFlowConfig {
  /// Shared-path parameters (bottleneck, RTT, buffers) are taken from
  /// flows[0].config.topology; each sender gets its own qdisc/NIC/OS per
  /// its own config.
  std::vector<FlowSpec> flows;
  std::uint64_t seed = 1;
  /// Stream per-flow gap/offset stats through O(1) Welford accumulators
  /// instead of retaining raw sample vectors (CaptureAnalyzer lite mode).
  /// Required headroom at fabric scale (10k flows); summaries and
  /// fractions survive, per-sample CDFs don't.
  bool lite_metrics = false;
  /// Deterministic 1-in-N flow sampling for the trace spine (<=1 = trace
  /// every flow whose config opted in). Whether a flow is sampled is a
  /// pure function of (seed, flow id) — obs::FlowSampler — so serial and
  /// parallel runs trace identical subsets. Unsampled flows keep a null
  /// bus on their sender components and are filtered at the shared-path
  /// publish, bounding span memory at fabric scale.
  std::uint32_t trace_sample = 0;
  /// Fleet telemetry window width (zero = telemetry off). When set, the
  /// run carries an obs::TimeSeries fed from the wire tap and bottleneck
  /// counters, fleet quantile sketches land in the metrics registry, and
  /// MultiFlowResult::timeseries is populated.
  sim::Duration telemetry_window = sim::Duration::zero();
  /// Ring capacity of the telemetry window store (oldest windows evict
  /// beyond this; evictions are counted, never silent).
  std::size_t telemetry_capacity = 4096;
};

struct MultiFlowResult {
  /// Per-flow results, in flows[] order. dropped_packets holds the drops
  /// attributed to that flow at the shared bottleneck.
  std::vector<RunResult> flows;
  /// Jain's fairness index over the per-flow goodputs (1.0 = perfectly
  /// fair; 1/N = one flow took everything). Zero when nothing moved.
  double fairness = 0.0;
  /// Total bottleneck drops across all flows.
  std::int64_t bottleneck_drops = 0;
  /// Per-component packet/byte books for every stage of the run (sender
  /// qdiscs, bottleneck, netems) — the same rows the conservation auditor
  /// checks, now part of the result.
  net::CountersTable counters;
  /// Everything the run measured about itself: counter-table gauges,
  /// event-loop profile per event class, per-flow pacer ledgers and drop
  /// attribution, (when tracing) per-stage pacing-error sketches, and
  /// (when telemetry is on) the fleet quantile sketches
  /// "fleet/pacing_error_us/wire" and "fleet/fct_us".
  obs::MetricsRegistry metrics;
  /// Windowed fleet telemetry when MultiFlowConfig::telemetry_window is
  /// set; null otherwise.
  std::shared_ptr<const obs::TimeSeries> timeseries;
};

/// One sender host: kernel egress chain + endpoint, attached to the shared
/// path under `flow_id`. The host's OsModel lives beside it in the
/// Network, not inside the host — `os` must outlive it.
class SenderHost {
 public:
  SenderHost(sim::EventLoop& loop, const FlowSpec& spec,
             std::uint32_t flow_id, std::uint64_t seed, kernel::OsModel& os,
             BottleneckPath& path, RunResult& live_result);

  /// Starts the endpoint (server send loop + application source).
  void start() { endpoint_->start(); }

  std::uint32_t flow_id() const { return flow_id_; }
  sim::Duration start_delay() const { return spec_.start_delay; }
  const ExperimentConfig& config() const { return spec_.config; }
  kernel::OsModel& os() { return os_; }
  const kernel::Qdisc& qdisc() const { return path_.qdisc(); }
  FlowEndpoint& endpoint() { return *endpoint_; }
  const FlowEndpoint& endpoint() const { return *endpoint_; }

  /// Installs tracing on this host's user-space (stack, socket) and kernel
  /// (qdisc, NIC) components, registered under `prefix` in path order.
  void set_trace(obs::TraceBus& bus, const std::string& prefix) {
    endpoint_->set_trace(bus, prefix);
    path_.set_trace(bus, prefix);
  }

 private:
  std::uint32_t flow_id_;
  FlowSpec spec_;
  kernel::OsModel& os_;
  SenderPath path_;
  // The endpoint stays behind one pointer: it is the polymorphic seam
  // (QUIC stack / ideal server / TCP baseline share no layout).
  std::unique_ptr<FlowEndpoint> endpoint_;
};

/// N sender hosts on one shared bottleneck path.
class Network {
 public:
  /// `live_results[i]` receives flow i's streaming fields (cwnd trace)
  /// during the run; it must be sized to the flow count and outlive the
  /// network. Flow ids come from FlowSpec::id (0 = auto, see FlowSpec).
  Network(sim::EventLoop& loop, const MultiFlowConfig& config, sim::Rng& rng,
          std::vector<RunResult>& live_results);

  /// Starts every flow: zero-delay flows immediately (in flows[] order),
  /// delayed flows via scheduled events.
  void start();

  /// When the run gives up: the max over flows of start delay + per-flow
  /// deadline — every flow gets its full time budget.
  sim::Time deadline() const { return deadline_; }

  BottleneckPath& path() { return *path_; }
  std::size_t flow_count() const { return hosts_.size(); }
  SenderHost& host(std::size_t i) { return hosts_[i]; }

  /// Per-component counters / conservation stages across all hosts plus
  /// the shared path. Single-host networks name per-sender stages without
  /// a prefix; multi-host networks prefix them with "host<i>/".
  net::CountersTable counters_table() const;
  check::ConservationAuditor conservation_auditor() const;

  /// Installs tracing on every sampled host and the shared path. Component
  /// ids are assigned in wiring order (hosts in flows[] order, then the
  /// path). Hosts whose flow id the sampler rejects keep a null bus (their
  /// sender-side spans cost nothing); the shared path is always wired and
  /// the bus filters its per-flow packets via the sampler. The component
  /// table stays a pure function of (config, seed); a default FlowSampler
  /// traces every flow.
  void set_trace(obs::TraceBus& bus, const obs::FlowSampler& sampler);

 private:
  sim::EventLoop& loop_;
  // One OS model and one host per flow, in flows[] order, reserved to the
  // flow count so no element moves (the path borrows oses_[0], each host
  // its own OS model and the path). Hosts are destroyed first, then the
  // path, then the OS models both of them borrow.
  std::vector<kernel::OsModel> oses_;
  std::unique_ptr<BottleneckPath> path_;
  std::vector<SenderHost> hosts_;
  sim::Time deadline_;
};

/// Jain's fairness index (sum x)^2 / (n * sum x^2); 0 when all x are 0.
double jain_index(const std::vector<double>& xs);

/// Simulated-time budget for a whole multi-flow run, measured from t=0:
/// max over flows of start_delay + run_deadline + workload_duration.
sim::Duration flows_deadline(const MultiFlowConfig& config);

/// Runs N competing flows to completion (or deadline) and extracts every
/// per-flow metric from the shared tap in one pass. The flows share one
/// bottleneck, so the run is one serial simulation; ParallelRunner's
/// run_flow_sets runs independent fabrics side by side.
MultiFlowResult run_flows(const MultiFlowConfig& config);

/// Builds the deterministic run health report (obs::HealthReport) from a
/// finished fleet run: stall/spike/drop-burst detection over the
/// telemetry windows, fleet tail summaries from the registry sketches,
/// and conservation deltas from the counters table. Works on any result —
/// sections without telemetry inputs stay empty.
obs::HealthReport fleet_health(const MultiFlowConfig& config,
                               const MultiFlowResult& result);

}  // namespace quicsteps::framework
