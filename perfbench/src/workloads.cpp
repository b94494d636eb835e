#include "workloads.hpp"

#include "net/data_rate.hpp"
#include "sim/time.hpp"

namespace perfbench {

namespace fw = quicsteps::framework;
using quicsteps::cc::CcAlgorithm;
using quicsteps::kernel::GsoMode;
using quicsteps::net::DataRate;
using quicsteps::sim::Duration;

namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

Simulation single_flow(std::string label, const fw::ExperimentConfig& flow,
                       std::uint64_t seed) {
  Simulation sim;
  sim.label = std::move(label);
  sim.config.seed = seed;
  sim.config.flows.push_back(fw::FlowSpec{.config = flow});
  sim.config.flows.back().config.seed = seed;
  return sim;
}

/// The paper's testbed (40 Mbit/s, 40 ms RTT, 200 kB buffer) at its
/// 100 MiB transfer: the baseline grid, the BBR variant, and the qdisc and
/// GSO variants of quiche with the SF patch.
std::vector<Simulation> paper_40m(std::uint64_t seed) {
  struct Variant {
    const char* label;
    fw::StackKind stack;
    CcAlgorithm cca;
    fw::QdiscKind qdisc;
    GsoMode gso;
  };
  const Variant variants[] = {
      {"quiche", fw::StackKind::kQuiche, CcAlgorithm::kCubic,
       fw::QdiscKind::kFqCodel, GsoMode::kOff},
      {"quiche-sf", fw::StackKind::kQuicheSf, CcAlgorithm::kCubic,
       fw::QdiscKind::kFqCodel, GsoMode::kOff},
      {"picoquic", fw::StackKind::kPicoquic, CcAlgorithm::kCubic,
       fw::QdiscKind::kFqCodel, GsoMode::kOff},
      {"ngtcp2", fw::StackKind::kNgtcp2, CcAlgorithm::kCubic,
       fw::QdiscKind::kFqCodel, GsoMode::kOff},
      {"tcp-tls", fw::StackKind::kTcpTls, CcAlgorithm::kCubic,
       fw::QdiscKind::kFqCodel, GsoMode::kOff},
      {"picoquic-bbr", fw::StackKind::kPicoquic, CcAlgorithm::kBbr,
       fw::QdiscKind::kFqCodel, GsoMode::kOff},
      {"quiche-sf-fq", fw::StackKind::kQuicheSf, CcAlgorithm::kCubic,
       fw::QdiscKind::kFq, GsoMode::kOff},
      {"quiche-sf-etf", fw::StackKind::kQuicheSf, CcAlgorithm::kCubic,
       fw::QdiscKind::kEtf, GsoMode::kOff},
      {"quiche-sf-fq-gso", fw::StackKind::kQuicheSf, CcAlgorithm::kCubic,
       fw::QdiscKind::kFq, GsoMode::kOn},
      {"quiche-sf-fq-gso-paced", fw::StackKind::kQuicheSf,
       CcAlgorithm::kCubic, fw::QdiscKind::kFq, GsoMode::kPaced},
  };
  std::vector<Simulation> sims;
  for (const Variant& v : variants) {
    fw::ExperimentConfig flow;
    flow.label = v.label;
    flow.stack = v.stack;
    flow.cca = v.cca;
    flow.topology.server_qdisc = v.qdisc;
    flow.gso = v.gso;
    flow.gso_segments = 16;
    flow.payload_bytes = 100 * kMiB;
    flow.repetitions = 1;
    sims.push_back(single_flow(v.label, flow, seed));
  }
  return sims;
}

/// bench_ext_highbw's 10 Gbit/s point: 40 Gbit/s NIC, 2 ms RTT, 2 ms of
/// buffer, 16-frame TBF burst, 64 MiB, with and without receiver GRO.
std::vector<Simulation> highrate_10g(std::uint64_t seed) {
  struct Variant {
    const char* label;
    fw::QdiscKind qdisc;
    GsoMode gso;
    int gro_us;
  };
  const Variant variants[] = {
      {"fq_codel-gro0", fw::QdiscKind::kFqCodel, GsoMode::kOff, 0},
      {"fq_codel-gro16", fw::QdiscKind::kFqCodel, GsoMode::kOff, 16},
      {"fq-paced-gso-gro0", fw::QdiscKind::kFq, GsoMode::kPaced, 0},
      {"fq-paced-gso-gro16", fw::QdiscKind::kFq, GsoMode::kPaced, 16},
  };
  const DataRate rate = DataRate::gigabits_per_second(10);
  std::vector<Simulation> sims;
  for (const Variant& v : variants) {
    fw::ExperimentConfig flow;
    flow.label = v.label;
    flow.stack = fw::StackKind::kQuicheSf;
    flow.payload_bytes = 64 * kMiB;
    flow.repetitions = 1;
    flow.gso = v.gso;
    flow.gso_segments = 16;
    flow.topology.server_qdisc = v.qdisc;
    flow.topology.bottleneck_rate = rate;
    flow.topology.server_nic_rate = DataRate::gigabits_per_second(40);
    flow.topology.path_delay_one_way = Duration::millis(1);
    flow.topology.bottleneck_buffer_bytes = rate.bytes_in(Duration::millis(2));
    flow.topology.tbf_burst_bytes = 16 * 1514;
    flow.topology.client_gro_window = Duration::micros(v.gro_us);
    sims.push_back(single_flow(v.label, flow, seed));
  }
  return sims;
}

/// A bottleneck scaled so each of `flows` senders has a 4 Mbit/s fair
/// share, with 40 ms of buffer (bench_ext_competing_flows' provisioned
/// fabric).
void scale_bottleneck(fw::ExperimentConfig& flow, int flows) {
  flow.topology.bottleneck_rate = DataRate::bits_per_second(
      std::int64_t{4'000'000} * flows);
  flow.topology.bottleneck_buffer_bytes =
      flow.topology.bottleneck_rate.bytes_in(Duration::millis(40));
}

std::vector<Simulation> fabric_10k(std::uint64_t seed) {
  constexpr int kFlows = 10000;
  fw::ExperimentConfig flow;
  flow.stack = fw::StackKind::kIdealQuic;
  flow.payload_bytes = 64 * 1024;
  scale_bottleneck(flow, kFlows);
  Simulation sim;
  sim.label = "ideal-x10000";
  sim.config.seed = seed;
  sim.config.lite_metrics = true;
  sim.config.flows.assign(kFlows, fw::FlowSpec{.config = flow});
  return {sim};
}

/// Mixed transports on FQ with sampled path tracing and fleet telemetry.
std::vector<Simulation> fleet_traced(std::uint64_t seed) {
  constexpr int kFlows = 200;
  const fw::StackKind stacks[] = {fw::StackKind::kQuicheSf,
                                  fw::StackKind::kPicoquic,
                                  fw::StackKind::kNgtcp2,
                                  fw::StackKind::kTcpTls};
  Simulation sim;
  sim.label = "mixed-x200";
  sim.config.seed = seed;
  sim.config.lite_metrics = true;
  sim.config.trace_sample = 10;
  sim.config.telemetry_window = Duration::millis(10);
  for (int i = 0; i < kFlows; ++i) {
    fw::ExperimentConfig flow;
    flow.stack = stacks[i % 4];
    flow.label = fw::to_string(flow.stack);
    flow.payload_bytes = 1 * kMiB;
    flow.topology.server_qdisc = fw::QdiscKind::kFq;
    flow.trace = true;
    scale_bottleneck(flow, kFlows);
    sim.config.flows.push_back(fw::FlowSpec{.config = flow});
  }
  return {sim};
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_40m", "highrate_10g", "fabric_10k", "fleet_traced"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::optional<std::uint64_t> seed) {
  Workload w;
  w.name = name;
  if (name == "paper_40m" || name == "highrate_10g") {
    w.default_seed = 1;
  } else if (name == "fabric_10k" || name == "fleet_traced") {
    w.default_seed = 7;
  } else {
    return std::nullopt;
  }
  w.seed = seed.value_or(w.default_seed);
  if (name == "paper_40m") {
    w.sims = paper_40m(w.seed);
  } else if (name == "highrate_10g") {
    w.sims = highrate_10g(w.seed);
  } else if (name == "fabric_10k") {
    w.sims = fabric_10k(w.seed);
  } else {
    w.sims = fleet_traced(w.seed);
    w.renders_telemetry = true;
  }
  return w;
}

}  // namespace perfbench
