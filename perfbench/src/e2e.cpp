// End-to-end mode. One iteration runs every simulation of the workload
// back to back through framework::run_flows (one thread, one-shard plan),
// exactly as a user regenerating the workload's results would.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "calibrate.hpp"
#include "framework/flows.hpp"
#include "modes.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace perfbench {

namespace fw = quicsteps::framework;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall time to construct every simulation's framework::Network and call
/// Network::start(), before any event runs. Teardown is not timed.
double setup_once(const Workload& w) {
  double total = 0.0;
  for (const Simulation& sim : w.sims) {
    quicsteps::sim::EventLoop loop;
    quicsteps::sim::Rng rng(sim.config.seed);
    std::vector<fw::RunResult> live(sim.config.flows.size());
    const auto t0 = Clock::now();
    fw::Network net(loop, sim.config, rng, live);
    net.start();
    total += seconds_since(t0);
  }
  return total;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

Outcome run_e2e(const Workload& w, double seconds) {
  Outcome out;
  OutputCheck check(w);
  const std::size_t sims = w.sims.size();

  // The host's speed drifts by tens of percent over seconds to minutes
  // (shared cores). Each simulation and each set-up batch is bracketed by
  // runs of the reference kernel, and its wall time is rescaled to
  // reference-host seconds by the host speed they measure; pkts_per_ref_s
  // and setup_s are medians of those rescaled figures. Set-up batches are
  // spread between the iterations for the same reason.
  constexpr int kMinIterations = 3;
  constexpr double kSetupBatchSeconds = 0.05;
  constexpr int kSetupBatchMax = 50;
  std::vector<std::int64_t> sim_pkts(sims, 0);
  std::vector<std::vector<double>> sim_ref_rates(sims);
  std::vector<double> rates;
  std::vector<double> ref_rates;
  std::vector<double> allocs_per_pkt;
  std::vector<double> setups;
  std::vector<double> ref_setups;
  // The kernel run after an iteration's last simulation is also the one
  // before the next set-up batch.
  double kernel_before = reference_kernel();
  const auto run_start = Clock::now();
  while (rates.size() < kMinIterations || seconds_since(run_start) < seconds) {
    const auto batch_start = Clock::now();
    const std::size_t batch_first = setups.size();
    for (int i = 0; i < 2 || (i < kSetupBatchMax &&
                              seconds_since(batch_start) < kSetupBatchSeconds);
         ++i) {
      setups.push_back(setup_once(w));
    }
    const double kernel_after_setup = reference_kernel();
    const double setup_scale = kReferenceKernelSeconds /
                               (0.5 * (kernel_before + kernel_after_setup));
    for (std::size_t i = batch_first; i < setups.size(); ++i) {
      ref_setups.push_back(setups[i] * setup_scale);
    }
    kernel_before = kernel_after_setup;

    std::int64_t pkts = 0;
    double wall = 0.0;
    double ref_wall = 0.0;
    AllocCount used;
    for (std::size_t s = 0; s < sims; ++s) {
      const AllocCount a0 = alloc_snapshot();
      const auto t0 = Clock::now();
      {
        const fw::MultiFlowResult r = fw::run_flows(w.sims[s].config);
        sim_pkts[s] = 0;
        for (const fw::RunResult& f : r.flows) sim_pkts[s] += f.wire_data_packets;
        if (w.renders_telemetry && !render_telemetry(w.sims[s].config, r)) {
          out.correct = false;
          out.errors.push_back(w.sims[s].label + ": empty health report or CSV");
        }
        check.observe(s, r, &out);
      }
      const double t = seconds_since(t0);
      used += alloc_snapshot() - a0;
      const double kernel_after = reference_kernel();
      const double ref_t =
          t * kReferenceKernelSeconds / (0.5 * (kernel_before + kernel_after));
      kernel_before = kernel_after;
      sim_ref_rates[s].push_back(static_cast<double>(sim_pkts[s]) / ref_t);
      wall += t;
      ref_wall += ref_t;
      pkts += sim_pkts[s];
    }
    if (pkts <= 0) {
      out.correct = false;
      out.errors.push_back("an iteration moved no wire data packets");
      return out;
    }
    rates.push_back(static_cast<double>(pkts) / wall);
    ref_rates.push_back(static_cast<double>(pkts) / ref_wall);
    allocs_per_pkt.push_back(static_cast<double>(used.calls) /
                             static_cast<double>(pkts));
  }

  const auto n = static_cast<std::int64_t>(rates.size());
  out.metrics.push_back({"pkts_per_ref_s", median(ref_rates), "pkt/s", n,
                         "median over iterations, reference-host seconds"});
  out.metrics.push_back({"setup_s", median(ref_setups), "s",
                         static_cast<std::int64_t>(ref_setups.size()),
                         "median Network ctor + start, reference-host seconds"});
  out.metrics.push_back({"allocs_per_pkt", median(allocs_per_pkt),
                         "count/pkt", n, "operator new calls per wire pkt"});
  const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
  char range[96];
  std::snprintf(range, sizeof range,
                "median over iterations, wall clock (min %.0f, max %.0f)", *lo,
                *hi);
  out.extra.push_back({"pkts_per_s", median(rates), "pkt/s", n, range});
  out.extra.push_back({"setup_wall_s", median(setups), "s",
                       static_cast<std::int64_t>(setups.size()),
                       "median Network ctor + start, wall clock"});
  // Reported, not gated: on fleet_traced the peak depends on which flows
  // the seed samples for tracing (21.8 to 45.1 MiB over seeds 1-10).
  out.extra.push_back({"peak_rss_mib", peak_rss_mib(), "MiB", 1,
                       "process peak resident set"});
  char note[96];
  std::snprintf(note, sizeof note, "%lld of %lld transfers failed",
                static_cast<long long>(out.failed),
                static_cast<long long>(out.attempted));
  out.extra.push_back(
      {"fail_frac",
       out.attempted > 0 ? static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted)
                         : 0.0,
       "ratio", out.attempted, note});
  for (std::size_t s = 0; s < sims; ++s) {
    out.extra.push_back({"pkts_per_ref_s/" + w.sims[s].label,
                         median(sim_ref_rates[s]), "pkt/s", n,
                         std::to_string(sim_pkts[s]) + " pkts"});
  }
  return out;
}

}  // namespace perfbench
