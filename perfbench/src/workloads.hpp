// The benchmark's four workloads. Each is a list of simulations run back
// to back on one thread; the benchmark's seed argument becomes every
// simulation's MultiFlowConfig::seed, so the same seed gives the same
// inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "framework/flows.hpp"

namespace perfbench {

struct Simulation {
  std::string label;
  quicsteps::framework::MultiFlowConfig config;
};

struct Workload {
  std::string name;
  /// The seed the simulations were built with, and the one the goldens
  /// were recorded at.
  std::uint64_t seed = 1;
  std::uint64_t default_seed = 1;
  std::vector<Simulation> sims;
  /// The iteration also renders fleet_health(...).to_json() and the
  /// telemetry CSV (fleet_traced).
  bool renders_telemetry = false;
};

/// Names accepted by make_workload, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

/// Builds workload `name` at `seed` (nullopt: its default seed); nullopt
/// for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::optional<std::uint64_t> seed);

}  // namespace perfbench
