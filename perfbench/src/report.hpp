// Result record shared by the end-to-end and traced modes, its printing,
// and the correctness checks both modes apply to every simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "framework/flows.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples the value summarizes (iterations, repetitions, replay ops).
  std::int64_t samples = 1;
  /// One-line note printed beside the value in the human-readable table.
  std::string note;
};

struct Outcome {
  bool correct = true;
  /// Flow transfers attempted and failed (INCOMPLETE or wrong wire_hash).
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Metrics that go into the JSON record.
  std::vector<Metric> metrics;
  /// Printed in the table only.
  std::vector<Metric> extra;
  /// Why `correct` is false, one line each.
  std::vector<std::string> errors;
};

/// Prints `outcome` as a table of "workload metric value unit n=samples"
/// lines, then (last) the one-line JSON record.
void print_outcome(const std::string& workload, const Outcome& outcome);

double median(std::vector<double> xs);

/// Order-sensitive fold of a simulation's per-flow wire_hash values (for a
/// single flow, the flow's own wire_hash).
std::uint64_t sim_digest(const quicsteps::framework::MultiFlowResult& r);
std::uint64_t sim_digest(const std::vector<std::uint64_t>& flow_hashes);

/// Renders fleet_health(config, r).to_json() and, when the run kept
/// telemetry, TimeSeries::to_csv(); false if either came out empty.
bool render_telemetry(const quicsteps::framework::MultiFlowConfig& config,
                      const quicsteps::framework::MultiFlowResult& r);

/// Checks each simulation's digest against its golden (at the workload's
/// default seed) or against the first execution (any other seed), and
/// counts failed transfers. One instance spans every execution in a run.
class OutputCheck {
 public:
  explicit OutputCheck(const Workload& w);

  /// Records one execution of simulation `sim` with per-flow hashes and
  /// completion flags.
  void observe(std::size_t sim, const std::vector<std::uint64_t>& hashes,
               const std::vector<bool>& completed, Outcome* outcome);
  void observe(std::size_t sim,
               const quicsteps::framework::MultiFlowResult& r,
               Outcome* outcome);

 private:
  const Workload& w_;
  bool use_golden_;
  std::vector<std::uint64_t> first_;
  std::vector<bool> seen_;
};

}  // namespace perfbench
