#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "check/determinism_hasher.hpp"
#include "goldens.hpp"

namespace perfbench {

namespace {

/// Shortest round-trip decimal for a double, as JSON (finite values only).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void print_outcome(const std::string& workload, const Outcome& outcome) {
  for (const std::string& e : outcome.errors) {
    std::printf("%s ERROR %s\n", workload.c_str(), e.c_str());
  }
  auto row = [&](const Metric& m) {
    std::printf("%-13s %-32s %16.6g %-10s n=%-8lld %s\n", workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples), m.note.c_str());
  };
  for (const Metric& m : outcome.metrics) row(m);
  for (const Metric& m : outcome.extra) row(m);

  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::uint64_t sim_digest(const std::vector<std::uint64_t>& flow_hashes) {
  if (flow_hashes.size() == 1) return flow_hashes[0];
  quicsteps::check::DeterminismHasher h;
  for (std::uint64_t x : flow_hashes) h.add_u64(x);
  return h.digest();
}

std::uint64_t sim_digest(const quicsteps::framework::MultiFlowResult& r) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(r.flows.size());
  for (const auto& f : r.flows) hashes.push_back(f.wire_hash);
  return sim_digest(hashes);
}

bool render_telemetry(const quicsteps::framework::MultiFlowConfig& config,
                      const quicsteps::framework::MultiFlowResult& r) {
  if (quicsteps::framework::fleet_health(config, r).to_json().empty()) {
    return false;
  }
  return r.timeseries == nullptr || !r.timeseries->to_csv().empty();
}

OutputCheck::OutputCheck(const Workload& w)
    : w_(w),
      use_golden_(w.seed == w.default_seed),
      first_(w.sims.size(), 0),
      seen_(w.sims.size(), false) {}

void OutputCheck::observe(std::size_t sim,
                          const quicsteps::framework::MultiFlowResult& r,
                          Outcome* outcome) {
  std::vector<std::uint64_t> hashes;
  std::vector<bool> completed;
  hashes.reserve(r.flows.size());
  completed.reserve(r.flows.size());
  for (const auto& f : r.flows) {
    hashes.push_back(f.wire_hash);
    completed.push_back(f.completed);
  }
  observe(sim, hashes, completed, outcome);
}

void OutputCheck::observe(std::size_t sim,
                          const std::vector<std::uint64_t>& hashes,
                          const std::vector<bool>& completed,
                          Outcome* outcome) {
  const std::uint64_t digest = sim_digest(hashes);
  const std::string& label = w_.sims[sim].label;
  bool wrong = false;
  if (use_golden_) {
    const std::uint64_t* golden = find_golden(w_.name, label);
    if (golden == nullptr || *golden != digest) {
      wrong = true;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s: wire_hash digest %016llx, golden %s%016llx",
                    label.c_str(), static_cast<unsigned long long>(digest),
                    golden == nullptr ? "missing " : "",
                    static_cast<unsigned long long>(golden ? *golden : 0));
      outcome->errors.push_back(buf);
    }
  } else if (seen_[sim] && first_[sim] != digest) {
    wrong = true;
    outcome->errors.push_back(label +
                              ": two executions of one seed differ");
  }
  if (!seen_[sim]) {
    seen_[sim] = true;
    first_[sim] = digest;
  }
  if (wrong) outcome->correct = false;

  const std::int64_t flows = static_cast<std::int64_t>(hashes.size());
  outcome->attempted += flows;
  if (wrong) {
    outcome->failed += flows;
    return;
  }
  for (bool done : completed) {
    if (!done) ++outcome->failed;
  }
}

}  // namespace perfbench
