// MetricsRegistry: one deterministic sink for everything a run measures
// about itself.
//
// net::Counters snapshots (per-component packet/byte books), gauges (queue
// depth high-water marks, loop max-pending), counters (events executed per
// class, pacer releases), and quantile sketches (pacing error per path
// stage, fleet tails) all land here and are emitted through the same
// sorted-name discipline as net::CountersTable: rows are rendered in
// ascending metric-name order, so output is identical across runs and job
// counts regardless of insertion order. Ordered std::map storage makes
// the walk itself deterministic — the analyzer's determinism/
// exporter-unordered rule keeps it that way.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "net/counters.hpp"
#include "obs/quantile_sketch.hpp"

namespace quicsteps::obs {

/// Pre-resolved counter for hot loops: one map lookup at wiring time,
/// then a bare int64 add per touch. The handle points into the owning
/// MetricsRegistry's node-stable map storage — valid for the registry's
/// lifetime (moving the registry itself moves the map nodes with it, so
/// handles resolved before a run must not outlive the run's registry
/// instance).
class CounterHandle {
 public:
  CounterHandle() = default;

  /// Const: the handle itself is immutable (it mutates the counter it
  /// points at), so by-value lambda captures work without `mutable`.
  void add(std::int64_t delta) const { *value_ += delta; }

 private:
  friend class MetricsRegistry;
  explicit CounterHandle(std::int64_t* value) : value_(value) {}
  // Null only for a default-constructed handle; MetricsRegistry::counter
  // always binds. A default handle must be re-resolved before use.
  std::int64_t* value_ = nullptr;
};

class MetricsRegistry {
 public:
  /// Sets a point-in-time value (last write wins).
  void set_gauge(const std::string& name, std::int64_t value);
  /// Accumulates into a monotonic counter.
  void add_counter(const std::string& name, std::int64_t delta);
  /// Resolves a pre-bound handle to the named counter (created at zero on
  /// first use) — the per-packet call-site API; add_counter is the cold
  /// path.
  CounterHandle counter(const std::string& name);
  /// Returns the named quantile sketch, creating it empty on first use.
  QuantileSketch& sketch(const std::string& name);

  /// Folds a whole counters table in: each row becomes gauges under
  /// "<prefix><row>/..." (in, out, dropped, queue_peak).
  void add_counters_table(const std::string& prefix,
                          const net::CountersTable& table);

  const std::map<std::string, std::int64_t>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, QuantileSketch>& sketches() const {
    return sketches_;
  }

  /// One "name: value" line per metric, ascending name order across all
  /// three kinds (gauge / counter / sketch annotated by kind).
  std::string to_string() const;

 private:
  std::map<std::string, std::int64_t> gauges_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, QuantileSketch> sketches_;
};

}  // namespace quicsteps::obs
