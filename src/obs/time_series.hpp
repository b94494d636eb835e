// TimeSeries: fixed-window, bounded-memory telemetry over simulated time.
//
// The paper's analysis is end-of-run aggregates; the ROADMAP's LTE/churn
// items need the time axis back: per-window throughput, qdisc backlog,
// drop rate, and per-stage pacing error, so a rate collapse or a
// mid-run stall is visible as *when*, not just a skewed total. The
// engine is fed from the wire-tap packet callback (the serial event
// core, so runs of one config see byte-identical series) plus a
// counter snapshot taken every time a window closes; per-stage pacing
// errors are folded in post-run from the trace spine's span stream.
//
// Memory is bounded by a preallocated ring of `capacity` windows —
// nothing on the per-packet path allocates (the ring is sized in the
// constructor; tools/analyze/layers.json lists this header as hot
// path). When a run outlives the ring, the oldest windows are evicted
// and counted, never silently dropped.
//
// Attribution semantics, chosen for determinism over precision:
//   * wire packets/bytes land in the window of their tap timestamp;
//   * bottleneck counter deltas (delivered, dropped) are attributed to
//     the window being CLOSED when the next packet rolls the clock
//     forward — idle gap windows therefore report zeros, which is
//     exactly what the stall detector wants;
//   * finalize() closes the open window with one last snapshot, so the
//     post-run drain (queue emptying through netem) lands in the final
//     active window instead of an artificial deadline-length tail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace quicsteps::obs {

class TimeSeries {
 public:
  /// Cumulative shared-bottleneck counters, read through a raw function
  /// pointer (std::function would put a heap closure on the hot path).
  struct Snapshot {
    std::int64_t delivered_packets = 0;  // cumulative packets_out
    std::int64_t dropped_packets = 0;    // cumulative drops
    std::int64_t backlog_packets = 0;    // live queue depth
  };
  using SnapshotFn = Snapshot (*)(void* ctx);

  struct Window {
    std::int64_t index = 0;  // absolute ordinal: window start = index*width
    std::int64_t wire_packets = 0;
    std::int64_t wire_bytes = 0;
    std::int64_t delivered_packets = 0;
    std::int64_t dropped_packets = 0;
    std::int64_t backlog_packets = 0;
    std::int64_t stage_count[kTraceStageCount] = {};
    std::int64_t stage_error_sum_us[kTraceStageCount] = {};

    bool idle() const { return wire_packets == 0 && delivered_packets == 0; }
  };

  /// `width` is the window length (clamped to >= 1 ns), `capacity` the
  /// ring size (clamped to >= 2). `snapshot` may be null (all counter
  /// fields stay zero — unit tests and span-only folds).
  TimeSeries(sim::Duration width, std::size_t capacity, SnapshotFn snapshot,
             void* snapshot_ctx);

  /// Per-packet hot path: rolls the window clock forward when `at`
  /// crosses a boundary, then counts the packet. Allocation-free.
  void on_wire_packet(sim::Time at, std::int64_t bytes) {
    const std::int64_t ord = at.ns() / width_ns_;
    if (__builtin_expect(end_ord_ == begin_ord_ || ord >= end_ord_, 0)) {
      roll_to(ord);
    }
    Window& w = slot(ord);
    ++w.wire_packets;
    w.wire_bytes += bytes;
  }

  /// Closes the open window with a final counter snapshot (the post-run
  /// queue drain lands here). Call once, after the event loop returns
  /// and before fold_spans/to_csv.
  void finalize();

  /// Folds per-stage pacing errors (span time minus pacer intent, whole
  /// microseconds) into the windows of their span timestamps. Spans
  /// without a pacer intent are skipped; spans in evicted windows are
  /// dropped (already accounted in evicted_windows()). Call after
  /// finalize() — windows created here are span-only extensions.
  void fold_spans(const std::vector<SpanEvent>& events);

  sim::Duration width() const { return sim::Duration::nanos(width_ns_); }
  /// Retained ordinal range [begin_ordinal, end_ordinal).
  std::int64_t begin_ordinal() const { return begin_ord_; }
  std::int64_t end_ordinal() const { return end_ord_; }
  std::size_t size() const {
    return static_cast<std::size_t>(end_ord_ - begin_ord_);
  }
  bool empty() const { return end_ord_ == begin_ord_; }
  /// Windows that fell off the ring (including idle-gap ordinals that
  /// were never materialized).
  std::int64_t evicted_windows() const { return evicted_; }

  const Window& window(std::int64_t ordinal) const {
    return ring_[static_cast<std::size_t>(ordinal % cap_)];
  }

  /// Byte-deterministic CSV: one row per retained window in ordinal
  /// order, fixed column set (all nine stages, even when empty).
  std::string to_csv() const;

 private:
  void roll_to(std::int64_t ord);  // cold: window close + gap fill
  void close_open_window();

  Window& slot(std::int64_t ord) {
    return ring_[static_cast<std::size_t>(ord % cap_)];
  }

  std::vector<Window> ring_;
  std::int64_t width_ns_;
  std::int64_t cap_;
  std::int64_t begin_ord_ = 0;  // empty while begin_ord_ == end_ord_
  std::int64_t end_ord_ = 0;
  std::int64_t evicted_ = 0;
  bool finalized_ = false;
  SnapshotFn snapshot_fn_;
  void* snapshot_ctx_;
  Snapshot last_snapshot_;
};

}  // namespace quicsteps::obs
