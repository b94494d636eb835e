// Deterministic discrete-event scheduler.
//
// Events live in a calendar queue: a ring of fixed-width time buckets (the
// wheel) for the near future plus a min-heap for events beyond the wheel
// horizon. Scheduling appends a 24-byte POD record to its bucket in O(1);
// draining sorts each bucket once when the cursor reaches it. From then on
// inserts into that active bucket keep it ordered (a binary search, at
// worst an O(bucket) memmove, never a re-sort). Events at the
// same instant run in scheduling order (a global sequence number breaks
// ties), which makes every run of a given seed bit-for-bit reproducible.
//
// Callbacks are kept in a slab of reusable slots, recycled through a free
// list, so steady-state scheduling performs no allocations (callbacks that
// fit std::function's small-buffer optimisation never touch the heap).
// Cancellation through the returned handle is amortized O(1): the slot's
// generation counter is bumped and the stale queue record is skipped when
// it surfaces.
//
// Drain channels are the datapath's fast lane: a component registers
// a raw function pointer once and then schedules 32-bit payloads (packet
// slab refs, see net/packet_slab.hpp) instead of closures. A drain record
// costs no std::function construction when scheduled and no indirect
// closure teardown when it runs, and run()/run_until() execute consecutive
// drain records off the sorted active bucket in a tight train loop without
// re-entering the cursor search. Drain records share the global sequence
// counter with closure events, so a datapath hop and a timer due at the
// same instant run in the order they were scheduled.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace quicsteps::sim {

class EventLoop;

/// Coarse classification of scheduled callbacks, for the loop profile the
/// observability layer reports (executed-event counts per class). The tag
/// rides in the queue record's padding bytes, so carrying it is free; the
/// per-class counters themselves are only maintained when the build defines
/// QUICSTEPS_TRACE_ENABLED (CMake option QUICSTEPS_TRACE, default ON).
enum class EventClass : std::uint8_t {
  kGeneral = 0,  // untagged schedule calls
  kTimer,        // timer-service / loss-timer wakeups
  kTransmit,     // NIC serialization completions
  kQueue,        // qdisc watchdogs and timed releases
  kDelay,        // netem propagation-delay deliveries
  kWakeup,       // receive-side epoll/GRO wakeups
  kTransport,    // stack event-loop iterations (yield, ACK batches)
  kApp,          // application source arrivals
};

inline constexpr std::size_t kEventClassCount = 8;

/// Stable lower-case name for reports ("general", "timer", ...).
const char* to_string(EventClass cls);

#ifdef QUICSTEPS_TRACE_ENABLED
inline constexpr bool kLoopProfilingEnabled = true;
#else
inline constexpr bool kLoopProfilingEnabled = false;
#endif

/// Deterministic loop profile: pure functions of the executed event
/// sequence (no wall clocks), so serial and parallel runs of one seed
/// produce identical profiles. All zeros when profiling is compiled out.
struct LoopStats {
  std::array<std::uint64_t, kEventClassCount> scheduled{};
  std::array<std::uint64_t, kEventClassCount> executed{};
  std::uint64_t cancelled = 0;
  /// Records that missed the wheel horizon and took the overflow heap.
  std::uint64_t overflow_scheduled = 0;
  /// High-water mark of live pending events.
  std::uint64_t max_pending = 0;
  /// Drain-channel records executed (subset of `executed`), and how many
  /// of those rode the run() train loop instead of a full cursor search.
  std::uint64_t drain_executed = 0;
  std::uint64_t drain_batched = 0;
};

/// Handle to a scheduled event. Default-constructed handles are inert.
/// A handle is a (slot, generation) ticket into the owning loop's slab:
/// once the event runs or is cancelled, the slot's generation moves on and
/// every outstanding handle to it becomes inert — including handles to
/// slots that have since been recycled for newer events.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the callback from running. Safe to call repeatedly, on expired
  /// events, and on default-constructed handles.
  void cancel();

  /// True while the event is still pending (scheduled and not cancelled).
  bool pending() const;

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, std::uint32_t slot, std::uint32_t gen)
      : loop_(loop), slot_(slot), gen_(gen) {}
  EventLoop* loop_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A drain callback: `payload` is whatever 32-bit value the scheduling
/// site passed (by convention a net::PacketSlab ref). Plain function
/// pointer + context, so dispatch is one indirect call with no closure
/// storage behind it.
using DrainFn = void (*)(void* ctx, std::uint32_t payload);

/// Identifier handed out by EventLoop::register_drain.
using DrainId = std::uint16_t;

class EventLoop {
 public:
  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at`. Times in the past are
  /// clamped to `now()` (the event still runs, immediately-next).
  EventHandle schedule_at(Time at, std::function<void()> fn) {
    return schedule_at(at, EventClass::kGeneral, std::move(fn));
  }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to now.
  EventHandle schedule_after(Duration delay, std::function<void()> fn) {
    return schedule_after(delay, EventClass::kGeneral, std::move(fn));
  }

  /// Tagged variants: identical semantics, plus the event-class label the
  /// loop profile aggregates by.
  EventHandle schedule_at(Time at, EventClass cls, std::function<void()> fn);
  EventHandle schedule_after(Duration delay, EventClass cls,
                             std::function<void()> fn);

  /// Registers a drain channel. Called once per component during wiring;
  /// `cls` is the event class its records are profiled under. The channel
  /// lives as long as the loop. Ids are 14 bits wide, so components that
  /// exist once per flow share a channel instead of each registering one.
  DrainId register_drain(EventClass cls, DrainFn fn, void* ctx);

  /// Schedules `payload` to be handed to channel `ch` at absolute time
  /// `at` (clamped to now() like schedule_at). Fully interleaves with
  /// closure events: both draw from one sequence counter, so relative
  /// execution order matches an equivalent schedule_at call exactly.
  EventHandle schedule_drain_at(Time at, DrainId ch, std::uint32_t payload);

  /// Fire-and-forget variant of schedule_drain_at: the payload rides in
  /// the queue record itself, so no slab slot is touched on schedule or
  /// execute — but there is no handle and the record cannot be cancelled.
  /// This is the cheapest way through the loop; use it for records that
  /// are never cancelled (NIC completions, propagation-delay deliveries,
  /// receive wakeups). Ordering is identical to the other schedule calls
  /// (same sequence counter).
  void post_drain_at(Time at, DrainId ch, std::uint32_t payload);

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= deadline; afterwards now() == deadline (or
  /// later if the last event was exactly at the deadline).
  std::size_t run_until(Time deadline);

  /// Executes at most one pending event. Returns false if queue is empty.
  bool run_one();

  /// Number of live (non-cancelled) pending events.
  std::size_t pending_count() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Time of the earliest pending event, or Time::infinite() when empty.
  Time next_event_time() const;

  /// Deterministic loop profile (all zeros when QUICSTEPS_TRACE is off).
  const LoopStats& stats() const { return stats_; }

 private:
  friend class EventHandle;

  static constexpr int kWidthBits = 13;   // 8.192 us per bucket
  static constexpr int kBucketBits = 11;  // 2048 buckets -> ~16.8 ms horizon
  static constexpr std::uint64_t kBuckets = std::uint64_t{1} << kBucketBits;
  static constexpr std::uint64_t kMask = kBuckets - 1;
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};
  /// Records a bucket reserves the first time it is used: one allocation
  /// instead of a growth chain from empty. Buckets keep their capacity as
  /// the wheel turns, so only each simulation's first lap allocates.
  static constexpr std::size_t kBucketReserve = 16;

  /// Callback storage, recycled through a free list. `gen` advances every
  /// time the slot's event runs or is cancelled, invalidating old handles.
  /// Drain records use a slot too (for the shared liveness/cancellation
  /// machinery) but leave `fn` null and carry their payload here instead —
  /// scheduling one never constructs a std::function. The free list is
  /// intrusive: a released slot's `payload` field (dead while free) links
  /// to the next free slot, so recycling needs no side vector at all.
  struct Slot {
    std::function<void()> fn;
    std::uint32_t payload = 0;
    std::uint32_t gen = 0;
    bool live = false;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// 24-byte POD queue record. A record whose slot is no longer live is a
  /// tombstone and is dropped when it surfaces. The event-class tag lives
  /// in bytes that were padding before, so profiling does not grow it.
  /// Records with kTrainClsBit set are drain records: the low cls bits are
  /// the DrainId and the slot's payload goes to the channel's function.
  /// Records that also carry kPostClsBit are slotless (post_drain_at): the
  /// `slot` field IS the payload, the record is always live, and no slab
  /// slot is consulted on any path.
  struct Rec {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint16_t cls;
  };
  static_assert(sizeof(Rec) == 24, "Rec must stay a 24-byte POD");

  static constexpr std::uint16_t kTrainClsBit = 0x8000;
  static constexpr std::uint16_t kPostClsBit = 0x4000;
  static constexpr std::uint16_t kTrainChannelMask = 0x3fff;

  struct DrainChannel {
    DrainFn fn = nullptr;
    void* ctx = nullptr;
    EventClass cls = EventClass::kGeneral;
  };

  static bool rec_before(const Rec& a, const Rec& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    return a.seq < b.seq;
  }
  /// Comparator for the overflow min-heap (std::push_heap wants max-first).
  static bool rec_after(const Rec& a, const Rec& b) {
    return rec_before(b, a);
  }
  static std::uint64_t bucket_index(std::int64_t at_ns) {
    return static_cast<std::uint64_t>(at_ns) >> kWidthBits;
  }

  bool slot_live(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].gen == gen;
  }
  /// Liveness of a queue record: slotless drain records are always live
  /// (nothing can cancel them); everything else defers to its slot. A dead
  /// record is therefore always slotted, so pruning may release its slot
  /// unconditionally.
  bool rec_live(const Rec& rec) const {
    return (rec.cls & kPostClsBit) != 0 || slots_[rec.slot].live;
  }
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);
  /// Marks a slot's event as done (executed or cancelled): handles go inert.
  void deactivate_slot(std::uint32_t slot);
  /// Returns a slot whose queue record is gone to the free list.
  void release_slot(std::uint32_t slot) {
    slots_[slot].payload = free_head_;
    free_head_ = slot;
  }
  /// Pops a free slot, growing storage only past the high-water mark.
  std::uint32_t acquire_slot();

  void set_bit(std::uint64_t idx) {
    occupied_[(idx & kMask) >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  void clear_bit(std::uint64_t idx) {
    occupied_[(idx & kMask) >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }
  /// First occupied bucket with absolute index in [from, base_idx_ +
  /// kBuckets), or kNoBucket. (Tombstone-only buckets count as occupied.)
  std::uint64_t next_occupied(std::uint64_t from) const;

  void wheel_insert(const Rec& rec);
  /// Drops dead records off the overflow heap top so the top, if any, is
  /// live (keeps next_event_time() exact without mutation).
  void clean_overflow_top();
  /// Moves now() (and the wheel base) forward, pulling overflow records
  /// that entered the horizon into their buckets.
  void advance_now(Time to);
  /// Positions the cursor on the earliest live record, pruning tombstones
  /// on the way. Returns false when no live events remain; otherwise the
  /// record is wheel_[active_idx_ & kMask].back() (when *from_overflow is
  /// false) or overflow_.front().
  bool locate_next(bool* from_overflow);

  /// Runs one surfaced drain record: payload out, slot recycled, channel
  /// function called (the drain-path analogue of run_one's tail).
  void execute_train(const Rec& rec);
  /// Train loop: executes consecutive drain records (time <= deadline)
  /// off the back of the sorted active bucket without re-entering
  /// locate_next, stopping the moment a callback schedules into an earlier
  /// bucket or a closure record surfaces. Returns the number executed.
  std::size_t drain_trains(Time deadline);

  std::vector<Slot> slots_;
  std::vector<DrainChannel> drains_;
  std::uint32_t free_head_ = kNoSlot;  // intrusive free list through payload
  std::vector<std::vector<Rec>> wheel_;
  std::array<std::uint64_t, kBuckets / 64> occupied_{};
  std::vector<Rec> overflow_;  // min-heap on rec_after
  std::uint64_t base_idx_ = 0;        // bucket holding now()
  std::uint64_t hint_idx_ = 0;        // scans start here (<= first occupied)
  // Bucket being drained; sorted latest-first for as long as it is active.
  std::uint64_t active_idx_ = kNoBucket;
  std::size_t wheel_count_ = 0;  // records in the wheel, incl. tombstones
  std::size_t live_count_ = 0;
  Time now_;
  std::uint64_t next_seq_ = 0;
  LoopStats stats_;
};

// Defined here, not in event_loop.cpp: the timer, loss, ACK and yield
// paths ask pending() on nearly every packet.
inline void EventHandle::cancel() {
  if (loop_ != nullptr) loop_->cancel_slot(slot_, gen_);
}

inline bool EventHandle::pending() const {
  return loop_ != nullptr && loop_->slot_live(slot_, gen_);
}

}  // namespace quicsteps::sim
