// Unit tests for the discrete-event core: time arithmetic, event ordering,
// cancellation, and deterministic randomness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "sim/ring_queue.hpp"
#include "sim/time.hpp"

namespace quicsteps::sim {
namespace {

using namespace quicsteps::sim::literals;

TEST(Time, DurationFactoriesAgree) {
  EXPECT_EQ(Duration::micros(1).ns(), 1000);
  EXPECT_EQ(Duration::millis(1).ns(), 1'000'000);
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::seconds_f(0.5).ns(), 500'000'000);
  EXPECT_EQ((12_us).ns(), 12'000);
}

TEST(Time, ArithmeticRoundTrips) {
  const Time t = Time::zero() + 5_ms;
  EXPECT_EQ((t - Time::zero()).ms(), 5);
  EXPECT_EQ((t + 1_ms - t).us(), 1000);
  EXPECT_LT(Time::zero(), t);
}

TEST(Time, InfiniteSentinelSaturatesInsteadOfWrapping) {
  // Regression: Time::infinite() + d used to wrap INT64_MAX (signed
  // overflow, UB) into a huge negative instant; now both types saturate
  // at the sentinel.
  EXPECT_TRUE((Time::infinite() + 1_ms).is_infinite());
  EXPECT_TRUE((Duration::infinite() + Duration::seconds(3)).is_infinite());
  EXPECT_TRUE((Duration::seconds(3) + Duration::infinite()).is_infinite());

  Time t = Time::infinite();
  t += 250_us;
  EXPECT_TRUE(t.is_infinite());

  Duration d = Duration::infinite();
  d += 1_ns;
  EXPECT_TRUE(d.is_infinite());

  // Plain overflow past the sentinel saturates too (any sum beyond
  // INT64_MAX *is* "never"), and stays ordered against finite values.
  const Duration almost = Duration::infinite() - 1_ns;
  EXPECT_TRUE((almost + 2_ns).is_infinite());
  EXPECT_LT(Time::zero() + 5_ms, Time::infinite() + 1_ms);

  // Finite arithmetic is untouched.
  EXPECT_EQ((1_ms + 2_ms).us(), 3000);
  Time u = Time::zero();
  u += 7_ms;
  EXPECT_EQ((u - Time::zero()).ms(), 7);
}

TEST(Time, DoubleConversionsSaturateOutOfRange) {
  // Regression: seconds_f(inf) cast inf to int64 (UB), e.g. a run deadline
  // computed for a zero bottleneck rate. Out-of-range spans and NaN now
  // saturate to the sentinels.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(Duration::seconds_f(inf).is_infinite());
  EXPECT_TRUE(Duration::seconds_f(1e300).is_infinite());
  EXPECT_TRUE(Duration::seconds_f(9.3e9).is_infinite());  // > INT64_MAX ns
  EXPECT_TRUE(
      Duration::seconds_f(std::numeric_limits<double>::quiet_NaN())
          .is_infinite());
  EXPECT_EQ(Duration::seconds_f(-inf), -Duration::infinite());
  EXPECT_EQ(Duration::seconds_f(-1e300), -Duration::infinite());
  // The largest spans that fit still convert.
  EXPECT_EQ(Duration::seconds_f(9.2e9).ns(), 9'200'000'000'000'000'000);
  EXPECT_EQ(Duration::seconds_f(-9.2e9).ns(), -9'200'000'000'000'000'000);
  EXPECT_EQ(Duration::seconds_f(-0.25).ns(), -250'000'000);
  // Scaling saturates the same way (a PTO backoff doubling past int64).
  EXPECT_TRUE((Duration::infinite() * 2).is_infinite());
  EXPECT_TRUE((Duration::seconds(1) * 1e12).is_infinite());
  EXPECT_EQ(Duration::seconds(1) * -1e12, -Duration::infinite());
  EXPECT_EQ((Duration::millis(3) * 1.5).us(), 4500);
}

TEST(Time, DurationRatio) {
  EXPECT_DOUBLE_EQ(10_ms / 2_ms, 5.0);
  EXPECT_DOUBLE_EQ((1_s * 0.25).to_seconds(), 0.25);
}

TEST(Time, FormattingPicksUnits) {
  EXPECT_EQ((12_us).to_string(), "12.000us");
  EXPECT_EQ((3_ms).to_string(), "3.000ms");
  EXPECT_EQ(Duration::infinite().to_string(), "inf");
}

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(Time::zero() + 3_ms, [&] { order.push_back(3); });
  loop.schedule_at(Time::zero() + 1_ms, [&] { order.push_back(1); });
  loop.schedule_at(Time::zero() + 2_ms, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Time::zero() + 3_ms);
}

TEST(EventLoop, SameInstantRunsInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(Time::zero() + 1_ms, [&, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, PastSchedulesClampToNow) {
  EventLoop loop;
  bool ran = false;
  loop.schedule_at(Time::zero() + 5_ms, [&] {
    loop.schedule_at(Time::zero() + 1_ms, [&] {
      ran = true;
      EXPECT_EQ(loop.now(), Time::zero() + 5_ms);
    });
  });
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  auto handle = loop.schedule_after(1_ms, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, CancelIsIdempotentAndSafeAfterRun) {
  EventLoop loop;
  auto handle = loop.schedule_after(1_ms, [] {});
  loop.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash or corrupt counts
  handle.cancel();
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(Time::zero() + 1_ms, [&] { ++count; });
  loop.schedule_at(Time::zero() + 10_ms, [&] { ++count; });
  loop.run_until(Time::zero() + 5_ms);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), Time::zero() + 5_ms);
  EXPECT_EQ(loop.pending_count(), 1u);
}

TEST(EventLoop, SelfReschedulingEventTerminatesWithRunUntil) {
  EventLoop loop;
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    loop.schedule_after(1_ms, tick);
  };
  loop.schedule_after(1_ms, tick);
  loop.run_until(Time::zero() + 10_ms);
  EXPECT_EQ(fires, 10);
}

TEST(EventLoop, NextEventTimeSkipsCancelled) {
  EventLoop loop;
  auto a = loop.schedule_after(1_ms, [] {});
  loop.schedule_after(2_ms, [] {});
  a.cancel();
  EXPECT_EQ(loop.next_event_time(), Time::zero() + 2_ms);
}

TEST(EventLoop, SlabStressScheduleCancelReschedule) {
  // Hammer the slot slab: schedule 100k events across a wide horizon (both
  // wheel and overflow paths), cancel every third one, reschedule into the
  // freed slots, then run to completion. Exercises slot reuse, generation
  // bumps, and tombstone pruning at scale.
  EventLoop loop;
  constexpr int kEvents = 100'000;
  std::vector<EventHandle> handles;
  handles.reserve(kEvents);
  std::int64_t fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    // Spread from microseconds to seconds so some land in the calendar
    // horizon and some in the far-future overflow structure.
    auto delay = Duration::micros(1 + (static_cast<std::int64_t>(i) * 37) %
                                          2'000'000);
    handles.push_back(loop.schedule_after(delay, [&] { ++fired; }));
  }
  int cancelled = 0;
  for (int i = 0; i < kEvents; i += 3) {
    handles[static_cast<std::size_t>(i)].cancel();
    ++cancelled;
  }
  EXPECT_EQ(loop.pending_count(),
            static_cast<std::size_t>(kEvents - cancelled));
  // Refill the freed slots; the old handles must stay inert.
  for (int i = 0; i < cancelled; ++i) {
    loop.schedule_after(Duration::micros(10 + i), [&] { ++fired; });
  }
  loop.run();
  EXPECT_EQ(fired, kEvents);  // survivors + refills, none double-fired
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, StaleHandlesFromReusedSlotsAreInert) {
  // A handle whose slot was freed and re-acquired by a newer event must not
  // cancel (or otherwise affect) the new occupant.
  EventLoop loop;
  int first = 0, second = 0;
  auto a = loop.schedule_after(1_ms, [&] { ++first; });
  a.cancel();  // frees the slot
  // Likely reuses a's slot with a bumped generation.
  loop.schedule_after(2_ms, [&] { ++second; });
  EXPECT_FALSE(a.pending());
  a.cancel();  // stale: must be a no-op against the new occupant
  loop.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);

  // Same pattern after the event RAN (not just cancelled).
  int third = 0, fourth = 0;
  auto b = loop.schedule_after(1_ms, [&] { ++third; });
  loop.run();
  EXPECT_EQ(third, 1);
  loop.schedule_after(1_ms, [&] { ++fourth; });
  EXPECT_FALSE(b.pending());
  b.cancel();  // stale after run: also a no-op
  loop.run();
  EXPECT_EQ(fourth, 1);
}

// ------------------------------------- differential test vs a reference

/// Drives one EventLoop and a reference model — a std::set ordered on
/// (time, schedule sequence) — with the same random schedule, and records
/// what each says runs next. Events are closures, cancellable drain
/// records or slotless drain records; all of them may schedule or cancel
/// more work from inside their callbacks.
class DifferentialHarness {
 public:
  using Key = std::tuple<std::int64_t, std::uint64_t, std::uint32_t>;
  using Step = std::pair<std::int64_t, std::uint32_t>;  // (time ns, id)

  explicit DifferentialHarness(std::uint64_t seed) : rng_(seed) {
    ch_ = loop_.register_drain(EventClass::kDelay, &DifferentialHarness::drain,
                               this);
  }

  EventLoop& loop() { return loop_; }
  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }
  void set_budget(int ops) { budget_ = ops; }
  int budget() const { return budget_; }
  std::size_t model_size() const { return model_.size(); }
  const std::vector<Step>& executed() const { return executed_; }
  const std::vector<Step>& expected() const { return expected_; }

  Time model_next_time() const {
    return model_.empty() ? Time::infinite()
                          : Time::from_ns(std::get<0>(*model_.begin()));
  }

  /// Issues up to `n` random schedule/cancel operations, each spending one
  /// unit of budget.
  void random_ops(int n) {
    for (int i = 0; i < n && budget_ > 0; ++i, --budget_) {
      const std::uint64_t r = draw(100);
      if (r < 35) {
        schedule(Kind::kClosure);
      } else if (r < 60) {
        schedule(Kind::kDrain);
      } else if (r < 85) {
        schedule(Kind::kPost);
      } else {
        cancel_one();
      }
    }
  }

  /// Times the deadline-driven steps use: mostly inside the current or the
  /// next few buckets (never bucket-aligned on purpose), sometimes far out.
  std::int64_t random_deadline() {
    const std::int64_t now = loop_.now().ns();
    switch (draw(4)) {
      case 0:
        return now + static_cast<std::int64_t>(draw(8192));
      case 1:
        return now + static_cast<std::int64_t>(draw(60'000));
      case 2:
        return now + static_cast<std::int64_t>(draw(3'000'000));
      default:
        return now + static_cast<std::int64_t>(draw(40'000'000));
    }
  }

 private:
  enum class Kind { kClosure, kDrain, kPost };
  struct Entry {
    Key key;
    EventHandle handle;  // inert for slotless drain records
    bool cancellable = false;
    bool done = false;
  };

  static void drain(void* ctx, std::uint32_t id) {
    static_cast<DifferentialHarness*>(ctx)->on_run(id);
  }

  /// A target time covering ties, past times (clamped to now), the bucket
  /// holding now, the near wheel and the overflow beyond the horizon.
  std::int64_t random_time() {
    const std::int64_t now = loop_.now().ns();
    switch (draw(10)) {
      case 0:
        return now;  // same-instant tie with everything due now
      case 1:
        return now - static_cast<std::int64_t>(draw(5000));
      case 2:
      case 3:
        return now + static_cast<std::int64_t>(draw(8192));
      case 4: {
        // Tie with a pending record: the earliest few are in the bucket
        // being drained.
        if (model_.empty()) return now;
        auto it = model_.begin();
        for (std::uint64_t k = draw(4); k > 0 && std::next(it) != model_.end();
             --k) {
          ++it;
        }
        return std::get<0>(*it);
      }
      case 5:  // anywhere in the bucket holding now, ahead of or behind it
        return (now & ~std::int64_t{8191}) +
               static_cast<std::int64_t>(draw(8192));
      case 6:
      case 7:
        return now + static_cast<std::int64_t>(draw(200'000));
      case 8:
        return now + static_cast<std::int64_t>(draw(16'000'000));
      default:  // past the ~16.8 ms wheel horizon
        return now + 16'800'000 +
               static_cast<std::int64_t>(draw(50'000'000));
    }
  }

  void schedule(Kind kind) {
    const std::int64_t at = std::max(random_time(), loop_.now().ns());
    const auto id = static_cast<std::uint32_t>(entries_.size());
    Entry entry;
    entry.key = Key{at, next_seq_++, id};
    const Time t = Time::from_ns(at);
    switch (kind) {
      case Kind::kClosure:
        entry.handle = loop_.schedule_at(t, [this, id] { on_run(id); });
        entry.cancellable = true;
        break;
      case Kind::kDrain:
        entry.handle = loop_.schedule_drain_at(t, ch_, id);
        entry.cancellable = true;
        break;
      case Kind::kPost:
        loop_.post_drain_at(t, ch_, id);
        break;
    }
    model_.insert(entry.key);
    entries_.push_back(entry);
  }

  /// Cancels a pending record, most often one of the earliest (those sit
  /// in the already-sorted active bucket), sometimes any entry at all —
  /// including ones that already ran or were cancelled (a no-op).
  void cancel_one() {
    if (entries_.empty()) return;
    std::uint32_t id;
    if (!model_.empty() && draw(2) == 0) {
      auto it = model_.begin();
      for (std::uint64_t k = draw(8); k > 0 && std::next(it) != model_.end();
           --k) {
        ++it;
      }
      id = std::get<2>(*it);
    } else {
      id = static_cast<std::uint32_t>(draw(entries_.size()));
    }
    Entry& entry = entries_[id];
    if (!entry.cancellable) return;
    EXPECT_EQ(entry.handle.pending(), !entry.done) << "id " << id;
    entry.handle.cancel();
    if (!entry.done) {
      entry.done = true;
      model_.erase(entry.key);
    }
  }

  void on_run(std::uint32_t id) {
    executed_.emplace_back(loop_.now().ns(), id);
    if (model_.empty()) {
      expected_.emplace_back(-1, id);
    } else {
      expected_.emplace_back(std::get<0>(*model_.begin()),
                             std::get<2>(*model_.begin()));
    }
    Entry& entry = entries_[id];
    EXPECT_FALSE(entry.done) << "id " << id << " ran twice or after cancel";
    entry.done = true;
    model_.erase(entry.key);
    // Callbacks reschedule and cancel too, so inserts land in the bucket
    // that is being drained while the train loop holds it.
    if (budget_ > 0 && draw(3) != 0) random_ops(1 + static_cast<int>(draw(3)));
    EXPECT_EQ(loop_.next_event_time(), model_next_time());
  }

  EventLoop loop_;
  std::mt19937_64 rng_;
  DrainId ch_ = 0;
  std::vector<Entry> entries_;
  std::set<Key> model_;
  std::uint64_t next_seq_ = 0;
  int budget_ = 0;
  std::vector<Step> executed_;
  std::vector<Step> expected_;
};

TEST(EventLoop, MatchesReferenceModelOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    DifferentialHarness h(seed);
    EventLoop& loop = h.loop();
    // Stepwise phase: outside schedules and cancels interleave with
    // run_one and run_until (deadlines mostly inside a bucket).
    h.set_budget(6000);
    h.random_ops(300);
    for (int step = 0; step < 200'000; ++step) {
      ASSERT_EQ(loop.next_event_time(), h.model_next_time());
      ASSERT_EQ(loop.pending_count(), h.model_size());
      if (h.model_size() == 0 && h.budget() == 0) break;
      const std::uint64_t r = h.draw(10);
      if (r < 3) {
        h.random_ops(1 + static_cast<int>(h.draw(4)));
      } else if (r < 6) {
        const bool any = h.model_size() > 0;
        EXPECT_EQ(loop.run_one(), any);
      } else {
        const std::int64_t deadline = h.random_deadline();
        loop.run_until(Time::from_ns(deadline));
        EXPECT_EQ(loop.now(), Time::from_ns(deadline));
        EXPECT_GT(h.model_next_time(), Time::from_ns(deadline));
      }
    }
    // Free-running phase: run() with callbacks still scheduling.
    h.set_budget(3000);
    loop.run();
    EXPECT_TRUE(loop.empty());
    EXPECT_EQ(h.model_size(), 0u);
    EXPECT_EQ(h.executed(), h.expected());
    EXPECT_GT(h.executed().size(), 4000u);
    if constexpr (kLoopProfilingEnabled) {
      EXPECT_GT(loop.stats().overflow_scheduled, 0u);
      EXPECT_GT(loop.stats().drain_batched, 0u);
    }
  }
}

// ------------------------------------------------------------- RingQueue

TEST(RingQueue, MatchesDequeOnRandomPushPop) {
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    RingQueue<std::uint64_t> ring;
    std::deque<std::uint64_t> model;
    EXPECT_EQ(ring.capacity(), 0u);  // nothing allocated until first push
    for (std::uint64_t op = 0; op < 20'000; ++op) {
      // Drift between growing and shrinking phases so the ring wraps, fills
      // and grows while wrapped, and drains to empty.
      const bool grow_phase = (op / 500) % 2 == 0;
      const std::int64_t kind = rng.uniform(0, 9);
      if (kind < (grow_phase ? 6 : 3)) {
        if (rng.chance(0.5)) {
          ring.push_back(op);
          model.push_back(op);
        } else {
          ring.push_front(op);
          model.push_front(op);
        }
      } else if (!model.empty()) {
        if (rng.chance(0.7)) {
          ASSERT_EQ(ring.front(), model.front());
          ring.pop_front();
          model.pop_front();
        } else {
          ASSERT_EQ(ring.back(), model.back());
          ring.pop_back();
          model.pop_back();
        }
      }
      ASSERT_EQ(ring.size(), model.size()) << seed << "/" << op;
      ASSERT_EQ(ring.empty(), model.empty());
      if (op % 97 == 0) {
        ASSERT_TRUE(std::equal(ring.begin(), ring.end(), model.begin(),
                               model.end()));
        for (std::size_t i = 0; i < model.size(); ++i) {
          ASSERT_EQ(ring[i], model[i]);
        }
      }
    }
    // Capacity is a power of two at the high-water mark, never shrunk.
    EXPECT_EQ(ring.capacity() & (ring.capacity() - 1), 0u);
  }
}

TEST(RingQueue, GrowsWhileWrappedKeepingOrder) {
  RingQueue<int> ring;
  ring.push_back(0);
  const int cap = static_cast<int>(ring.capacity());
  for (int i = 1; i < cap; ++i) ring.push_back(i);         // full
  for (int i = 0; i < cap - 3; ++i) ring.pop_front();      // head near the end
  for (int i = cap; i < 2 * cap - 3; ++i) ring.push_back(i);  // wraps, full
  ASSERT_EQ(ring.capacity(), static_cast<std::size_t>(cap));
  ring.push_front(cap - 4);  // full and wrapped: grows
  ring.push_back(2 * cap - 3);
  EXPECT_EQ(ring.capacity(), static_cast<std::size_t>(2 * cap));
  std::vector<int> expect(static_cast<std::size_t>(cap + 2));
  std::iota(expect.begin(), expect.end(), cap - 4);
  EXPECT_EQ(std::vector<int>(ring.begin(), ring.end()), expect);
}

TEST(RingQueue, SortsThroughItsIteratorsAcrossTheWrap) {
  RingQueue<int> ring;
  ring.push_back(0);
  const int cap = static_cast<int>(ring.capacity());
  for (int i = 1; i < cap; ++i) ring.push_back(100 + i);
  for (int i = 0; i < cap - 2; ++i) ring.pop_front();  // keeps 2 at the end
  for (int v : {9, 3, 7, 1, 8}) ring.push_back(v);      // wraps
  ASSERT_EQ(ring.capacity(), static_cast<std::size_t>(cap));
  std::sort(ring.begin(), ring.end());
  EXPECT_EQ(std::vector<int>(ring.begin(), ring.end()),
            (std::vector<int>{1, 3, 7, 8, 9, 100 + cap - 2, 100 + cap - 1}));
}

TEST(RingQueue, PopReleasesHeldSharedPtrs) {
  auto held = std::make_shared<int>(7);
  RingQueue<std::shared_ptr<int>> ring;
  for (int i = 0; i < 20; ++i) ring.push_back(held);  // grows once at least
  EXPECT_EQ(held.use_count(), 21);
  ring.pop_front();
  ring.pop_back();
  EXPECT_EQ(held.use_count(), 19);  // released on pop, not on slot reuse
  RingQueue<std::shared_ptr<int>> copy = ring;
  EXPECT_EQ(held.use_count(), 37);
  RingQueue<std::shared_ptr<int>> moved = std::move(copy);
  EXPECT_EQ(held.use_count(), 37);
  moved.clear();
  EXPECT_EQ(held.use_count(), 19);
  while (!ring.empty()) ring.pop_front();
  EXPECT_EQ(held.use_count(), 1);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1'000'000), b.uniform(0, 1'000'000));
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1 << 30) == b.uniform(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NormalDurationRespectsFloor) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto d = rng.normal_duration(10_us, 100_us, Duration::zero());
    EXPECT_GE(d, Duration::zero());
  }
}

TEST(Rng, ExponentialDurationRespectsCap) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto d = rng.exponential_duration(50_us, 200_us);
    EXPECT_GE(d, Duration::zero());
    EXPECT_LE(d, 200_us);
  }
}

TEST(Rng, ExponentialMeanIsRoughlyRight) {
  Rng rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential_duration(100_us).to_micros();
  }
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

}  // namespace
}  // namespace quicsteps::sim
