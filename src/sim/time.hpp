// Strong types for simulated time.
//
// All simulation time is kept as signed 64-bit nanosecond counts. Two distinct
// types are used so that absolute instants (Time) and spans (Duration) cannot
// be mixed up: Time - Time = Duration, Time + Duration = Time, and so on.
// Both types are trivially copyable and fit in a register.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace quicsteps::sim {

namespace detail {
/// Additions involving the infinite sentinel (INT64_MAX) must stay at the
/// sentinel instead of wrapping — Time::infinite() + rtt is "never", not a
/// huge negative instant. Plain overflow saturates the same way (any sum
/// past the sentinel IS the sentinel), and underflow clamps at INT64_MIN,
/// so the operation is UB-free for every input.
constexpr std::int64_t saturating_add_ns(std::int64_t a, std::int64_t b) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  if (b > 0 && a > kMax - b) return kMax;
  if (b < 0 && a < kMin - b) return kMin;
  return a + b;
}

/// Truncates a double nanosecond count to int64, saturating at
/// +/-INT64_MAX (the +/-infinite sentinels) instead of overflowing the
/// cast; NaN maps to +INT64_MAX.
constexpr std::int64_t saturating_ns(double ns) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (ns >= kLimit || ns != ns) return kMax;
  if (ns <= -kLimit) return -kMax;
  return static_cast<std::int64_t>(ns);
}
}  // namespace detail

/// A span of simulated time. Nanosecond resolution, may be negative.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration nanos(std::int64_t ns) { return Duration(ns); }
  static constexpr Duration micros(std::int64_t us) {
    return Duration(us * 1'000);
  }
  static constexpr Duration millis(std::int64_t ms) {
    return Duration(ms * 1'000'000);
  }
  static constexpr Duration seconds(std::int64_t s) {
    return Duration(s * 1'000'000'000);
  }
  /// Fractional seconds, rounded to the nearest nanosecond. Spans beyond
  /// the int64 range (and NaN) saturate to +/-infinite().
  static constexpr Duration seconds_f(double s) {
    return Duration(detail::saturating_ns(s * 1e9 + (s >= 0 ? 0.5 : -0.5)));
  }
  static constexpr Duration zero() { return Duration(0); }
  static constexpr Duration infinite() {
    return Duration(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr std::int64_t us() const { return ns_ / 1'000; }
  constexpr std::int64_t ms() const { return ns_ / 1'000'000; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double to_millis() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double to_micros() const { return static_cast<double>(ns_) / 1e3; }

  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_infinite() const {
    return ns_ == std::numeric_limits<std::int64_t>::max();
  }

  /// Saturates at the infinite sentinel: infinite() + x == infinite().
  constexpr Duration operator+(Duration o) const {
    return Duration(detail::saturating_add_ns(ns_, o.ns_));
  }
  constexpr Duration operator-(Duration o) const { return Duration(ns_ - o.ns_); }
  constexpr Duration operator-() const { return Duration(-ns_); }
  /// Scaling: one overload only (int promotes to double; the mantissa
  /// covers every plausible simulated duration exactly). Saturates like
  /// seconds_f, so an exponential backoff tops out at infinite().
  constexpr Duration operator*(double k) const {
    return Duration(detail::saturating_ns(static_cast<double>(ns_) * k));
  }
  constexpr Duration operator/(std::int64_t k) const { return Duration(ns_ / k); }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }
  Duration& operator+=(Duration o) {
    ns_ = detail::saturating_add_ns(ns_, o.ns_);
    return *this;
  }
  Duration& operator-=(Duration o) {
    ns_ -= o.ns_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  /// "12.3ms"-style rendering for logs and reports.
  std::string to_string() const;

  /// Exact microsecond rendering ("1234.567", always three fractional
  /// digits) for qlog/trace output, where ostream's 6-significant-digit
  /// double default would destroy the sub-millisecond pacing signal.
  std::string to_micros_string() const;

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An absolute instant on the simulated clock (ns since simulation start).
class Time {
 public:
  constexpr Time() = default;

  static constexpr Time from_ns(std::int64_t ns) { return Time(ns); }
  static constexpr Time zero() { return Time(0); }
  static constexpr Time infinite() {
    return Time(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double to_millis() const { return static_cast<double>(ns_) / 1e6; }
  constexpr bool is_infinite() const {
    return ns_ == std::numeric_limits<std::int64_t>::max();
  }

  /// Saturates at the infinite sentinel: infinite() + d == infinite().
  constexpr Time operator+(Duration d) const {
    return Time(detail::saturating_add_ns(ns_, d.ns()));
  }
  constexpr Time operator-(Duration d) const { return Time(ns_ - d.ns()); }
  constexpr Duration operator-(Time o) const {
    return Duration::nanos(ns_ - o.ns_);
  }
  Time& operator+=(Duration d) {
    ns_ = detail::saturating_add_ns(ns_, d.ns());
    return *this;
  }
  constexpr auto operator<=>(const Time&) const = default;

  std::string to_string() const;

  /// Exact microsecond rendering ("1234.567"); see Duration.
  std::string to_micros_string() const;

 private:
  constexpr explicit Time(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

constexpr Time max(Time a, Time b) { return a < b ? b : a; }
constexpr Time min(Time a, Time b) { return a < b ? a : b; }
constexpr Duration max(Duration a, Duration b) { return a < b ? b : a; }
constexpr Duration min(Duration a, Duration b) { return a < b ? a : b; }

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) {
  return Duration::nanos(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_us(unsigned long long v) {
  return Duration::micros(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_ms(unsigned long long v) {
  return Duration::millis(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_s(unsigned long long v) {
  return Duration::seconds(static_cast<std::int64_t>(v));
}
}  // namespace literals

}  // namespace quicsteps::sim
