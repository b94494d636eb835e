#include "calibrate.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_kernel() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  constexpr int kPending = 4096;
  constexpr int kSteps = 60000;
  constexpr std::size_t kMapCap = 256;
  const auto t0 = std::chrono::steady_clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::map<std::uint64_t, std::uint64_t> recent;
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < kPending; ++i) {
    heap.push({next() % 100000, static_cast<std::uint32_t>(i)});
  }
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    const Event e = heap.top();
    heap.pop();
    const std::uint64_t r = next();
    heap.push({e.first + 1 + r % 50000, e.second});
    recent[e.first ^ (r & 0xffff)] = r;
    if (recent.size() > kMapCap) recent.erase(recent.begin());
    acc += e.second;
  }
  g_sink = acc + recent.size();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
