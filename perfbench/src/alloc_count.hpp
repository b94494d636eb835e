// Counting global operator new for the benchmark binary. Every allocation
// the simulator makes goes through the replaced operators in
// alloc_count.cpp, so a snapshot difference around a call is the exact,
// deterministic number of heap allocations (and bytes requested) it made.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;

  AllocCount operator-(const AllocCount& o) const {
    return {calls - o.calls, bytes - o.bytes};
  }
  AllocCount& operator+=(const AllocCount& o) {
    calls += o.calls;
    bytes += o.bytes;
    return *this;
  }
};

/// Allocations made by the whole process so far.
AllocCount alloc_snapshot();

}  // namespace perfbench
