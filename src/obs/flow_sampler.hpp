// FlowSampler: deterministic, seed-keyed 1-in-N flow sampling.
//
// At fabric scale (10k flows) tracing every flow is the per-packet-
// overhead trap "QUIC is not Quick Enough over Fast Internet" warns
// about: unbounded span memory and a measurable hot-path tax. Sampling
// keeps the trace spine honest — a 1-in-N subset of flows is traced in
// full (complete pacer->delivery chains, so per-stage pacing error stays
// exact for the sampled population) and every other flow pays nothing.
//
// Determinism: whether a flow is sampled is a pure function of
// (seed, flow id) — a splitmix64-style avalanche over the pair, reduced
// mod N. No run state, no iteration order, no RNG stream consumed: the
// same config samples the same flows in serial and parallel runs, and
// adding flows never changes the verdict for existing ids
// (unlike `index % N == 0`, which reshuffles under insertion).
#pragma once

#include <cstdint>

namespace quicsteps::obs {

class FlowSampler {
 public:
  /// Samples everything (every <= 1 keeps all flows).
  FlowSampler() = default;

  FlowSampler(std::uint64_t seed, std::uint32_t every)
      : seed_(seed), every_(every == 0 ? 1 : every) {}

  /// True when `flow` is in the traced subset. O(1), allocation-free —
  /// cheap enough to sit on the shared-path publish filter.
  bool sampled(std::uint32_t flow) const {
    if (every_ <= 1) return true;
    return mix(seed_, flow) % every_ == 0;
  }

  /// The sampling period (1 = everything).
  std::uint32_t every() const { return every_; }

 private:
  /// splitmix64 finalizer over the (seed, flow) pair: full avalanche, so
  /// consecutive flow ids land in the sampled set independently.
  static std::uint64_t mix(std::uint64_t seed, std::uint32_t flow) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (flow + 1ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::uint64_t seed_ = 0;
  std::uint32_t every_ = 1;
};

}  // namespace quicsteps::obs
