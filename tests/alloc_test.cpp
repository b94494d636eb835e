// The queue path allocates nothing in steady state (DESIGN.md §17).
//
// This binary replaces the global operator new with a counting one. Each
// test hand-wires one flow over the paper topology (the same pieces
// framework::Network composes), runs it until the transfer is in steady
// state, then counts every heap allocation while 10,000 more wire packets
// pass through the qdisc under test, the socket's GSO path and the NIC,
// the bottleneck, the client's receiver (GRO or per-datagram) and the
// sender's ACK handling. The count must be zero: every queue on the path
// reuses the capacity it reached during the warm-up.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "framework/endpoint.hpp"
#include "framework/network.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* allocate(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace quicsteps::framework {
namespace {

// Long enough that the run's high-water marks (pending events, slab
// slots, sent-packet slots) are all reached before the count starts. A
// container growing past its mark in the window is amortized growth, not
// a per-packet allocation; a longer warm-up is its fix.
constexpr std::int64_t kWarmupPackets = 60'000;
constexpr std::int64_t kMeasuredPackets = 10'000;

struct SteadyStateCount {
  std::uint64_t allocs = 0;
  std::int64_t packets = 0;  // wire packets in the counted window
};

/// Runs one flow of `config` over a hand-wired path and counts the heap
/// allocations made while the tap sees kMeasuredPackets wire packets after
/// a kWarmupPackets warm-up.
SteadyStateCount count_steady_state(ExperimentConfig config) {
  config.payload_bytes = 1ll << 30;  // never completes within the window
  config.record_cwnd_trace = false;
  sim::EventLoop loop;
  sim::Rng rng(config.seed);
  kernel::OsModel server_os(config.topology.server_os, rng.fork(1));
  BottleneckPath path(loop, config.topology, rng, server_os);
  SenderPath sender(loop, config.topology, server_os, path.nic_wire());
  RunResult live;
  std::unique_ptr<FlowEndpoint> endpoint =
      make_flow_endpoint(loop, server_os, config, 1, config.seed,
                         sender.egress(), path.ack_ingress(), live);
  endpoint->set_gso_pool(path.slab());
  path.register_flow(1, &endpoint->data_ingress(), &endpoint->ack_ingress());

  std::int64_t wire_packets = 0;
  path.tap().set_retain_capture(false);
  path.tap().set_on_packet(
      [&wire_packets](const net::Packet&) { ++wire_packets; });
  endpoint->start();

  auto run_until_packets = [&](std::int64_t target) {
    while (wire_packets < target && !loop.empty()) {
      loop.run_until(loop.now() + sim::Duration::millis(1));
    }
  };
  run_until_packets(kWarmupPackets);
  const std::int64_t start = wire_packets;
  g_allocs.store(0);
  g_counting.store(true);
  run_until_packets(start + kMeasuredPackets);
  g_counting.store(false);
  return {g_allocs.load(), wire_packets - start};
}

ExperimentConfig flow(StackKind stack, QdiscKind qdisc,
                      kernel::GsoMode gso = kernel::GsoMode::kOff) {
  ExperimentConfig config;
  config.stack = stack;
  config.topology.server_qdisc = qdisc;
  config.gso = gso;
  return config;
}

void expect_allocation_free(const ExperimentConfig& config) {
  const SteadyStateCount count = count_steady_state(config);
  EXPECT_GE(count.packets, kMeasuredPackets);
  EXPECT_EQ(count.allocs, 0u) << "heap allocations in " << count.packets
                              << " steady-state wire packets";
}

// quiche batches ACKs for a drawn receive window (the pending-ACK queue)
// and writes straight into fq_codel.
TEST(SteadyStateAllocs, FqCodelWithPendingAckBatches) {
  expect_allocation_free(flow(StackKind::kQuiche, QdiscKind::kFqCodel));
}

TEST(SteadyStateAllocs, FqCodelWithGroReceive) {
  ExperimentConfig config = flow(StackKind::kQuicheSf, QdiscKind::kFqCodel);
  config.topology.client_gro_window = sim::Duration::micros(16);
  expect_allocation_free(config);
}

TEST(SteadyStateAllocs, EtfQdisc) {
  expect_allocation_free(flow(StackKind::kQuicheSf, QdiscKind::kEtf));
}

TEST(SteadyStateAllocs, GsoSendWithNicSegmentation) {
  expect_allocation_free(
      flow(StackKind::kQuicheSf, QdiscKind::kFq, kernel::GsoMode::kOn));
}

TEST(SteadyStateAllocs, PacedGsoSend) {
  expect_allocation_free(
      flow(StackKind::kQuicheSf, QdiscKind::kFq, kernel::GsoMode::kPaced));
}

TEST(SteadyStateAllocs, TcpSendAndAck) {
  expect_allocation_free(flow(StackKind::kTcpTls, QdiscKind::kFqCodel));
}

}  // namespace
}  // namespace quicsteps::framework
