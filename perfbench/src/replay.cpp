#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "alloc_count.hpp"
#include "kernel/os_model.hpp"
#include "kernel/qdisc_etf.hpp"
#include "kernel/qdisc_fifo.hpp"
#include "kernel/qdisc_fq.hpp"
#include "kernel/qdisc_fq_codel.hpp"
#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "quic/sent_packet_map.hpp"
#include "sim/random.hpp"

namespace perfbench {

namespace qs = quicsteps;
using qs::sim::Duration;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kRepetitions = 3;

/// Deterministic xorshift64 for replay inputs.
struct XorShift {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// Runs `body` (which returns the op count it performed) kRepetitions
/// times and keeps the fastest per-op time; allocations are per op of the
/// last repetition (they repeat exactly).
ReplayCost best_of(const std::function<std::int64_t()>& body) {
  ReplayCost cost;
  for (int r = 0; r < kRepetitions; ++r) {
    const AllocCount a0 = alloc_snapshot();
    const auto t0 = Clock::now();
    const std::int64_t ops = body();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    const AllocCount used = alloc_snapshot() - a0;
    if (ops <= 0) continue;
    const double per_op = ns / static_cast<double>(ops);
    if (cost.ops == 0 || per_op < cost.ns_per_op) cost.ns_per_op = per_op;
    cost.ops = ops;
    cost.allocs_per_op =
        static_cast<double>(used.calls) / static_cast<double>(ops);
  }
  return cost;
}

class NullSink final : public qs::net::PacketSink {
 public:
  void deliver(qs::net::Packet pkt) override {
    ++packets;
    bytes += pkt.size_bytes;
  }
  std::int64_t packets = 0;
  std::int64_t bytes = 0;
};

/// Hold model: every executed event schedules its successor.
class HoldModel {
 public:
  HoldModel(qs::sim::EventLoop& loop, std::int64_t mean_delay_ns,
            double cancels_per_event, std::vector<qs::sim::EventClass> mix,
            std::int64_t successors)
      : loop_(loop),
        mean_delay_ns_(std::max<std::int64_t>(1, mean_delay_ns)),
        cancel_rate_(cancels_per_event),
        mix_(std::move(mix)),
        successors_(successors) {}

  void schedule() {
    loop_.schedule_after(delay(), next_class(), [this] { fire(); });
  }

 private:
  void fire() {
    if (successors_ > 0) {
      --successors_;
      schedule();
    }
    cancel_credit_ += cancel_rate_;
    while (cancel_credit_ >= 1.0) {
      cancel_credit_ -= 1.0;
      loop_.schedule_after(delay(), qs::sim::EventClass::kTimer, [] {})
          .cancel();
    }
  }
  Duration delay() {
    return Duration::nanos(
        1 + static_cast<std::int64_t>(rng_.next() %
                                      static_cast<std::uint64_t>(
                                          2 * mean_delay_ns_)));
  }
  qs::sim::EventClass next_class() {
    return mix_[static_cast<std::size_t>(rng_.next() % mix_.size())];
  }

  qs::sim::EventLoop& loop_;
  std::int64_t mean_delay_ns_;
  double cancel_rate_;
  double cancel_credit_ = 0.0;
  std::vector<qs::sim::EventClass> mix_;
  std::int64_t successors_;
  XorShift rng_;
};

}  // namespace

ReplayCost replay_event_loop(
    std::int64_t depth, std::int64_t mean_delay_ns, double cancels_per_event,
    const std::array<std::uint64_t, qs::sim::kEventClassCount>& class_mix) {
  // A 1024-entry class table in proportion to the workload's executions.
  std::uint64_t total = 0;
  for (std::uint64_t c : class_mix) total += c;
  std::vector<qs::sim::EventClass> mix;
  for (std::size_t c = 0; c < class_mix.size() && total > 0; ++c) {
    const std::size_t share =
        static_cast<std::size_t>(class_mix[c] * 1024 / total);
    mix.insert(mix.end(), share, static_cast<qs::sim::EventClass>(c));
  }
  if (mix.empty()) mix.push_back(qs::sim::EventClass::kGeneral);
  depth = std::clamp<std::int64_t>(depth, 1, 1'000'000);
  const std::int64_t successors = std::max<std::int64_t>(200'000, 4 * depth);

  return best_of([&]() -> std::int64_t {
    qs::sim::EventLoop loop;
    HoldModel model(loop, mean_delay_ns, cancels_per_event, mix, successors);
    for (std::int64_t i = 0; i < depth; ++i) model.schedule();
    return static_cast<std::int64_t>(loop.run());
  });
}

ReplayCost replay_sent_map(std::int64_t depth) {
  depth = std::clamp<std::int64_t>(depth, 1, 1'000'000);
  constexpr std::int64_t kOps = 400'000;
  return best_of([&]() -> std::int64_t {
    qs::quic::SentPacketMap map;
    std::uint64_t pn = 0;
    std::uint64_t oldest = 0;
    auto add = [&] {
      qs::quic::SentPacket pkt;
      pkt.pn = pn;
      pkt.bytes = 1200;
      pkt.time_sent = qs::sim::Time::from_ns(static_cast<std::int64_t>(pn));
      pkt.stream_offset = static_cast<std::int64_t>(pn) * 1200;
      pkt.stream_length = 1200;
      map.add(pkt);
      ++pn;
    };
    for (std::int64_t i = 0; i < depth; ++i) add();
    std::vector<qs::net::AckBlock> blocks(1);
    for (std::int64_t i = 0; i < kOps; ++i) {
      add();
      if (pn - oldest >= static_cast<std::uint64_t>(depth) + 2) {
        blocks[0] = {oldest, oldest + 1};
        map.on_ack_blocks(blocks);
        oldest += 2;
      }
    }
    return kOps;
  });
}

ReplayCost replay_qdisc(const std::string& name, std::int64_t backlog,
                        std::int64_t flows, std::int64_t packet_bytes,
                        const qs::framework::TopologyConfig& topology) {
  backlog = std::clamp<std::int64_t>(backlog, 1, 10'000);
  flows = std::clamp<std::int64_t>(flows, 1, 1'000'000);
  constexpr std::int64_t kPackets = 200'000;
  return best_of([&]() -> std::int64_t {
    qs::sim::EventLoop loop;
    qs::kernel::OsModel os(topology.server_os, qs::sim::Rng(1));
    NullSink sink;
    std::unique_ptr<qs::kernel::Qdisc> qdisc;
    if (name == "fq") {
      qdisc = std::make_unique<qs::kernel::FqQdisc>(
          loop, qs::kernel::FqQdisc::Config{}, os, &sink);
    } else if (name == "fq_codel") {
      qs::kernel::FqCodelQdisc::Config cfg;
      cfg.drain_rate = topology.server_nic_rate;
      qdisc = std::make_unique<qs::kernel::FqCodelQdisc>(loop, cfg, &sink);
    } else if (name == "etf") {
      qdisc = std::make_unique<qs::kernel::EtfQdisc>(loop, topology.etf, os,
                                                     &sink);
    } else if (name == "pfifo_fast") {
      qdisc = std::make_unique<qs::kernel::FifoQdisc>(
          loop, qs::kernel::FifoQdisc::Config{}, &sink);
    } else {
      return 0;
    }
    std::int64_t sent = 0;
    while (sent < kPackets) {
      for (std::int64_t b = 0; b < backlog; ++b, ++sent) {
        qs::net::Packet pkt;
        pkt.id = static_cast<std::uint64_t>(sent) + 1;
        pkt.flow = static_cast<std::uint32_t>(10 + sent % flows);
        pkt.size_bytes = packet_bytes;
        pkt.packet_number = static_cast<std::uint64_t>(sent);
        pkt.has_txtime = true;
        pkt.txtime = loop.now();
        qdisc->deliver(std::move(pkt));
      }
      loop.run();
    }
    return sent;
  });
}

ReplayCost replay_flow_table(std::int64_t flows, double train_length) {
  flows = std::clamp<std::int64_t>(flows, 1, 1'000'000);
  const std::int64_t train =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(train_length + 0.5));
  constexpr std::int64_t kLookups = 1'000'000;
  NullSink sink;
  qs::net::FlowTableSink table;
  table.begin_bulk(static_cast<std::size_t>(flows));
  for (std::int64_t i = 0; i < flows; ++i) {
    table.add_route(static_cast<std::uint32_t>(10 + i), &sink);
  }
  table.finish_bulk();
  return best_of([&]() -> std::int64_t {
    XorShift rng;
    qs::net::Packet pkt;
    for (std::int64_t i = 0; i < kLookups;) {
      pkt.flow = static_cast<std::uint32_t>(
          10 + rng.next() % static_cast<std::uint64_t>(flows));
      for (std::int64_t t = 0; t < train && i < kLookups; ++t, ++i) {
        table.deliver(pkt);
      }
    }
    return kLookups;
  });
}

}  // namespace perfbench
