// Flow-id dispatch: the receive-side demultiplexer of a shared path.
//
// When N senders share one bottleneck, every packet that pops out of the
// client-side receiver (and every ACK that comes back) must reach exactly
// the endpoint that owns its flow id. FlowTableSink is that switch: a
// sorted (flow -> sink) table. An id that matches no route is an audited
// error, not a silent misdelivery — a mis-tagged packet trips
// QUICSTEPS_AUDIT instead of corrupting another flow's transport state.
//
// At fabric scale the table is on the per-packet hot path twice (data and
// ACK directions), so lookups are a burst cache — packets arrive in
// per-flow trains, so the last hit usually answers — backed by a
// branchless binary search (conditional-move halving, no unpredictable
// branch per probe) when the train switches flows. Registration of 10k
// routes goes through the bulk builder (reserve, append, sort once)
// instead of 10k O(n) sorted inserts.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace quicsteps::net {

class FlowTableSink final : public PacketSink {
 public:
  /// Registers `sink` for packets tagged with `flow`. Registering the same
  /// flow id twice is an audited error (two endpoints would silently split
  /// one flow's packets). Outside a bulk build this keeps the table sorted
  /// with an O(n) insert — fine for the N<=8 paths; use the bulk builder
  /// for fabric-scale registration.
  void add_route(std::uint32_t flow, PacketSink* sink);

  /// Bulk registration: begin_bulk reserves for `expected` routes and
  /// switches add_route to O(1) appends; finish_bulk sorts once and audits
  /// duplicates. Lookups between the two calls are not allowed (the table
  /// is unsorted); nesting begin_bulk is an audited error.
  void begin_bulk(std::size_t expected);
  void finish_bulk();

  /// Routes by pkt.flow. No route trips QUICSTEPS_AUDIT (and drops the
  /// packet in audit-off builds).
  void deliver(Packet pkt) override;

  std::size_t route_count() const { return table_.size(); }

 private:
  PacketSink* find(std::uint32_t flow);

  /// Sorted by flow id (except mid-bulk); lookups remember the last hit
  /// because packets arrive in per-flow bursts (a train hits one route
  /// repeatedly).
  std::vector<std::pair<std::uint32_t, PacketSink*>> table_;
  std::size_t last_hit_ = 0;
  bool bulk_ = false;
};

}  // namespace quicsteps::net
