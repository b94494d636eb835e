// Call graph over the symbol index.
//
// Edges come from by-name resolution of `name(` call sites inside callable
// bodies: candidates sharing the callee name are looked up in the index,
// preferring definitions in the calling file, and capped when a name is
// ambiguous across too many definitions (a heuristic graph must not invent
// thousands of edges for `reset`). Lambdas get an implicit edge from the
// callable that lexically contains them and resolve by their bound local
// name when invoked or passed on.
#pragma once

#include <string>
#include <vector>

#include "symbols.hpp"

namespace quicsteps::analyze {

/// One `name(...)` occurrence inside a callable body.
struct CallSite {
  std::size_t caller = Symbol::npos;  // enclosing callable; npos at
                                      // namespace scope (global init)
  std::string name;                   // callee name as spelled
  std::size_t file = 0;
  std::size_t tok = 0;   // token index of the name
  int line = 1;
  int col = 1;
  std::size_t args_begin = 0;  // token index of '('
  std::size_t args_end = 0;    // token index of matching ')'
  std::vector<std::size_t> callees;  // resolved symbol ids (may be empty)
};

struct CallGraph {
  std::vector<CallSite> sites;  // (file, token) order
  /// Per symbol id: resolved callee symbol ids, sorted + deduped.
  /// Includes the implicit containing-callable -> lambda edges.
  std::vector<std::vector<std::size_t>> edges;
};

/// Builds sites and edges.
CallGraph build_call_graph(const Model& model, const SymbolIndex& index);

}  // namespace quicsteps::analyze
