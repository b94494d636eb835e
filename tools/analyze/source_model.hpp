// Per-file token streams plus the project-level include graph.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "token.hpp"

namespace quicsteps::analyze {

struct SourceFile {
  std::string abs_path;     // as opened
  std::string rel_path;     // relative to the analysis root (reported)
  std::string include_key;  // path relative to the include base; how other
                            // files' quoted #includes name this file
                            // ("sim/time.hpp"); empty when outside the base
  std::string layer;        // first directory of include_key; "" when flat
  bool is_header = false;
  LexResult lex;
};

/// The whole analysis input: every scanned file plus include-graph edges
/// resolved against the scanned set (quoted includes only; system headers
/// are not edges).
struct Model {
  std::vector<SourceFile> files;
  /// include_key -> index into files.
  std::map<std::string, std::size_t> by_include_key;

  /// Resolves a quoted include path to a scanned file, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t resolve(const std::string& include_path) const {
    auto it = by_include_key.find(include_path);
    return it == by_include_key.end() ? npos : it->second;
  }
};

/// Loads and lexes every C++ source under `paths` (files or directories,
/// recursive; .hpp/.h/.cpp/.cc), skipping directories named "testdata" —
/// fixture trees hold deliberate violations and must never leak into a
/// real run (the self-tests pass fixture dirs explicitly, which still
/// works: only directories *inside* a scanned tree are skipped). `root`
/// anchors rel_path, `include_base` anchors include_key; files outside
/// the include base derive their layer from rel_path's first component so
/// self-hosted trees (tools/analyze) still carry a layer. Files are
/// sorted by rel_path so every downstream artifact (text report, SARIF,
/// baseline matching) is order-stable. Returns false and sets `*error`
/// when a path does not exist.
bool build_model(const std::vector<std::string>& paths,
                 const std::string& root, const std::string& include_base,
                 Model* model, std::string* error);

}  // namespace quicsteps::analyze
