// Baseline / suppression file support.
//
// Format, one entry per line, '#' comments:
//     <path-relative-to-root>:<rule-id>
// e.g. src/sim/time.cpp:units/raw-time-type
//
// An entry waives every finding of that rule in that file (deliberate:
// line numbers churn, policies do not). Entries that match nothing are
// reported so the baseline can only shrink: a human deletes the line.
#pragma once

#include <string>
#include <vector>

#include "rule.hpp"

namespace quicsteps::analyze {

class Baseline {
 public:
  /// Parses baseline file content. Unknown rule IDs or malformed lines
  /// set `*error` and fail (a typo must not silently waive nothing).
  bool load(const std::string& content, const std::string& source_name,
            std::string* error);

  /// True when `finding` is waived; records the entry as used.
  bool matches(const Finding& finding);

  /// Entries that never matched a finding (stale — candidates to delete).
  /// When `ran` is given, only entries whose rule family is listed there
  /// count: a run that skipped a family cannot tell whether its waivers
  /// still match.
  std::vector<std::string> unused(
      const std::vector<std::string>* ran = nullptr) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string path;
    std::string rule_id;
    bool used = false;
  };
  std::vector<Entry> entries_;
};

}  // namespace quicsteps::analyze
