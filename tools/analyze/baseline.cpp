#include "baseline.hpp"

#include <algorithm>
#include <sstream>

namespace quicsteps::analyze {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

bool Baseline::load(const std::string& content,
                    const std::string& source_name, std::string* error) {
  std::istringstream in(content);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    std::string line = trim(hash == std::string::npos ? raw
                                                      : raw.substr(0, hash));
    if (line.empty()) continue;
    // The rule ID itself contains a '/'; the separator is the LAST ':'.
    const auto colon = line.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= line.size()) {
      *error = source_name + ":" + std::to_string(lineno) +
               ": malformed baseline entry (want <path>:<rule-id>)";
      return false;
    }
    Entry e;
    e.path = trim(line.substr(0, colon));
    e.rule_id = trim(line.substr(colon + 1));
    if (!known_rule(e.rule_id)) {
      *error = source_name + ":" + std::to_string(lineno) +
               ": unknown rule id '" + e.rule_id + "'";
      return false;
    }
    entries_.push_back(std::move(e));
  }
  return true;
}

bool Baseline::matches(const Finding& finding) {
  bool hit = false;
  for (auto& e : entries_) {
    if (e.path == finding.file && e.rule_id == finding.rule_id) {
      e.used = true;
      hit = true;
    }
  }
  return hit;
}

std::vector<std::string> Baseline::unused(
    const std::vector<std::string>* ran) const {
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    if (e.used) continue;
    if (ran != nullptr && std::find(ran->begin(), ran->end(),
                                    rule_family(e.rule_id)) == ran->end()) {
      continue;
    }
    out.push_back(e.path + ":" + e.rule_id);
  }
  return out;
}

}  // namespace quicsteps::analyze
