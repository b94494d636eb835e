// Reporters: compiler-style text and SARIF 2.1.0.
#pragma once

#include <string>
#include <vector>

#include "rule.hpp"

namespace quicsteps::analyze {

/// One line per finding, gcc style:
///   src/sim/time.cpp:12:9: [units/raw-time-type] message
/// A finding with fix-it hints gets one indented line per hint:
///   src/sim/time.cpp:12:9: fix: replace [12:9-12:22] with 'map' (...)
/// Baselined findings are omitted (they are visible in the SARIF output as
/// suppressed results and in the summary count).
std::string text_report(const std::vector<Finding>& findings);

/// Full SARIF 2.1.0 log. Every known rule appears in the driver metadata;
/// baselined findings are emitted with an external suppression so the
/// output is a complete audit of what the analyzer saw. Deterministic:
/// same findings in, byte-identical log out (golden-tested).
std::string sarif_report(const std::vector<Finding>& findings);

/// "N files, R rules, F finding(s) (B baselined) in T ms" — the auditable
/// one-liner check.sh and CI print.
std::string summary_line(std::size_t files, std::size_t rules,
                         std::size_t findings,
                         std::size_t baselined, long long elapsed_ms);

}  // namespace quicsteps::analyze
