// perfbench — the repository benchmark.
//
//   perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//   perfbench --workload <name> [--seed N] --print-digests
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger.
// The last line of output is one JSON record per workload. The exit code
// is nonzero when any simulation's output is wrong (golden or determinism
// mismatch) or an argument is invalid.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "framework/flows.hpp"
#include "modes.hpp"
#include "workloads.hpp"

namespace {

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> "
               "[--seed N] [--seconds S] [--trace 0|1] [--print-digests]\n",
               why);
  return 2;
}

void print_build_config() {
  std::printf("build: %s, QUICSTEPS_AUDIT=%s, QUICSTEPS_TRACE=%s; one thread; "
              "traffic is simulated (no link rate or wire latency measured)\n",
#ifdef NDEBUG
              "optimized (NDEBUG)",
#else
              "assertions on",
#endif
#ifdef QUICSTEPS_AUDIT_ENABLED
              "ON",
#else
              "OFF",
#endif
#ifdef QUICSTEPS_TRACE_ENABLED
              "ON"
#else
              "OFF"
#endif
  );
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  bool print_digests = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-digests") {
      print_digests = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &v)) return usage("--seed wants an integer");
      seed = v;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, &seconds) || seconds < 1 || seconds > 3600) {
        return usage("--seconds wants an integer in [1, 3600]");
      }
    } else if (arg == "--trace") {
      if (!parse_u64(value, &trace) || trace > 1) {
        return usage("--trace wants 0 or 1");
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty()) return usage("--workload is required");

  std::vector<perfbench::Workload> workloads;
  for (const std::string& name :
       workload == "all" ? perfbench::workload_names()
                         : std::vector<std::string>{workload}) {
    std::optional<perfbench::Workload> w = perfbench::make_workload(name, seed);
    if (!w) return usage(("unknown workload " + name).c_str());
    workloads.push_back(std::move(*w));
  }

  print_build_config();
  bool all_correct = true;
  for (const perfbench::Workload& w : workloads) {
    if (print_digests) {
      for (const perfbench::Simulation& sim : w.sims) {
        const auto r = quicsteps::framework::run_flows(sim.config);
        std::printf("    {\"%s\", \"%s\", 0x%016llxull},\n", w.name.c_str(),
                    sim.label.c_str(),
                    static_cast<unsigned long long>(perfbench::sim_digest(r)));
      }
      continue;
    }
    const auto secs = static_cast<double>(seconds);
    const perfbench::Outcome out = trace == 1 ? perfbench::run_ledger(w, secs)
                                              : perfbench::run_e2e(w, secs);
    perfbench::print_outcome(w.name, out);
    all_correct = all_correct && out.correct;
  }
  return all_correct ? 0 : 1;
}
