// Quickstart: run the paper's baseline configuration (default qdisc, CUBIC,
// no GSO) for all four stacks over the Figure-1 topology and print the
// Table 1 / Figure 2 / Figure 3 style summaries.
//
// Usage: quickstart [payload_MiB] [repetitions]
#include <cstdio>
#include <iostream>

#include "core/quicsteps.hpp"

using namespace quicsteps;

int main(int argc, char** argv) {
  const std::int64_t payload =
      (argc > 1 ? framework::whole_number_arg("quickstart", "payload_MiB",
                                              argv[1], 1, 1 << 20)
                : 5) *
      1024 * 1024;
  const int reps =
      argc > 2 ? static_cast<int>(framework::whole_number_arg(
                     "quickstart", "repetitions", argv[2], 1, 100000))
               : 2;

  std::printf("quicsteps %s — baseline demo: %lld MiB, %d repetition(s)\n",
              kVersion, static_cast<long long>(payload / (1024 * 1024)),
              reps);

  const framework::StackKind stacks[] = {
      framework::StackKind::kQuiche, framework::StackKind::kPicoquic,
      framework::StackKind::kNgtcp2, framework::StackKind::kTcpTls};

  std::vector<framework::Aggregate> aggregates;
  for (auto stack : stacks) {
    framework::ExperimentConfig config;
    config.label = framework::to_string(stack);
    config.stack = stack;
    config.cca = cc::CcAlgorithm::kCubic;
    config.payload_bytes = payload;
    config.repetitions = reps;
    auto runs = framework::Runner::run_all(config);
    aggregates.push_back(framework::aggregate(config.label, runs));
  }

  std::cout << framework::render_goodput_table(
      aggregates, "Baseline goodput and loss (Table 1 shape)");
  std::cout << framework::render_gap_figure(
      aggregates, "Inter-packet gaps (Figure 2 shape)");
  std::cout << framework::render_train_figure(
      aggregates, "Packet trains (Figure 3 shape)");
  return 0;
}
