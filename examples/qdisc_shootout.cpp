// Qdisc shootout: one stack (quiche + SF), every server-side queueing
// discipline the library models. Shows where kernel help matters: the
// txtime-honoring qdiscs (FQ, ETF) turn quiche's burst-writes into paced
// wire traffic, the defaults pass the bursts through.
//
// Usage: qdisc_shootout [payload_MiB]
#include <cstdio>
#include <vector>

#include "core/quicsteps.hpp"

using namespace quicsteps;

int main(int argc, char** argv) {
  const std::int64_t payload =
      (argc > 1 ? framework::whole_number_arg("qdisc_shootout", "payload_MiB",
                                              argv[1], 1, 1 << 20)
                : 10) *
      1024 * 1024;

  const framework::QdiscKind qdiscs[] = {
      framework::QdiscKind::kFifo, framework::QdiscKind::kFqCodel,
      framework::QdiscKind::kFq, framework::QdiscKind::kEtf,
      framework::QdiscKind::kEtfOffload};

  std::printf("qdisc shootout: quiche+SF, CUBIC, %lld MiB over the paper "
              "topology\n\n",
              static_cast<long long>(payload / (1024 * 1024)));
  std::printf("%-16s %12s %14s %14s %16s\n", "qdisc", "goodput",
              "pkts in <=5", "back-to-back", "precision [ms]");
  std::printf("%s\n", std::string(76, '-').c_str());

  std::vector<framework::Aggregate> rows;
  for (auto qdisc : qdiscs) {
    framework::ExperimentConfig config;
    config.label = framework::to_string(qdisc);
    config.stack = framework::StackKind::kQuicheSf;
    config.topology.server_qdisc = qdisc;
    config.payload_bytes = payload;
    config.repetitions = 3;
    auto agg = framework::aggregate(config.label,
                                    framework::Runner::run_all(config));
    std::printf("%-16s %9.2f Mb %13.1f%% %13.1f%% %16s\n",
                agg.label.c_str(), agg.goodput_mbps.mean,
                100.0 * agg.fraction_in_trains_up_to(5),
                100.0 * agg.back_to_back_fraction.mean,
                agg.precision_ms.to_string(3).c_str());
    rows.push_back(std::move(agg));
  }

  std::fputs(framework::render_gap_figure(rows,
                                          "inter-packet gaps per qdisc",
                                          sim::Duration::millis(2))
                 .c_str(),
             stdout);
  return 0;
}
