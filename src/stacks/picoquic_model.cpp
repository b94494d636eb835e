// picoquic behavioral profile.
//
// picoquic paces with the leaky bucket RFC 9002 proposes: credit accrues
// while the sender is idle, so after each coarse select-loop sleep a whole
// bucket of packets drains back-to-back — the 16-17 packet trains the paper
// observes with loss-based CCAs (Section 4.1, "bursts after a 5 ms idle
// period happening almost every 10 ms"). Its BBR path instead drives the
// loop with fine rate-based wakeups and a shallow bucket, which is why
// picoquic+BBR is the paper's best purely user-space pacer.
#include "stacks/stack_profile.hpp"

namespace quicsteps::stacks {

StackProfile picoquic_profile(const ProfileOptions& options) {
  StackProfile p;
  p.name = "picoquic";

  p.cc.algorithm = options.cca;
  p.cc.hystart = true;
  p.cc.spurious_loss_rollback = false;
  p.cc.bbr_flavor = cc::BbrFlavor::kV2Lite;

  p.pacer.kind = pacing::PacerKind::kLeakyBucket;
  p.pacing_rate_factor = 1.25;
  p.pass_txtime = false;

  if (options.cca == cc::CcAlgorithm::kBbr) {
    // Rate-driven loop: precise waits, shallow bucket, short iterations.
    p.pacer.bucket_depth_bytes = 2 * 1500;
    p.pacer_timer.granularity = sim::Duration::zero();
    p.pacer_timer.slack_max = sim::Duration::micros(50);
    p.recv_batch_window = sim::Duration::zero();
  } else {
    // cwnd-driven loop: iterations stretch to several milliseconds, so
    // ACKs are digested in batches and the refilled bucket drains as one
    // 16-17 packet train (its depth is the cap) — the paper's "bursts
    // after a 5 ms idle period happening almost every 10 ms".
    p.pacer.bucket_depth_bytes = 16 * 1500;
    // Pacer waits themselves are computed precisely (select timeout in
    // microseconds); the bursts come from the busy cycle below, after
    // which the refilled bucket drains in one train.
    p.pacer_timer.granularity = sim::Duration::zero();
    p.pacer_timer.slack_max = sim::Duration::micros(100);
    p.loop_busy_cycle = sim::Duration::millis(10);
    p.loop_busy_duration = sim::Duration::millis(5);
  }

  p.gso = options.gso;
  p.gso_segments = options.gso_segments;
  return p;
}

}  // namespace quicsteps::stacks
