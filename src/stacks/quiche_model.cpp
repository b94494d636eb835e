// quiche behavioral profile.
//
// Cloudflare quiche computes an optimal send time for every packet and
// passes it to the kernel with SO_TXTIME (SCM_TXTIME); it does not wait in
// user space, so without a txtime-aware qdisc (FQ/ETF) packets leave in
// whatever bursts the tokio event loop produces. Its CUBIC ships HyStart++
// and the spurious-loss checkpoint/rollback the paper's Section 4.2
// dissects (disabled by the SF patch). GSO is supported and used by the
// Section 4.3 experiments.
#include "stacks/stack_profile.hpp"

namespace quicsteps::stacks {

StackProfile quiche_profile(const ProfileOptions& options) {
  StackProfile p;
  p.name = options.sf_patch ? "quiche-sf" : "quiche";

  p.cc.algorithm = options.cca;
  p.cc.hystart = true;
  p.cc.spurious_loss_rollback = !options.sf_patch;
  p.cc.rollback_threshold_packets = 5;
  p.cc.rollback_threshold_cwnd_fraction = 0.15;
  p.cc.bbr_flavor = cc::BbrFlavor::kLossCapped;

  p.pacer.kind = pacing::PacerKind::kInterval;
  p.pacing_rate_factor = 1.25;
  p.pass_txtime = true;
  p.txtime_headroom = options.txtime_headroom;

  // tokio/mio loop: send decisions happen per loop iteration; arriving
  // ACKs within an iteration are digested together. Typical iterations are
  // short (ack-clocked pairs dominate: ~89 % of packets in trains <= 5);
  // tail iterations batch several ACKs and produce the even 6-20 train
  // spread of Figure 3.
  p.recv_batch_window = sim::Duration::micros(260);
  p.max_packets_per_iteration = 20;
  p.pacer_timer.granularity = sim::Duration::millis(1);
  p.pacer_timer.slack_max = sim::Duration::micros(250);

  p.gso = options.gso;
  p.gso_segments = options.gso_segments;
  p.use_sendmmsg = options.use_sendmmsg && options.gso == kernel::GsoMode::kOff;
  if (options.gso != kernel::GsoMode::kOff) {
    // GSO pairs with coarser event-loop batching (the point of GSO is
    // fewer, larger kernel handoffs), and the pacing quantum becomes the
    // whole buffer: the release schedule may run a buffer ahead.
    p.recv_batch_window = sim::Duration::micros(2500);
    p.max_packets_per_iteration = 64;  // several buffers per write pass
    p.pacer.max_schedule_ahead =
        sim::Duration::micros(3000 + 400 * options.gso_segments);
  }
  return p;
}

}  // namespace quicsteps::stacks
