// Host-speed reference for the end-to-end rate. On a shared host the same
// deterministic work runs up to 2x slower for seconds to minutes at a time;
// timing a fixed kernel right before and after each simulation measures
// how fast the host is running just then, so a simulation's wall time can
// be expressed in reference-host seconds.
#pragma once

namespace perfbench {

/// Wall time of the reference kernel on the reference host. Together with
/// reference_kernel() this defines the unit of pkts_per_ref_s; neither may
/// change, or runs before and after stop being comparable.
inline constexpr double kReferenceKernelSeconds = 0.012;

/// Runs the reference kernel — a timed-event heap plus ordered-map churn,
/// the shape of a discrete-event simulator's inner loop, in code the
/// simulator does not share — and returns its wall time in seconds.
double reference_kernel();

}  // namespace perfbench
