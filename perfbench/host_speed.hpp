// Host-speed reference for the end-to-end timings.
//
// The benchmark runs on shared hosts whose speed changes with the load of
// other tenants, in phases of seconds to minutes and by up to about 1.7x.
// A run's raw host times therefore depend on which phases it fell into more
// than on the program. To take that out, the workloads run a fixed
// reference kernel after every iteration, outside the timed window, and the
// driver reports each timing at the speed of a reference host: the host
// time multiplied by kReferenceMs over the kernel's time measured next to
// it. The kernel is benchmark code that no change to the libraries touches,
// so a faster program still reads faster by the same factor. The raw host
// times are printed beside the scaled ones.
#pragma once

#include "spans.hpp"

namespace perfbench {

// Runs the reference kernel once and returns its time in host ms: the
// geometric mean of the times of its two parts, floating-point arithmetic
// (the rendering kernels' mix) and the churn of a small ordered map in a
// private arena (the simulation's bookkeeping mix, independent of the
// program's heap). Which of the two a slow phase of the host hits harder
// varies, and so does which one the workloads follow more closely; the
// mean of both tracked all four (README.md, Steadiness). About 0.6 ms per
// part on the reference host.
[[nodiscard]] double reference_kernel_ms();

// Host ns spent in reference_kernel_ms() so far in this process. A window of
// host time that spans kernel runs subtracts it.
[[nodiscard]] Ns reference_kernel_total_ns() noexcept;

// The kernel's time on the reference host: one core of a shared 4-core x86
// VM (Intel Xeon at 2.1 GHz) in a fast phase. Scaled timings read as host
// time on that machine.
inline constexpr double kReferenceMs = 0.6;

// `host` (any time unit) at the reference host's speed, given the reference
// kernel's time `kernel_ms` measured beside it.
[[nodiscard]] inline double at_reference_speed(double host,
                                               double kernel_ms) {
  return kernel_ms > 0 ? host * kReferenceMs / kernel_ms : host;
}

}  // namespace perfbench
