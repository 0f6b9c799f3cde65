#include "host_speed.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <vector>

namespace perfbench {
namespace {

volatile double g_sink = 0;
Ns g_total_ns = 0;

// Floating-point arithmetic with square roots and divisions in registers,
// as in the Mandelbulb, isosurface and raster kernels.
double arithmetic_ms() {
  constexpr int kPoints = 2400;
  const Ns start = host_ns();
  double acc = 0;
  for (int p = 0; p < kPoints; ++p) {
    double x = p * 1e-4, y = 0.3, z = 0.1;
    for (int k = 0; k < 16; ++k) {
      const double r = std::sqrt(x * x + y * y + z * z) + 1e-9;
      x = x * x - y * y + 0.1 / r;
      y = 2 * x * y + 0.01;
      z = z * 0.9 + r * 0.01;
    }
    acc += x + y + z;
  }
  g_sink = acc;
  return static_cast<double>(host_ns() - start) / 1e6;
}

// Node allocation, tree search and short copies in a small ordered map of
// small vectors, as in the simulation's own bookkeeping; in a private arena,
// so that the program's heap state cannot change its cost.
double bookkeeping_ms() {
  constexpr int kOps = 4000;
  constexpr std::uint64_t kKeys = 2000;
  // Enough for every node and vector the loop allocates (under 1 MiB).
  static std::vector<std::byte> arena(std::size_t{4} << 20);
  const Ns start = host_ns();
  {
    std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                             std::pmr::null_memory_resource());
    std::pmr::map<std::uint64_t, std::pmr::vector<int>> m(&pool);
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;  // xorshift64, fixed sequence
    for (int i = 0; i < kOps; ++i) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      auto& v = m[s % kKeys];
      v.push_back(i);
      if (v.size() > 4) v.erase(v.begin());
    }
    g_sink = static_cast<double>(m.size());
  }
  return static_cast<double>(host_ns() - start) / 1e6;
}

}  // namespace

double reference_kernel_ms() {
  const Ns start = host_ns();
  const double ms = std::sqrt(arithmetic_ms() * bookkeeping_ms());
  g_total_ns += host_ns() - start;
  return ms;
}

Ns reference_kernel_total_ns() noexcept { return g_total_ns; }

}  // namespace perfbench
