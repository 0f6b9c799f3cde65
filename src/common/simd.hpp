// Runtime SIMD dispatch policy.
//
// Kernels that have a vector path (icet run-length encoding, Gray-Scott
// stencils) ship both an AVX2 and a scalar implementation and pick one at
// runtime via active(). The choice never affects results: every vector path
// is required to evaluate the exact scalar operation tree per lane (same
// association order, no FMA contraction -- the AVX2 functions are compiled
// with target("avx2") only, which cannot emit fused multiply-adds), so
// images and timelines are bit-identical either way. COLZA_SIMD=off forces
// the scalar path for perf bisection and for CI cross-checking.
//
// Kernels dominated by libm transcendentals (the Mandelbulb escape loop:
// pow/acos/atan2/sin/cos) stay scalar libm by policy -- a vector math
// library would change ulps and break render-hash determinism. That kernel
// instead does less work exactly: its first step is computed once per
// block, and an orbit exits as soon as its state repeats bitwise
// (apps/mandelbulb.cpp). The rasterizer's 4-lane edge test and the
// histogram pipeline's binning kernel are plain SSE2 (the GCC/Clang vector
// extension on the x86-64 baseline, F32x4 / I32x4 below) with the scalar
// operation tree per lane, so they need no dispatch and no toggle.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string_view>

namespace colza::common::simd {

// Four float / int32 lanes (GCC/Clang vector extension; SSE2 on x86-64).
using F32x4 = float __attribute__((vector_size(16)));
using I32x4 = std::int32_t __attribute__((vector_size(16)));

enum class Level { scalar, avx2 };

// Mutable so the invariance tests can flip paths mid-process; everything
// else treats it as read-only after the env-derived initialization.
inline Level& active_level() noexcept {
  static Level lvl = [] {
    const char* env = std::getenv("COLZA_SIMD");
    if (env != nullptr && std::string_view(env) == "off") return Level::scalar;
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) return Level::avx2;
#endif
    return Level::scalar;
  }();
  return lvl;
}

inline Level active() noexcept { return active_level(); }

inline bool avx2() noexcept { return active() == Level::avx2; }

inline const char* name() noexcept {
  return active() == Level::avx2 ? "avx2" : "scalar";
}

}  // namespace colza::common::simd
