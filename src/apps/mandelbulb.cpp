#include "apps/mandelbulb.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace colza::apps {

namespace {

// The first step of every orbit starts at the origin, so its offset (the
// step's value before c is added) depends on the power alone. Hoisting it
// out of the per-point loop evaluates the same expressions on the same
// values as the loop's first pass, so the results are bit-identical.
struct FirstStep {
  float x, y, z;
};

FirstStep first_step(float power) {
  const float x = 0, y = 0, z = 0;
  const float r = std::sqrt(x * x + y * y + z * z);
  const float theta = r > 0 ? std::acos(z / r) : 0.0f;
  const float phi = std::atan2(y, x);
  const float rp = std::pow(r, power);
  const float st = std::sin(power * theta);
  return {rp * st * std::cos(power * phi), rp * st * std::sin(power * phi),
          rp * std::cos(power * theta)};
}

using State = std::array<std::uint32_t, 3>;

State bits_of(float x, float y, float z) {
  return {std::bit_cast<std::uint32_t>(x), std::bit_cast<std::uint32_t>(y),
          std::bit_cast<std::uint32_t>(z)};
}

int escape(float cx, float cy, float cz, float power, int max_iterations,
           const FirstStep& first) {
  // Triplex power iteration (White/Nylander formula):
  //   r^n * (sin(n theta) cos(n phi), sin(n theta) sin(n phi), cos(n theta))
  //
  // Exact periodicity exit: for fixed c and power the step is a pure
  // function of (x, y, z), so once a state repeats bitwise the orbit cycles
  // through states that have all passed the r2 > 4 test, and the loop would
  // run to max_iterations. Interior points reach a float fixed point or a
  // short cycle within a few steps, which skips most of their libm calls.
  // The comparison is on bit patterns, so +0/-0 and distinct NaN payloads
  // count as different states. Only the last kHistory states are kept:
  // matching against any subset is exact, a longer period just runs on.
  // Nearly all interior orbits settle into a period of at most 8.
  if (max_iterations <= 0) return max_iterations;
  constexpr int kHistory = 8;
  std::array<State, kHistory> seen{};  // [0] is step 0's origin (0, 0, 0)
  float x = first.x + cx, y = first.y + cy, z = first.z + cz;
  for (int it = 1; it < max_iterations; ++it) {
    const float r2 = x * x + y * y + z * z;
    if (r2 > 4.0f) return it;
    const State now = bits_of(x, y, z);
    const int n_seen = std::min(it, kHistory);  // states 0 .. it-1, capped
    for (int s = 0; s < n_seen; ++s) {
      if (seen[static_cast<std::size_t>(s)] == now) return max_iterations;
    }
    seen[static_cast<std::size_t>(it % kHistory)] = now;
    const float r = std::sqrt(r2);
    const float theta = r > 0 ? std::acos(z / r) : 0.0f;
    const float phi = std::atan2(y, x);
    const float rp = std::pow(r, power);
    const float st = std::sin(power * theta);
    x = rp * st * std::cos(power * phi) + cx;
    y = rp * st * std::sin(power * phi) + cy;
    z = rp * std::cos(power * theta) + cz;
  }
  return max_iterations;
}

}  // namespace

int mandelbulb_escape(float cx, float cy, float cz, float power,
                      int max_iterations) {
  return escape(cx, cy, cz, power, max_iterations, first_step(power));
}

vis::UniformGrid mandelbulb_block(const MandelbulbParams& params,
                                  std::uint32_t block_id) {
  if (block_id >= params.total_blocks)
    throw std::invalid_argument("mandelbulb_block: block_id out of range");
  vis::UniformGrid g;
  g.dims = {params.nx, params.ny, params.nz};
  const float extent = 2.0f * params.range;
  const float slab = extent / static_cast<float>(params.total_blocks);
  g.origin = {-params.range, -params.range,
              -params.range + slab * static_cast<float>(block_id)};
  g.spacing = {extent / static_cast<float>(params.nx - 1),
               extent / static_cast<float>(params.ny - 1),
               slab / static_cast<float>(params.nz - 1)};

  // The escape iteration is libm-transcendental-dominated (pow/acos/atan2
  // per step) and stays scalar by policy -- see common/simd.hpp. What does
  // get optimized: the first step is computed once per block, the y/z
  // coordinates hoist out of the inner loop (the same origin +
  // spacing*index expressions point() evaluates, so values are
  // bit-identical) and the field index walks incrementally (i is the
  // fastest axis of point_index).
  const FirstStep first = first_step(params.power);
  std::vector<float> field(g.point_count());
  std::size_t idx = 0;
  for (std::uint32_t k = 0; k < params.nz; ++k) {
    const float pz = g.origin.z + g.spacing.z * static_cast<float>(k);
    for (std::uint32_t j = 0; j < params.ny; ++j) {
      const float py = g.origin.y + g.spacing.y * static_cast<float>(j);
      for (std::uint32_t i = 0; i < params.nx; ++i, ++idx) {
        const float px = g.origin.x + g.spacing.x * static_cast<float>(i);
        field[idx] = static_cast<float>(
            escape(px, py, pz, params.power, params.max_iterations, first));
      }
    }
  }
  g.point_data.add(vis::DataArray::make<float>("iterations", field));
  return g;
}

}  // namespace colza::apps
