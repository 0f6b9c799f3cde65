// Tier-1 gate for the runtime-selectable kernels: the SIMD paths must be
// invisible in simulation results. The test runs the full elastic
// Mandelbulb scenario twice -- SIMD vs scalar -- and requires a
// bit-identical fingerprint: DES event count, virtual end time, every
// iteration outcome, and every execution record including render hashes.
// A divergence here means an optimization changed behavior, not just speed.
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/simd.hpp"
#include "net/network.hpp"
#include "invariants.hpp"

namespace colza {
namespace {

testing::ScenarioConfig scenario() {
  testing::ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.servers = 3;
  cfg.iterations = 4;
  cfg.blocks = 6;
  cfg.elastic_join = true;  // exercise the resize path too
  return cfg;
}

// Everything observable about a run, serialized so a mismatch prints a
// readable diff.
std::string fingerprint(const testing::ScenarioResult& r) {
  std::ostringstream out;
  out << "events=" << r.events_processed << " end=" << r.end_time
      << " client_done=" << r.client_done << "\n";
  for (const auto& it : r.iterations) {
    out << "iter " << it.iteration << " code=" << static_cast<int>(it.code)
        << " started=" << it.started << " finished=" << it.finished
        << " view=[";
    for (net::ProcId p : it.view) out << p << ",";
    out << "]\n";
  }
  for (const auto& s : r.servers) {
    out << "server " << s.id << " alive=" << s.alive << "\n";
    for (const auto& rec : s.records) {
      out << "  exec iter=" << rec.iteration << " size=" << rec.comm_size
          << " ctx=" << rec.comm_context << " time=" << rec.execute_time
          << " hash=" << std::hex << rec.image_hash << std::dec << "\n";
    }
  }
  return out.str();
}

std::string run_fingerprint() {
  return fingerprint(testing::run_elastic_mandelbulb(scenario()));
}

TEST(PerfInvariance, SimdKernelsMatchScalar) {
#if defined(__x86_64__)
  const bool have_avx2 = __builtin_cpu_supports("avx2") != 0;
#else
  const bool have_avx2 = false;
#endif
  if (!have_avx2) GTEST_SKIP() << "no AVX2 on this host";

  const auto entry = common::simd::active_level();
  common::simd::active_level() = common::simd::Level::avx2;
  const std::string simd = run_fingerprint();
  common::simd::active_level() = common::simd::Level::scalar;
  const std::string scalar = run_fingerprint();
  common::simd::active_level() = entry;
  EXPECT_EQ(simd, scalar);
}

}  // namespace
}  // namespace colza
