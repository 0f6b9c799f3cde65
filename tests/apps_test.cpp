// Tests for the three evaluation applications: Gray-Scott (conservation,
// pattern formation, parallel/serial equivalence via halo exchange),
// Mandelbulb (escape function, block decomposition), and the DWI proxy
// (growth curve, determinism, mesh validity).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "apps/dwi_proxy.hpp"
#include "apps/gray_scott.hpp"
#include "apps/mandelbulb.hpp"
#include "des/simulation.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"

namespace colza::apps {
namespace {

// ------------------------------------------------------------- Gray-Scott

TEST(GrayScott, InitialConditionHasSeed) {
  GrayScott gs(GrayScott::Params{.n = 32}, 0, 1);
  vis::UniformGrid g = gs.block();
  const auto v = g.point_data.find("v")->as<float>();
  float vmax = 0;
  for (float x : v) vmax = std::max(vmax, x);
  EXPECT_GT(vmax, 0.4f);  // the center seed
  const auto u = g.point_data.find("u")->as<float>();
  EXPECT_NEAR(u[0], 1.0f, 1e-5f);  // background
}

TEST(GrayScott, FieldsStayBounded) {
  GrayScott::Params p{.n = 24};
  p.steps_per_iteration = 20;
  GrayScott gs(p, 0, 1);
  ASSERT_TRUE(gs.step(nullptr).ok());
  vis::UniformGrid g = gs.block();
  for (const char* f : {"u", "v"}) {
    for (float x : g.point_data.find(f)->as<float>()) {
      ASSERT_GE(x, -0.01f) << f;
      ASSERT_LE(x, 1.51f) << f;
    }
  }
}

TEST(GrayScott, ReactionSpreadsOverTime) {
  GrayScott::Params p{.n = 32};
  p.steps_per_iteration = 50;
  GrayScott gs(p, 0, 1);
  auto active = [&] {
    vis::UniformGrid g = gs.block();
    int n = 0;
    for (float x : g.point_data.find("v")->as<float>()) n += x > 0.1f ? 1 : 0;
    return n;
  };
  const int before = active();
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(gs.step(nullptr).ok());
  EXPECT_GT(active(), before);
}

TEST(GrayScott, SlabsPartitionGlobalDomain) {
  GrayScott::Params p{.n = 30};
  std::uint32_t total = 0;
  for (int r = 0; r < 4; ++r) {
    GrayScott gs(p, r, 4);
    total += gs.local_nz();
    vis::UniformGrid g = gs.block();
    EXPECT_EQ(g.dims[2], gs.local_nz());
  }
  EXPECT_EQ(total, 30u);
}

TEST(GrayScott, ParallelMatchesSerial) {
  // 2 ranks with halo exchange must reproduce the serial run exactly.
  GrayScott::Params p{.n = 16};
  p.steps_per_iteration = 10;
  p.noise = 0.0;  // per-rank RNG streams differ; disable noise for equality

  GrayScott serial(p, 0, 1);
  ASSERT_TRUE(serial.step(nullptr).ok());
  vis::UniformGrid sg = serial.block();
  const auto sv = sg.point_data.find("v")->as<float>();

  des::Simulation sim;
  net::Network net(sim);
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < 2; ++i) {
    auto& pr = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&pr);
    insts.push_back(std::make_unique<mona::Instance>(pr));
    addrs.push_back(pr.id());
  }
  std::vector<vis::UniformGrid> blocks(2);
  for (int r = 0; r < 2; ++r) {
    procs[static_cast<std::size_t>(r)]->spawn("gs", [&, r] {
      auto comm = insts[static_cast<std::size_t>(r)]->comm_create(addrs);
      GrayScott gs(p, r, 2);
      ASSERT_TRUE(gs.step(comm.get()).ok());
      blocks[static_cast<std::size_t>(r)] = gs.block();
    });
  }
  sim.run();

  // Compare the two slabs against the corresponding serial planes.
  const std::size_t plane = 16 * 16;
  for (int r = 0; r < 2; ++r) {
    const auto pv =
        blocks[static_cast<std::size_t>(r)].point_data.find("v")->as<float>();
    const std::size_t z0 = static_cast<std::size_t>(r) * 8;
    for (std::size_t i = 0; i < pv.size(); ++i) {
      ASSERT_NEAR(pv[i], sv[z0 * plane + i], 1e-5f)
          << "rank " << r << " index " << i;
    }
  }
}

TEST(GrayScott, InvalidConfigThrows) {
  EXPECT_THROW(GrayScott(GrayScott::Params{.n = 2}, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(GrayScott(GrayScott::Params{.n = 16}, 5, 4),
               std::invalid_argument);
  EXPECT_THROW(GrayScott(GrayScott::Params{.n = 8}, 15, 16),
               std::invalid_argument);  // more ranks than planes
}


// --------------------------------------------------------- GrayScott3D

TEST(GrayScott3D, CartesianDimsBalanced) {
  EXPECT_EQ(cartesian_dims(1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(cartesian_dims(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(cartesian_dims(12), (std::array<int, 3>{2, 2, 3}));
  EXPECT_EQ(cartesian_dims(7), (std::array<int, 3>{1, 1, 7}));
  for (int n : {2, 3, 4, 6, 16, 24, 64}) {
    const auto d = cartesian_dims(n);
    EXPECT_EQ(d[0] * d[1] * d[2], n) << n;
    EXPECT_LE(d[0], d[1]);
    EXPECT_LE(d[1], d[2]);
  }
}

TEST(GrayScott3D, BoxesPartitionTheDomain) {
  GrayScott3D::Params p{.n = 20};
  std::size_t total_points = 0;
  for (int r = 0; r < 12; ++r) {
    GrayScott3D gs(p, r, 12);
    const auto e = gs.local_extent();
    total_points += static_cast<std::size_t>(e[0]) * e[1] * e[2];
  }
  EXPECT_EQ(total_points, 20u * 20u * 20u);
}

TEST(GrayScott3D, SingleRankMatchesSlabVersionInitially) {
  GrayScott::Params p{.n = 16};
  p.noise = 0.0;
  GrayScott slab(p, 0, 1);
  GrayScott3D box(p, 0, 1);
  // block() returns the grid by value; keep it alive past the span.
  const vis::UniformGrid sg = slab.block();
  const vis::UniformGrid bg = box.block();
  const auto sv = sg.point_data.find("v")->as<float>();
  const auto bv = bg.point_data.find("v")->as<float>();
  ASSERT_EQ(sv.size(), bv.size());
  for (std::size_t i = 0; i < sv.size(); ++i) ASSERT_EQ(sv[i], bv[i]) << i;
}

TEST(GrayScott3D, ParallelMatchesSerialAcross8Ranks) {
  // 2x2x2 decomposition with six-face halo exchange must reproduce the
  // serial run exactly (noise off so per-rank RNG streams don't differ).
  GrayScott3D::Params p{.n = 12};
  p.steps_per_iteration = 6;
  p.noise = 0.0;

  GrayScott3D serial(p, 0, 1);
  ASSERT_TRUE(serial.step(nullptr).ok());
  vis::UniformGrid sg = serial.block();
  const auto sv = sg.point_data.find("v")->as<float>();

  des::Simulation sim;
  net::Network net(sim);
  constexpr int kRanks = 8;
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < kRanks; ++i) {
    auto& pr = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&pr);
    insts.push_back(std::make_unique<mona::Instance>(pr));
    addrs.push_back(pr.id());
  }
  std::vector<vis::UniformGrid> blocks(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    procs[static_cast<std::size_t>(r)]->spawn("gs3d", [&, r] {
      auto comm = insts[static_cast<std::size_t>(r)]->comm_create(addrs);
      GrayScott3D gs(p, r, kRanks);
      ASSERT_TRUE(gs.step(comm.get()).ok());
      blocks[static_cast<std::size_t>(r)] = gs.block();
    });
  }
  sim.run();

  // Compare every rank's box against the serial solution.
  for (int r = 0; r < kRanks; ++r) {
    const auto& b = blocks[static_cast<std::size_t>(r)];
    const auto bv = b.point_data.find("v")->as<float>();
    const auto x0 = static_cast<std::uint32_t>(b.origin.x);
    const auto y0 = static_cast<std::uint32_t>(b.origin.y);
    const auto z0 = static_cast<std::uint32_t>(b.origin.z);
    std::size_t idx = 0;
    for (std::uint32_t k = 0; k < b.dims[2]; ++k) {
      for (std::uint32_t j = 0; j < b.dims[1]; ++j) {
        for (std::uint32_t i = 0; i < b.dims[0]; ++i, ++idx) {
          ASSERT_NEAR(bv[idx], sv[sg.point_index(x0 + i, y0 + j, z0 + k)],
                      1e-5f)
              << "rank " << r << " at (" << i << "," << j << "," << k << ")";
        }
      }
    }
  }
}

TEST(GrayScott3D, ParallelMatchesSerialNonPowerOfTwo) {
  GrayScott3D::Params p{.n = 12};
  p.steps_per_iteration = 4;
  p.noise = 0.0;
  GrayScott3D serial(p, 0, 1);
  ASSERT_TRUE(serial.step(nullptr).ok());
  vis::UniformGrid sg = serial.block();
  const auto sv = sg.point_data.find("v")->as<float>();

  des::Simulation sim;
  net::Network net(sim);
  constexpr int kRanks = 6;  // 1x2x3 grid
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < kRanks; ++i) {
    auto& pr = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&pr);
    insts.push_back(std::make_unique<mona::Instance>(pr));
    addrs.push_back(pr.id());
  }
  std::vector<vis::UniformGrid> blocks(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    procs[static_cast<std::size_t>(r)]->spawn("gs3d", [&, r] {
      auto comm = insts[static_cast<std::size_t>(r)]->comm_create(addrs);
      GrayScott3D gs(p, r, kRanks);
      ASSERT_TRUE(gs.step(comm.get()).ok());
      blocks[static_cast<std::size_t>(r)] = gs.block();
    });
  }
  sim.run();
  for (int r = 0; r < kRanks; ++r) {
    const auto& b = blocks[static_cast<std::size_t>(r)];
    const auto bv = b.point_data.find("v")->as<float>();
    const auto x0 = static_cast<std::uint32_t>(b.origin.x);
    const auto y0 = static_cast<std::uint32_t>(b.origin.y);
    const auto z0 = static_cast<std::uint32_t>(b.origin.z);
    std::size_t idx = 0;
    for (std::uint32_t k = 0; k < b.dims[2]; ++k)
      for (std::uint32_t j = 0; j < b.dims[1]; ++j)
        for (std::uint32_t i = 0; i < b.dims[0]; ++i, ++idx)
          ASSERT_NEAR(bv[idx], sv[sg.point_index(x0 + i, y0 + j, z0 + k)],
                      1e-5f)
              << "rank " << r;
  }
}

// ------------------------------------------------------------- Mandelbulb

TEST(Mandelbulb, EscapeBehaviour) {
  // Far outside: escapes immediately (first check sees r2 > 4 after 1 iter).
  EXPECT_LE(mandelbulb_escape(2.5f, 0, 0, 8, 30), 2);
  // Origin never escapes.
  EXPECT_EQ(mandelbulb_escape(0, 0, 0, 8, 30), 30);
  // Monotone in max_iterations for interior points.
  EXPECT_EQ(mandelbulb_escape(0.1f, 0.1f, 0.1f, 8, 10),
            std::min(10, mandelbulb_escape(0.1f, 0.1f, 0.1f, 8, 50)));
}

TEST(Mandelbulb, BlockFieldInRange) {
  MandelbulbParams p;
  p.nx = p.ny = p.nz = 12;
  p.total_blocks = 4;
  vis::UniformGrid g = mandelbulb_block(p, 1);
  const auto f = g.point_data.find("iterations")->as<float>();
  ASSERT_EQ(f.size(), g.point_count());
  float lo = 1e9f, hi = -1e9f;
  for (float x : f) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_GE(lo, 0.0f);
  EXPECT_LE(hi, static_cast<float>(p.max_iterations));
  EXPECT_GT(hi, lo);  // the fractal boundary crosses this block
}

TEST(Mandelbulb, BlocksTileTheZAxis) {
  MandelbulbParams p;
  p.nx = p.ny = p.nz = 8;
  p.total_blocks = 4;
  float prev_top = -p.range;
  for (std::uint32_t b = 0; b < 4; ++b) {
    vis::UniformGrid g = mandelbulb_block(p, b);
    EXPECT_NEAR(g.origin.z, prev_top, 1e-5f);
    prev_top = g.origin.z + g.spacing.z * static_cast<float>(p.nz - 1);
  }
  EXPECT_NEAR(prev_top, p.range, 1e-5f);
  EXPECT_THROW(mandelbulb_block(p, 4), std::invalid_argument);
}

TEST(Mandelbulb, DeterministicBlocks) {
  MandelbulbParams p;
  p.nx = p.ny = p.nz = 10;
  p.total_blocks = 2;
  auto a = mandelbulb_block(p, 0);
  auto b = mandelbulb_block(p, 0);
  EXPECT_EQ(a.point_data.find("iterations")->as<float>()[37],
            b.point_data.find("iterations")->as<float>()[37]);
}

// The escape loop as it was before the periodicity exit and the hoisted
// first step: a test-local oracle that the shipped kernel must match on
// every input.
int escape_reference(float cx, float cy, float cz, float power,
                     int max_iterations) {
  float x = 0, y = 0, z = 0;
  for (int it = 0; it < max_iterations; ++it) {
    const float r2 = x * x + y * y + z * z;
    if (r2 > 4.0f) return it;
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

constexpr float kOraclePowers[] = {2.0f, 3.5f, 8.0f, 8.037f, 9.0f};
constexpr int kOracleMaxIterations[] = {1, 10, 30, 100};

TEST(Mandelbulb, EscapeMatchesReferenceOnGrid) {
  constexpr int n = 24;
  for (float power : kOraclePowers) {
    for (int max_it : kOracleMaxIterations) {
      std::vector<int> got, want;
      for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
          for (int i = 0; i < n; ++i) {
            const float cx = -1.5f + 3.0f * static_cast<float>(i) / (n - 1);
            const float cy = -1.5f + 3.0f * static_cast<float>(j) / (n - 1);
            const float cz = -1.5f + 3.0f * static_cast<float>(k) / (n - 1);
            got.push_back(mandelbulb_escape(cx, cy, cz, power, max_it));
            want.push_back(escape_reference(cx, cy, cz, power, max_it));
          }
        }
      }
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(int)),
                0)
          << "power " << power << " max_iterations " << max_it;
    }
  }
}

TEST(Mandelbulb, EscapeMatchesReferenceOnSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float special[] = {0.0f, -0.0f, inf, -inf, nan, 0.25f};
  for (float power : kOraclePowers) {
    for (int max_it : kOracleMaxIterations) {
      for (float cx : special) {
        for (float cy : special) {
          for (float cz : special) {
            const int got = mandelbulb_escape(cx, cy, cz, power, max_it);
            const int want = escape_reference(cx, cy, cz, power, max_it);
            EXPECT_EQ(std::memcmp(&got, &want, sizeof(int)), 0)
                << "c = (" << cx << ", " << cy << ", " << cz << ") power "
                << power << " max_iterations " << max_it << ": " << got
                << " vs " << want;
          }
        }
      }
    }
  }
}

TEST(Mandelbulb, BlockFieldMatchesReference) {
  // mandelbulb_block hoists the first step per block; its field must equal
  // the oracle evaluated at the block's own sample points.
  for (float power : kOraclePowers) {
    MandelbulbParams p;
    p.nx = p.ny = p.nz = 12;
    p.total_blocks = 4;
    p.power = power;
    for (std::uint32_t b = 0; b < p.total_blocks; ++b) {
      const vis::UniformGrid g = mandelbulb_block(p, b);
      const auto got = g.point_data.find("iterations")->as<float>();
      std::vector<float> want(g.point_count());
      for (std::uint32_t k = 0; k < p.nz; ++k) {
        for (std::uint32_t j = 0; j < p.ny; ++j) {
          for (std::uint32_t i = 0; i < p.nx; ++i) {
            const vis::Vec3 c = g.point(i, j, k);
            want[g.point_index(i, j, k)] = static_cast<float>(
                escape_reference(c.x, c.y, c.z, power, p.max_iterations));
          }
        }
      }
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
                0)
          << "power " << power << " block " << b;
    }
  }
}

// --------------------------------------------------------------- DWI proxy

TEST(DwiProxy, CellCountGrowsWithIteration) {
  DwiParams p;
  p.base_edge = 16;
  p.growth_per_iteration = 2;
  std::size_t prev = 0;
  for (int t : {1, 8, 15, 22, 30}) {
    const std::size_t cells = dwi_expected_cells(p, t);
    EXPECT_GT(cells, prev) << "iteration " << t;
    prev = cells;
  }
  // The paper's Fig 1a spans more than an order of magnitude of growth.
  EXPECT_GT(dwi_expected_cells(p, 30), 10 * dwi_expected_cells(p, 1));
}

TEST(DwiProxy, BytesTrackCells) {
  DwiParams p;
  p.base_edge = 16;
  EXPECT_GT(dwi_expected_bytes(p, 20), dwi_expected_bytes(p, 5));
}

TEST(DwiProxy, BlocksPartitionTheIteration) {
  DwiParams p;
  p.base_edge = 20;
  p.growth_per_iteration = 1;
  p.blocks = 8;
  const int t = 10;
  std::size_t total = 0;
  for (std::uint32_t b = 0; b < p.blocks; ++b) {
    vis::UnstructuredGrid g = dwi_block(p, t, b);
    total += g.cell_count();
    // Mesh validity: connectivity references existing points; velocity per
    // cell.
    for (std::size_t c = 0; c < g.cell_count(); ++c) {
      EXPECT_EQ(g.types[c], vis::CellType::hexahedron);
      for (std::uint32_t idx : g.cell(c)) ASSERT_LT(idx, g.points.size());
    }
    ASSERT_NE(g.cell_data.find("v02"), nullptr);
    EXPECT_EQ(g.cell_data.find("v02")->value_count(), g.cell_count());
  }
  EXPECT_EQ(total, dwi_expected_cells(p, t));
}

TEST(DwiProxy, Deterministic) {
  DwiParams p;
  auto a = dwi_block(p, 5, 100);
  auto b = dwi_block(p, 5, 100);
  ASSERT_EQ(a.cell_count(), b.cell_count());
  if (a.cell_count() > 0) {
    EXPECT_EQ(a.cell_data.find("v02")->as<float>()[0],
              b.cell_data.find("v02")->as<float>()[0]);
  }
}

TEST(DwiProxy, VelocityFieldPositive) {
  DwiParams p;
  vis::UnstructuredGrid g = dwi_block(p, 15, 256);
  for (float v : g.cell_data.find("v02")->as<float>()) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LT(v, 2.0f);
  }
}

TEST(DwiProxy, ArgumentValidation) {
  DwiParams p;
  EXPECT_THROW(dwi_block(p, 0, 0), std::invalid_argument);
  EXPECT_THROW(dwi_block(p, 31, 0), std::invalid_argument);
  EXPECT_THROW(dwi_block(p, 1, p.blocks), std::invalid_argument);
}

}  // namespace
}  // namespace colza::apps
