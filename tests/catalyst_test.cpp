// Tests for the Catalyst-style pipeline layer: script parsing, presets, and
// distributed execution over a MoNA communicator and a simmpi world (the
// dependency-injection equivalence at the heart of the paper).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "catalyst/catalyst.hpp"
#include "des/simulation.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"
#include "simmpi/simmpi.hpp"

namespace colza::catalyst {
namespace {

vis::UniformGrid sphere_block(std::uint32_t n, vis::Vec3 origin,
                              vis::Vec3 center) {
  vis::UniformGrid g;
  g.dims = {n, n, n};
  g.origin = origin;
  std::vector<float> f(g.point_count());
  for (std::uint32_t k = 0; k < n; ++k)
    for (std::uint32_t j = 0; j < n; ++j)
      for (std::uint32_t i = 0; i < n; ++i)
        f[g.point_index(i, j, k)] = (g.point(i, j, k) - center).norm();
  g.point_data.add(vis::DataArray::make<float>("dist", f));
  return g;
}

TEST(PipelineScript, FromJsonOverridesDefaults) {
  auto cfg = json::parse(R"({
    "name": "test", "mode": "volume", "field": "rho",
    "iso_values": [0.1, 0.2], "clip": true,
    "clip_normal": [0, 1, 0],
    "width": 128, "height": 64,
    "strategy": "tree", "colormap": "grayscale",
    "range_lo": -1, "range_hi": 2, "opacity": 0.5,
    "resample_dims": [16, 16, 16]
  })");
  PipelineScript s = PipelineScript::from_json(cfg);
  EXPECT_EQ(s.name, "test");
  EXPECT_EQ(s.mode, RenderMode::volume);
  EXPECT_EQ(s.field, "rho");
  EXPECT_EQ(s.iso_values, (std::vector<float>{0.1f, 0.2f}));
  EXPECT_TRUE(s.clip);
  EXPECT_EQ(s.clip_normal, (vis::Vec3{0, 1, 0}));
  EXPECT_EQ(s.image_width, 128);
  EXPECT_EQ(s.image_height, 64);
  EXPECT_EQ(s.strategy, icet::Strategy::tree);
  EXPECT_EQ(s.colormap, render::ColorMapKind::grayscale);
  EXPECT_EQ(s.range_lo, -1.0f);
  EXPECT_EQ(s.range_hi, 2.0f);
  EXPECT_EQ(s.opacity_scale, 0.5f);
  EXPECT_EQ(s.resample_dims[0], 16u);
}

TEST(PipelineScript, EmptyConfigKeepsDefaults) {
  PipelineScript s = PipelineScript::from_json(json::parse(""));
  EXPECT_EQ(s.mode, RenderMode::isosurface);
  EXPECT_EQ(s.image_width, 256);
}

TEST(PipelineScript, PresetsMatchPaperPipelines) {
  const auto gs = PipelineScript::gray_scott();
  EXPECT_EQ(gs.iso_values.size(), 3u);  // multiple levels of isosurfaces
  EXPECT_TRUE(gs.clip);                 // combined with clipping (Fig 3a)
  const auto mb = PipelineScript::mandelbulb();
  EXPECT_EQ(mb.iso_values.size(), 1u);  // a single level of isosurface
  EXPECT_FALSE(mb.clip);
  const auto dwi = PipelineScript::dwi();
  EXPECT_EQ(dwi.mode, RenderMode::volume);  // volume rendering
}

// Runs the same pipeline over N ranks with MoNA communicators; returns the
// root image hash and stats.
struct RunResult {
  std::uint64_t image_hash = 0;
  std::size_t triangles = 0;
};

RunResult run_distributed(int n, const PipelineScript& script) {
  des::Simulation sim;
  net::Network net(sim);
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < n; ++i) {
    auto& p = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&p);
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }
  RunResult result;
  std::vector<render::FrameBuffer> fbs(static_cast<std::size_t>(n));
  std::vector<std::shared_ptr<mona::Communicator>> comms;
  for (int i = 0; i < n; ++i) comms.push_back(insts[static_cast<std::size_t>(i)]->comm_create(addrs));
  for (int i = 0; i < n; ++i) {
    procs[static_cast<std::size_t>(i)]->spawn("rank", [&, i] {
      // Rank i owns a slab of a 16^3 sphere field along z.
      const vis::Vec3 center{8, 8, 8};
      vis::UniformGrid block = sphere_block(
          16, {0, 0, 0}, center);  // all ranks share domain; slab by origin
      block.origin.z = static_cast<float>(i) * 15.0f;
      // Recompute the field for the shifted block.
      auto vals = block.point_data.find("dist")->as_mutable<float>();
      for (std::uint32_t k = 0; k < 16; ++k)
        for (std::uint32_t j = 0; j < 16; ++j)
          for (std::uint32_t ii = 0; ii < 16; ++ii)
            vals[block.point_index(ii, j, k)] =
                (block.point(ii, j, k) - vis::Vec3{8, 8, 8 + 15.0f * static_cast<float>(i)}).norm();
      std::vector<vis::DataSet> blocks{vis::DataSet{block}};
      auto r = execute(script, blocks, *comms[static_cast<std::size_t>(i)],
                       fbs[static_cast<std::size_t>(i)], 1);
      ASSERT_TRUE(r.has_value()) << r.status().to_string();
      if (i == 0) {
        result.image_hash = fbs[0].content_hash();
      }
      result.triangles += r->triangles_rendered;
    });
  }
  sim.run();
  return result;
}

TEST(CatalystExecute, DistributedIsosurfaceProducesImage) {
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {5.0f};
  s.image_width = s.image_height = 64;
  s.range_hi = 10.0f;
  auto r = run_distributed(4, s);
  EXPECT_GT(r.triangles, 500u);
  render::FrameBuffer empty(64, 64);
  EXPECT_NE(r.image_hash, empty.content_hash());
}

TEST(CatalystExecute, SameImageForAnyStrategy) {
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {5.0f};
  s.image_width = s.image_height = 48;
  s.range_hi = 10.0f;
  s.strategy = icet::Strategy::tree;
  const auto tree = run_distributed(3, s).image_hash;
  s.strategy = icet::Strategy::binary_swap;
  const auto bswap = run_distributed(3, s).image_hash;
  s.strategy = icet::Strategy::direct;
  const auto direct = run_distributed(3, s).image_hash;
  EXPECT_EQ(tree, bswap);
  EXPECT_EQ(tree, direct);
}

TEST(CatalystExecute, MonaAndMpiBackendsProduceSameImage) {
  // The paper's dependency-injection claim: the identical pipeline code run
  // over vtkMonaController or vtkMPIController must render the same image.
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {4.0f};
  s.image_width = s.image_height = 32;
  s.range_hi = 10.0f;

  const auto mona_hash = run_distributed(2, s).image_hash;

  des::Simulation sim;
  net::Network net(sim);
  simmpi::MpiJob job(net, 2, 1, simmpi::Vendor::cray_mpich);
  std::uint64_t mpi_hash = 0;
  std::vector<render::FrameBuffer> fbs(2);
  job.launch([&](int rank, mona::Communicator& world) {
    const vis::Vec3 center{8, 8, 8};
    vis::UniformGrid block = sphere_block(16, {0, 0, 0}, center);
    block.origin.z = static_cast<float>(rank) * 15.0f;
    auto vals = block.point_data.find("dist")->as_mutable<float>();
    for (std::uint32_t k = 0; k < 16; ++k)
      for (std::uint32_t j = 0; j < 16; ++j)
        for (std::uint32_t i = 0; i < 16; ++i)
          vals[block.point_index(i, j, k)] =
              (block.point(i, j, k) -
               vis::Vec3{8, 8, 8 + 15.0f * static_cast<float>(rank)})
                  .norm();
    std::vector<vis::DataSet> blocks{vis::DataSet{block}};
    auto r = execute(s, blocks, world, fbs[static_cast<std::size_t>(rank)], 1);
    ASSERT_TRUE(r.has_value());
    if (rank == 0) mpi_hash = fbs[0].content_hash();
  });
  sim.run();
  EXPECT_EQ(mpi_hash, mona_hash);
}

TEST(CatalystExecute, VolumeModeOverUnstructured) {
  des::Simulation sim;
  net::Network net(sim);
  auto& p = net.create_process(0);
  mona::Instance inst(p);
  auto comm = inst.comm_create({p.id()});
  PipelineScript s = PipelineScript::dwi();
  s.field = "v";
  s.image_width = s.image_height = 32;
  s.resample_dims = {12, 12, 12};
  bool ok = false;
  render::FrameBuffer fb;
  p.spawn("rank", [&] {
    // A few tetrahedra with a cell field.
    vis::UnstructuredGrid g;
    g.points = {{0, 0, 0}, {4, 0, 0}, {0, 4, 0}, {0, 0, 4}, {4, 4, 4}};
    const std::uint32_t t1[] = {0, 1, 2, 3};
    const std::uint32_t t2[] = {1, 2, 3, 4};
    g.add_cell(vis::CellType::tetra, t1);
    g.add_cell(vis::CellType::tetra, t2);
    g.cell_data.add(
        vis::DataArray::make<float>("v", std::vector<float>{0.8f, 0.6f}));
    std::vector<vis::DataSet> blocks{vis::DataSet{g}};
    auto r = execute(s, blocks, *comm, fb, 1);
    ASSERT_TRUE(r.has_value()) << r.status().to_string();
    EXPECT_EQ(r->cells_processed, 2u);
    ok = true;
  });
  sim.run();
  ASSERT_TRUE(ok);
  render::FrameBuffer empty(32, 32);
  EXPECT_NE(fb.content_hash(), empty.content_hash());
}

TEST(CatalystExecute, EmptyBlocksStillCollective) {
  // Ranks without data must still participate in compositing.
  des::Simulation sim;
  net::Network net(sim);
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < 3; ++i) {
    auto& p = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&p);
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {4.0f};
  s.image_width = s.image_height = 24;
  s.range_hi = 10.0f;
  int done = 0;
  std::vector<render::FrameBuffer> fbs(3);
  std::vector<std::shared_ptr<mona::Communicator>> comms;
  for (int i = 0; i < 3; ++i) comms.push_back(insts[static_cast<std::size_t>(i)]->comm_create(addrs));
  for (int i = 0; i < 3; ++i) {
    procs[static_cast<std::size_t>(i)]->spawn("rank", [&, i] {
      std::vector<vis::DataSet> blocks;
      if (i == 1) {
        blocks.emplace_back(sphere_block(12, {0, 0, 0}, {6, 6, 6}));
      }
      auto r = execute(s, blocks, *comms[static_cast<std::size_t>(i)],
                       fbs[static_cast<std::size_t>(i)], 1);
      ASSERT_TRUE(r.has_value());
      ++done;
    });
  }
  sim.run();
  EXPECT_EQ(done, 3);
}

TEST(CatalystExecute, SavesImageWhenConfigured) {
  des::Simulation sim;
  net::Network net(sim);
  auto& p = net.create_process(0);
  mona::Instance inst(p);
  auto comm = inst.comm_create({p.id()});
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {3.0f};
  s.image_width = s.image_height = 16;
  s.range_hi = 10.0f;
  s.save_path = "/tmp/colza_catalyst_test_{}.ppm";
  p.spawn("rank", [&] {
    std::vector<vis::DataSet> blocks{
        vis::DataSet{sphere_block(12, {0, 0, 0}, {6, 6, 6})}};
    render::FrameBuffer fb;
    auto r = execute(s, blocks, *comm, fb, 42);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->wrote_image);
  });
  sim.run();
  std::FILE* f = std::fopen("/tmp/colza_catalyst_test_42.ppm", "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove("/tmp/colza_catalyst_test_42.ppm");
}

TEST(CatalystExecute, ChargesVirtualTimeForCompute) {
  des::Simulation sim;
  net::Network net(sim);
  auto& p = net.create_process(0);
  mona::Instance inst(p);
  auto comm = inst.comm_create({p.id()});
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {5.0f};
  s.image_width = s.image_height = 64;
  s.range_hi = 20.0f;
  des::Time elapsed = 0;
  p.spawn("rank", [&] {
    std::vector<vis::DataSet> blocks{
        vis::DataSet{sphere_block(24, {0, 0, 0}, {12, 12, 12})}};
    render::FrameBuffer fb;
    const des::Time t0 = sim.now();
    ASSERT_TRUE(execute(s, blocks, *comm, fb, 1).has_value());
    elapsed = sim.now() - t0;
  });
  sim.run();
  EXPECT_GT(elapsed, 0u);  // filtering/rendering cost landed on the clock
}

}  // namespace
}  // namespace colza::catalyst
