// Integration tests for the Colza core: backend registry, the full
// activate/stage/execute/deactivate protocol against a live staging area,
// 2PC view agreement, the admin interface, elastic scale-up/down while a
// simulation runs, and the freeze semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "colza/admin.hpp"
#include "colza/backend.hpp"
#include "colza/catalyst_backend.hpp"
#include "colza/histogram_backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "colza/server.hpp"
#include "common/checksum.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "vis/data.hpp"

namespace colza {
namespace {

using des::milliseconds;
using des::seconds;

// A trivial recording backend used to observe protocol behaviour.
class RecordingBackend final : public Backend {
 public:
  explicit RecordingBackend(Context ctx) : Backend(std::move(ctx)) {
    instances().push_back(this);
  }
  ~RecordingBackend() override {
    auto& v = instances();
    v.erase(std::remove(v.begin(), v.end(), this), v.end());
  }

  Status activate(std::uint64_t it) override {
    log.push_back("activate:" + std::to_string(it));
    return Status::Ok();
  }
  Status stage(StagedBlock b) override {
    log.push_back("stage:" + std::to_string(b.block_id));
    bytes += b.data.size();
    return Status::Ok();
  }
  Status execute(std::uint64_t it) override {
    log.push_back("execute:" + std::to_string(it));
    if (comm_ != nullptr) last_comm_size = comm_->size();
    return Status::Ok();
  }
  Status deactivate(std::uint64_t it) override {
    log.push_back("deactivate:" + std::to_string(it));
    return Status::Ok();
  }

  static std::vector<RecordingBackend*>& instances() {
    static std::vector<RecordingBackend*> v;
    return v;
  }

  std::vector<std::string> log;
  std::size_t bytes = 0;
  int last_comm_size = 0;
};

COLZA_REGISTER_BACKEND("recording", RecordingBackend)

// Harness: staging area with n servers (instant launch for determinism) and
// one client process.
class ColzaWorld {
 public:
  explicit ColzaWorld(int n, std::uint64_t seed = 11)
      : sim(des::SimConfig{.seed = seed}), net(sim) {
    ServerConfig cfg;
    cfg.init_cost = milliseconds(50);
    LaunchModel instant{des::milliseconds(10), 0.0, des::milliseconds(10)};
    area = std::make_unique<StagingArea>(net, cfg, instant, seed);
    area->launch_initial(n, /*base_node=*/100);
    sim.run_until(seconds(2));  // daemons up and converged
    client_proc = &net.create_process(0);
    client = std::make_unique<Client>(*client_proc);
  }

  // Creates pipeline `name` of `type` on every alive server.
  void create_everywhere(const std::string& name, const std::string& type,
                         const std::string& cfg = "") {
    client_proc->spawn("admin", [this, name, type, cfg] {
      Admin admin(client->engine());
      for (net::ProcId s : area->alive_addresses()) {
        ASSERT_TRUE(admin.create_pipeline(s, name, type, cfg).ok());
      }
    });
    sim.run();
  }

  des::Simulation sim;
  net::Network net;
  std::unique_ptr<StagingArea> area;
  net::Process* client_proc = nullptr;
  std::unique_ptr<Client> client;
};

// ----------------------------------------------------------------- registry

TEST(BackendRegistry, CreateByName) {
  EXPECT_TRUE(BackendRegistry::has("recording"));
  EXPECT_TRUE(BackendRegistry::has("catalyst"));
  EXPECT_FALSE(BackendRegistry::has("nope"));
  auto r = BackendRegistry::create("nope", {});
  EXPECT_EQ(r.status().code(), StatusCode::not_found);
}

// ----------------------------------------------------------------- protocol

TEST(Colza, FullIterationProtocol) {
  ColzaWorld w(4);
  w.create_everywhere("pipe", "recording");
  bool done = false;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value()) << h.status().to_string();
    EXPECT_EQ(h->server_count(), 4u);

    ASSERT_TRUE(h->activate(1).ok());
    std::vector<std::byte> data(4096, std::byte{7});
    for (std::uint64_t b = 0; b < 8; ++b) {
      ASSERT_TRUE(h->stage(1, b, data).ok());
    }
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    done = true;
  });
  w.sim.run();
  ASSERT_TRUE(done);

  // Every server saw activate/execute/deactivate; blocks were distributed
  // round-robin (2 each).
  ASSERT_EQ(RecordingBackend::instances().size(), 4u);
  for (auto* b : RecordingBackend::instances()) {
    EXPECT_EQ(b->log.front(), "activate:1");
    EXPECT_EQ(b->log.back(), "deactivate:1");
    int stages = 0;
    for (const auto& e : b->log) stages += e.rfind("stage:", 0) == 0 ? 1 : 0;
    EXPECT_EQ(stages, 2);
    EXPECT_EQ(b->bytes, 2 * 4096u);
    EXPECT_EQ(b->last_comm_size, 4);
  }
}

TEST(Colza, StageDataArrivesIntact) {
  ColzaWorld w(2);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    // Stage a real dataset and check it round-trips through RDMA.
    vis::UniformGrid g;
    g.dims = {8, 8, 8};
    std::vector<float> f(g.point_count());
    for (std::size_t i = 0; i < f.size(); ++i) f[i] = static_cast<float>(i);
    g.point_data.add(vis::DataArray::make<float>("field", f));
    ASSERT_TRUE(h->stage(1, 0, vis::DataSet{g}).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  w.sim.run();
  bool found = false;
  for (auto* b : RecordingBackend::instances()) {
    if (b->bytes == 0) continue;
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Colza, StageToUnknownPipelineFails) {
  ColzaWorld w(2);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "ghost");
    ASSERT_TRUE(h.has_value());  // lookup only fetches the view
    std::vector<std::byte> data(16);
    EXPECT_EQ(h->stage(1, 0, data).code(), StatusCode::not_found);
  });
  w.sim.run();
}

TEST(Colza, ActivateUnknownPipelineAborts2pc) {
  ColzaWorld w(2);
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "ghost");
    ASSERT_TRUE(h.has_value());
    EXPECT_FALSE(h->activate(1).ok());
  });
  w.sim.run();
}

TEST(Colza, NonBlockingOpsComplete) {
  ColzaWorld w(3);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    auto a = h->iactivate(1);
    ASSERT_TRUE(a.wait().ok());
    std::vector<std::byte> d1(512), d2(512);
    auto s1 = h->istage(1, 0, d1);
    auto s2 = h->istage(1, 1, d2);
    ASSERT_TRUE(s1.wait().ok());
    ASSERT_TRUE(s2.wait().ok());
    auto e = h->iexecute(1);
    ASSERT_TRUE(e.wait().ok());
    ASSERT_TRUE(h->ideactivate(1).wait().ok());
  });
  w.sim.run();
}

TEST(Colza, CustomDistributionPolicy) {
  ColzaWorld w(4);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    // Everything to server 0 regardless of block id.
    h->set_distribution_policy([](std::uint64_t, std::size_t) { return 0u; });
    ASSERT_TRUE(h->activate(1).ok());
    std::vector<std::byte> d(128);
    for (std::uint64_t b = 0; b < 6; ++b) ASSERT_TRUE(h->stage(1, b, d).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  w.sim.run();
  int with_data = 0;
  for (auto* b : RecordingBackend::instances()) {
    if (b->bytes > 0) {
      ++with_data;
      EXPECT_EQ(b->bytes, 6 * 128u);
    }
  }
  EXPECT_EQ(with_data, 1);
}

// ----------------------------------------------------------------- admin

TEST(Colza, AdminCreateListDestroy) {
  ColzaWorld w(2);
  w.client_proc->spawn("admin", [&] {
    Admin admin(w.client->engine());
    const net::ProcId s = w.area->alive_addresses()[0];
    ASSERT_TRUE(admin.create_pipeline(s, "p1", "recording").ok());
    ASSERT_TRUE(admin.create_pipeline(s, "p2", "recording", "{}").ok());
    EXPECT_EQ(admin.create_pipeline(s, "p1", "recording").code(),
              StatusCode::already_exists);
    EXPECT_EQ(admin.create_pipeline(s, "p3", "no-such-type").code(),
              StatusCode::not_found);
    EXPECT_EQ(
        admin.create_pipeline(s, "p3", "recording", "{bad json").code(),
        StatusCode::invalid_argument);
    auto names = admin.list_pipelines(s);
    ASSERT_TRUE(names.has_value());
    EXPECT_EQ(*names, (std::vector<std::string>{"p1", "p2"}));
    ASSERT_TRUE(admin.destroy_pipeline(s, "p1").ok());
    EXPECT_EQ(admin.destroy_pipeline(s, "p1").code(), StatusCode::not_found);
  });
  w.sim.run();
}

// Regression: destroy a pipeline while its viewer render is in flight. The
// tier's render fiber pops the producer and then yields on the modeled
// render charge; destroy_pipeline lands inside that window and frees the
// backend. The producer holds only a weak_ptr, so the already-popped render
// serves an empty frame instead of calling into freed memory.
TEST(Colza, DestroyPipelineDuringInFlightRender) {
  ColzaWorld w(2);
  w.create_everywhere("pipe", "recording");
  Server* srv = nullptr;
  for (const auto& s : w.area->servers()) {
    if (s->alive()) {
      srv = s.get();
      break;
    }
  }
  ASSERT_NE(srv, nullptr);
  w.client_proc->spawn("driver", [&] {
    viewer::ViewerTier& tier = srv->viewer();
    const std::uint64_t id = tier.connect(/*quality=*/0);
    ASSERT_TRUE(tier.subscribe(id, "pipe", 0).ok());
    tier.publish("pipe", 1);
    // Yield long enough for the render fiber to pop the producer but less
    // than its modeled render cost, so the destroy lands mid-render.
    w.sim.sleep_for(des::microseconds(50));
    ASSERT_TRUE(srv->destroy_pipeline("pipe").ok());
    tier.quiesce();
  });
  w.sim.run();
}

TEST(Colza, AdminLeaveShrinksGroup) {
  ColzaWorld w(4);
  w.client_proc->spawn("admin", [&] {
    Admin admin(w.client->engine());
    const auto victims = w.area->alive_addresses();
    ASSERT_TRUE(admin.request_leave(victims[2]).ok());
  });
  w.sim.run();
  w.sim.run_until(w.sim.now() + seconds(15));
  EXPECT_EQ(w.area->alive_count(), 3u);
  for (const auto& s : w.area->servers()) {
    if (s->alive()) {
      EXPECT_EQ(s->group().size(), 3u);
    }
  }
}


TEST(Colza, AdminStatsReflectExecutions) {
  ColzaWorld w(2);
  w.create_everywhere("render", "catalyst",
                      R"({"mode":"isosurface","field":"f","width":16,"height":16})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "render");
    ASSERT_TRUE(h.has_value());
    // Two iterations with a tiny grid block.
    vis::UniformGrid g;
    g.dims = {6, 6, 6};
    std::vector<float> f(g.point_count());
    for (std::size_t i = 0; i < f.size(); ++i)
      f[i] = static_cast<float>(i % 9);
    g.point_data.add(vis::DataArray::make<float>("f", f));
    for (std::uint64_t it = 1; it <= 2; ++it) {
      ASSERT_TRUE(h->activate(it).ok());
      ASSERT_TRUE(h->stage(it, 0, vis::DataSet{g}).ok());
      ASSERT_TRUE(h->execute(it).ok());
      ASSERT_TRUE(h->deactivate(it).ok());
    }
    Admin admin(w.client->engine());
    auto stats = admin.get_stats(h->view()[0], "render");
    ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
    EXPECT_EQ(stats->string_or("pipeline", ""), "pipeline");
    EXPECT_DOUBLE_EQ(stats->number_or("executions", 0), 2.0);
    const auto* iters = stats->find("iterations");
    ASSERT_NE(iters, nullptr);
    ASSERT_EQ(iters->as_array().size(), 2u);
    EXPECT_DOUBLE_EQ(iters->as_array()[0].number_or("comm_size", 0), 2.0);
    // Unknown pipeline errors cleanly.
    EXPECT_EQ(admin.get_stats(h->view()[0], "nope").status().code(),
              StatusCode::not_found);
  });
  w.sim.run();
}


// ------------------------------------------------------- histogram backend

TEST(Histogram, DistributedMatchesSerialReference) {
  ColzaWorld w(3);
  w.create_everywhere(
      "hist", "histogram",
      R"({"field":"v","bins":8,"range_lo":0.0,"range_hi":8.0})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "hist");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    // 6 blocks; block b carries 10 values all equal to b (bins are [b,b+1)).
    for (std::uint64_t b = 0; b < 6; ++b) {
      vis::UniformGrid g;
      g.dims = {10, 2, 2};  // 40 points... use exactly 10 values? points=40
      g.dims = {10, 1, 1};
      // A 10x1x1 grid has 10 points.
      g.point_data.add(vis::DataArray::make<float>(
          "v", std::vector<float>(10, static_cast<float>(b) + 0.5f)));
      ASSERT_TRUE(h->stage(1, b, vis::DataSet{g}).ok());
    }
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    Admin admin(w.client->engine());
    auto stats = admin.get_stats(h->view()[0], "hist");
    ASSERT_TRUE(stats.has_value());
    const auto* iters = stats->find("iterations");
    ASSERT_NE(iters, nullptr);
    ASSERT_EQ(iters->as_array().size(), 1u);
    const auto& rec = iters->as_array()[0];
    EXPECT_DOUBLE_EQ(rec.number_or("values", 0), 60.0);
    EXPECT_DOUBLE_EQ(rec.number_or("min", -1), 0.5);
    EXPECT_DOUBLE_EQ(rec.number_or("max", -1), 5.5);
    const auto* counts = rec.find("counts");
    ASSERT_NE(counts, nullptr);
    ASSERT_EQ(counts->as_array().size(), 8u);
    for (int bin = 0; bin < 8; ++bin) {
      const double expect = bin < 6 ? 10.0 : 0.0;
      EXPECT_DOUBLE_EQ(counts->as_array()[static_cast<std::size_t>(bin)]
                           .as_number(),
                       expect)
          << "bin " << bin;
    }
  });
  w.sim.run();
}

TEST(Histogram, AllServersAgreeOnGlobalResult) {
  ColzaWorld w(4);
  w.create_everywhere("hist", "histogram",
                      R"({"field":"v","bins":4,"range_lo":0,"range_hi":4})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "hist");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    for (std::uint64_t b = 0; b < 8; ++b) {
      vis::UniformGrid g;
      g.dims = {4, 1, 1};
      g.point_data.add(vis::DataArray::make<float>(
          "v", std::vector<float>{0.5f, 1.5f, 2.5f, 3.5f}));
      ASSERT_TRUE(h->stage(1, b, vis::DataSet{g}).ok());
    }
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    // Every server holds the identical global histogram (allreduce).
    Admin admin(w.client->engine());
    for (net::ProcId server : h->view()) {
      auto stats = admin.get_stats(server, "hist");
      ASSERT_TRUE(stats.has_value());
      const auto& rec = stats->find("iterations")->as_array()[0];
      EXPECT_DOUBLE_EQ(rec.number_or("values", 0), 32.0);
      for (const auto& c : rec.find("counts")->as_array()) {
        EXPECT_DOUBLE_EQ(c.as_number(), 8.0);
      }
    }
  });
  w.sim.run();
}

TEST(Histogram, MissingFieldFailsStage) {
  ColzaWorld w(2);
  w.create_everywhere("hist", "histogram", R"({"field":"nope"})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "hist");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    vis::UniformGrid g;
    g.dims = {4, 1, 1};
    g.point_data.add(
        vis::DataArray::make<float>("v", std::vector<float>(4, 1.0f)));
    EXPECT_EQ(h->stage(1, 0, vis::DataSet{g}).code(), StatusCode::not_found);
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  w.sim.run();
}


TEST(Histogram, StateExportImportMergesByIteration) {
  Backend::Context ctx;
  auto a = BackendRegistry::create("histogram", std::move(ctx));
  ASSERT_TRUE(a.has_value());
  auto* ha = dynamic_cast<HistogramBackend*>(a->get());
  ASSERT_NE(ha, nullptr);

  Backend::Context ctx2;
  auto b = BackendRegistry::create("histogram", std::move(ctx2));
  auto* hb = dynamic_cast<HistogramBackend*>(b->get());

  // Hand-craft results: a has iterations {1, 2}; b has {2, 3}.
  // (import merges: duplicates kept once, union sorted.)
  HistogramBackend::Result r1;
  r1.iteration = 1;
  r1.counts = {1, 2};
  r1.total_values = 3;
  HistogramBackend::Result r2 = r1;
  r2.iteration = 2;
  HistogramBackend::Result r3 = r1;
  r3.iteration = 3;
  ASSERT_TRUE(ha->import_state(pack(std::vector<HistogramBackend::Result>{r1, r2})).ok());
  ASSERT_TRUE(hb->import_state(pack(std::vector<HistogramBackend::Result>{r2, r3})).ok());

  auto state = hb->export_state();
  ASSERT_TRUE(ha->import_state(state).ok());
  ASSERT_EQ(ha->results().size(), 3u);
  EXPECT_EQ(ha->results()[0].iteration, 1u);
  EXPECT_EQ(ha->results()[1].iteration, 2u);
  EXPECT_EQ(ha->results()[2].iteration, 3u);
  // Garbage state is rejected, not crashed on.
  std::vector<std::byte> garbage(5, std::byte{0xff});
  EXPECT_EQ(ha->import_state(garbage).code(), StatusCode::invalid_argument);
}

// Out-of-range values bin without undefined behaviour: below range_lo (and
// NaN) in bin 0, at or above range_hi -- however far, infinity included --
// in the top bin.
TEST(Histogram, OutOfRangeAndNonFiniteValuesClampToEdgeBins) {
  ColzaWorld w(2);
  w.create_everywhere("hist", "histogram",
                      R"({"field":"v","bins":4,"range_lo":0,"range_hi":1})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "hist");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    const float inf = std::numeric_limits<float>::infinity();
    vis::UniformGrid g;
    g.dims = {7, 1, 1};
    g.point_data.add(vis::DataArray::make<float>(
        "v", std::vector<float>{0.0f, 1.0f, 2.0f, 1e30f, inf, -inf,
                                std::nanf("")}));
    ASSERT_TRUE(h->stage(1, 0, vis::DataSet{g}).ok());
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    // The stats JSON carries the infinite extrema as null.
    Admin admin(w.client->engine());
    for (net::ProcId server : h->view()) {
      auto stats = admin.get_stats(server, "hist");
      ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
      const auto& rec = stats->find("iterations")->as_array()[0];
      EXPECT_DOUBLE_EQ(rec.number_or("values", 0), 7.0);
      EXPECT_TRUE(rec.find("min")->is_null());
      EXPECT_TRUE(rec.find("max")->is_null());
      const auto& counts = rec.find("counts")->as_array();
      ASSERT_EQ(counts.size(), 4u);
      EXPECT_DOUBLE_EQ(counts[0].as_number(), 3.0);
      EXPECT_DOUBLE_EQ(counts[3].as_number(), 4.0);
    }
  });
  w.sim.run();
  for (auto& s : w.area->servers()) {
    auto* hist = dynamic_cast<HistogramBackend*>(s->pipeline("hist"));
    ASSERT_NE(hist, nullptr);
    ASSERT_EQ(hist->results().size(), 1u);
    const auto& r = hist->results()[0];
    EXPECT_EQ(r.total_values, 7u);
    // {lo, -inf, NaN} | - | - | {hi, 2*hi, 1e30, +inf}
    EXPECT_EQ(r.counts, (std::vector<std::uint64_t>{3, 0, 0, 4}));
    EXPECT_EQ(r.min_seen, -std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.max_seen, std::numeric_limits<double>::infinity());
  }
}

TEST(Histogram, NonFloatFieldFailsStage) {
  ColzaWorld w(2);
  w.create_everywhere("hist", "histogram", R"({"field":"v"})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "hist");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    vis::UniformGrid g;
    g.dims = {4, 1, 1};
    g.point_data.add(
        vis::DataArray::make<double>("v", std::vector<double>(4, 0.5)));
    EXPECT_EQ(h->stage(1, 0, vis::DataSet{g}).code(),
              StatusCode::invalid_argument);
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  w.sim.run();
}

// The sequential binning loop that HistogramBackend::accumulate replaced,
// verbatim apart from its signature: the bitwise reference for the 4-lane
// kernel.
void reference_accumulate(std::span<const float> values, float lo_, float hi_,
                          std::uint32_t bins_, HistogramBackend::Local& local) {
  const float width = (hi_ - lo_) / static_cast<float>(bins_);
  for (float v : values) {
    local.min_seen = std::min<double>(local.min_seen, v);
    local.max_seen = std::max<double>(local.max_seen, v);
    ++local.values;
    // Range tests stay in float so the integer cast only ever sees a value
    // in [0, bins_]: below range (and NaN, which fails every comparison)
    // counts in bin 0, at or above range_hi in the top bin.
    if (!(v >= lo_) || width <= 0) {
      ++local.counts[0];
    } else if (v >= hi_) {
      ++local.counts[bins_ - 1];
    } else {
      const auto bin = std::min<std::uint32_t>(
          bins_ - 1, static_cast<std::uint32_t>((v - lo_) / width));
      ++local.counts[bin];
    }
  }
}

// Runs `blocks` through both kernels into one carried accumulation each and
// compares counts, value count and both extrema bitwise after every block.
void expect_kernel_matches_reference(
    const std::vector<std::vector<float>>& blocks, float lo, float hi,
    std::uint32_t bins, const std::string& what) {
  HistogramBackend::Local got, want;
  got.counts.assign(bins, 0);
  want.counts.assign(bins, 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    HistogramBackend::accumulate(blocks[b], lo, hi, bins, got);
    reference_accumulate(blocks[b], lo, hi, bins, want);
    const std::string where = what + " block " + std::to_string(b) +
                              " length " + std::to_string(blocks[b].size());
    ASSERT_EQ(std::memcmp(got.counts.data(), want.counts.data(),
                          bins * sizeof(std::uint64_t)),
              0)
        << where;
    EXPECT_EQ(got.values, want.values) << where;
    EXPECT_EQ(std::memcmp(&got.min_seen, &want.min_seen, sizeof(double)), 0)
        << where << ": min " << got.min_seen << " vs " << want.min_seen;
    EXPECT_EQ(std::memcmp(&got.max_seen, &want.max_seen, sizeof(double)), 0)
        << where << ": max " << got.max_seen << " vs " << want.max_seen;
  }
}

TEST(Histogram, VectorKernelMatchesSequentialLoopBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  struct Range {
    float lo, hi;
  };
  const Range ranges[] = {{0.0f, 1.0f},    {-2.0f, 3.0f}, {1.0f, 0.0f},
                          {0.5f, 0.5f},    {-0.0f, 0.0f}, {0.0f, 1e-38f},
                          {-1e30f, 1e30f}};
  Rng rng(59);
  for (const Range& r : ranges) {
    for (std::uint32_t bins : {1u, 7u, 32u, 65536u}) {
      const float specials[] = {std::nanf(""),
                                -std::nanf(""),
                                inf,
                                -inf,
                                0.0f,
                                -0.0f,
                                denorm,
                                -denorm,
                                std::numeric_limits<float>::min() / 2,
                                r.lo,
                                r.hi,
                                std::nextafter(r.hi, 0.0f),
                                std::nextafter(r.lo, -inf)};
      auto draw = [&] {
        if (rng.below(3) == 0) return specials[rng.below(std::size(specials))];
        // Mostly in range, some on either side of it.
        const double span = static_cast<double>(r.hi) - r.lo;
        return static_cast<float>(r.lo + (rng.uniform() * 1.4 - 0.2) * span);
      };
      std::vector<std::vector<float>> blocks;
      for (std::size_t n = 0; n <= 9; ++n) {
        for (int rep = 0; rep < 4; ++rep) {
          std::vector<float> block(n);
          for (float& v : block) v = draw();
          blocks.push_back(std::move(block));
        }
      }
      for (std::size_t n : {64u, 1001u}) {
        std::vector<float> block(n);
        for (float& v : block) v = draw();
        blocks.push_back(std::move(block));
      }
      expect_kernel_matches_reference(
          blocks, r.lo, r.hi, bins,
          "range [" + std::to_string(r.lo) + ", " + std::to_string(r.hi) +
              ") bins " + std::to_string(bins));
    }
  }
}

// Which zero wins an extremum: the first one in order, across blocks too,
// whichever lane the kernel saw it in.
TEST(Histogram, VectorKernelKeepsTheFirstZeroExtremum) {
  const std::vector<std::vector<std::vector<float>>> cases = {
      {{0.0f, 0.0f, 0.0f}, {-0.0f, -0.0f, -0.0f, -0.0f, -0.0f}},
      {{-0.0f, -0.0f}, {0.0f, 0.0f, 0.0f, 0.0f, 0.0f}},
      {{5.0f, 5.0f, 5.0f, -0.0f, 0.0f, 7.0f}},
      {{5.0f, 0.0f, 5.0f, 5.0f, -0.0f}},
      {{-1.0f, -0.0f, -1.0f, -1.0f, 0.0f, -2.0f, -0.0f}},
      {{std::nanf(""), 0.0f, std::nanf(""), std::nanf(""), -0.0f}},
      {{}, {-0.0f}, {}, {0.0f}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::uint32_t bins : {1u, 32u}) {
      expect_kernel_matches_reference(cases[c], 0.0f, 1.0f, bins,
                                      "case " + std::to_string(c));
    }
  }
}

// ------------------------------------------------------- staged-block store

StagedBlock block_of(std::uint64_t iteration, std::uint64_t id,
                     const std::string& field, std::uint8_t fill) {
  StagedBlock b;
  b.iteration = iteration;
  b.block_id = id;
  b.field_name = field;
  b.data.assign(16, std::byte{fill});
  b.checksum = common::crc32c(b.data);
  return b;
}

TEST(StagedBlockStore, PutNeedsAnOpenSlotAndReopenDropsBlocks) {
  StagedBlockStore store;
  EXPECT_EQ(store.put(block_of(1, 0, "v", 1)).code(),
            StatusCode::failed_precondition);
  store.open(1);
  ASSERT_TRUE(store.put(block_of(1, 0, "v", 1)).ok());
  ASSERT_TRUE(store.put(block_of(1, 1, "v", 2)).ok());
  // Keyed: a restage of (0, "v") replaces the earlier copy.
  ASSERT_TRUE(store.put(block_of(1, 0, "v", 3)).ok());
  ASSERT_EQ(store.slot(1)->size(), 2u);
  EXPECT_EQ(store.find(1, 0, "v")->data[0], std::byte{3});
  // Re-opening the iteration starts from an empty slot.
  store.open(1);
  EXPECT_EQ(store.slot(1)->size(), 0u);
  EXPECT_EQ(store.find(1, 0, "v"), nullptr);
  store.close(1);
  EXPECT_FALSE(store.is_open(1));
  EXPECT_EQ(store.put(block_of(1, 0, "v", 1)).code(),
            StatusCode::failed_precondition);
}

// A pipeline that keeps every Backend default, to exercise the base's
// store-backed stage / integrity_scan / stored_payload.
class StoreOnlyBackend final : public Backend {
 public:
  using Backend::Backend;
  Status execute(std::uint64_t) override { return Status::Ok(); }
};

TEST(StagedBlockStore, ScanIsSortedAndSeesStoredPayloadRot) {
  StoreOnlyBackend b(Backend::Context{});
  ASSERT_TRUE(b.activate(3).ok());
  ASSERT_TRUE(b.stage(block_of(3, 5, "v", 1)).ok());
  ASSERT_TRUE(b.stage(block_of(3, 1, "w", 2)).ok());
  ASSERT_TRUE(b.stage(block_of(3, 1, "v", 3)).ok());
  ASSERT_TRUE(b.stage(block_of(3, 2, "v", 4)).ok());
  const std::vector<std::pair<std::uint64_t, std::string>> order = {
      {1, "v"}, {1, "w"}, {2, "v"}, {5, "v"}};
  auto scan = b.integrity_scan(3);
  ASSERT_EQ(scan.size(), order.size());
  for (std::size_t i = 0; i < scan.size(); ++i) {
    EXPECT_EQ(scan[i].block_id, order[i].first);
    EXPECT_EQ(scan[i].field_name, order[i].second);
    EXPECT_TRUE(scan[i].valid);
  }

  std::vector<std::byte>* payload = b.stored_payload(3, 2, "v");
  ASSERT_NE(payload, nullptr);
  (*payload)[7] ^= std::byte{0x10};
  scan = b.integrity_scan(3);
  for (const BlockInfo& info : scan) {
    EXPECT_EQ(info.valid, info.block_id != 2) << "block " << info.block_id;
  }
  EXPECT_EQ(b.stored_payload(3, 9, "v"), nullptr);
  ASSERT_TRUE(b.deactivate(3).ok());
  EXPECT_TRUE(b.integrity_scan(3).empty());
}

TEST(StagedBlockStore, ForEachVerifiedStopsAtFirstRottenBlock) {
  des::Simulation sim;
  StagedBlockStore store;
  store.open(1);
  for (std::uint64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(store.put(block_of(1, id, "v", 7)).ok());
  }
  store.find(1, 2, "v")->data[0] = std::byte{0};  // rot block 2 in place
  std::vector<std::uint64_t> used;
  const Status s = store.for_each_verified(
      sim, 1,
      [&](const StagedBlockStore::Key& key, std::span<const std::byte>) {
        used.push_back(key.first);
        return Status::Ok();
      });
  EXPECT_EQ(s.code(), StatusCode::corrupt);
  EXPECT_EQ(s.detail(), 3u);  // block_id + 1
  EXPECT_EQ(used, (std::vector<std::uint64_t>{0, 1}));
}

// ------------------------------------------------------------- elasticity

TEST(Colza, ScaleUpBetweenIterationsGrowsComm) {
  ColzaWorld w(2);
  w.create_everywhere("pipe", "recording");
  int comm_before = 0, comm_after = 0;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    comm_before = RecordingBackend::instances().front()->last_comm_size;

    // A third server joins; wait for gossip to settle, then create the
    // pipeline on it and run another iteration.
    bool joined = false;
    w.area->launch_one(200, [&](Server&) { joined = true; });
    while (!joined) w.sim.sleep_for(seconds(1));
    w.sim.sleep_for(seconds(8));  // membership propagation
    Admin admin(w.client->engine());
    for (net::ProcId s : w.area->alive_addresses()) {
      (void)admin.create_pipeline(s, "pipe", "recording");  // new server only
    }
    ASSERT_TRUE(h->activate(2).ok());
    ASSERT_TRUE(h->execute(2).ok());
    ASSERT_TRUE(h->deactivate(2).ok());
    comm_after = RecordingBackend::instances().front()->last_comm_size;
    EXPECT_EQ(h->server_count(), 3u);
  });
  w.sim.run();
  EXPECT_EQ(comm_before, 2);
  EXPECT_EQ(comm_after, 3);
}

TEST(Colza, ScaleDownBetweenIterationsShrinksComm) {
  ColzaWorld w(4);
  w.create_everywhere("pipe", "recording");
  int comm_after = -1;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    Admin admin(w.client->engine());
    ASSERT_TRUE(admin.request_leave(h->view()[3]).ok());
    w.sim.sleep_for(seconds(12));  // leave propagates

    ASSERT_TRUE(h->activate(2).ok());
    ASSERT_TRUE(h->execute(2).ok());
    ASSERT_TRUE(h->deactivate(2).ok());
    EXPECT_EQ(h->server_count(), 3u);
    for (auto* b : RecordingBackend::instances()) {
      if (!b->log.empty() && b->log.back() == "deactivate:2")
        comm_after = b->last_comm_size;
    }
  });
  w.sim.run();
  EXPECT_EQ(comm_after, 3);
}

TEST(Colza, ActivateRetriesAcrossViewChange) {
  // A server joins right around activate time; the client's stale view makes
  // the first 2PC round abort, and the retry must succeed.
  ColzaWorld w(3);
  w.create_everywhere("pipe", "recording");
  bool ok = false;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    // Let a 4th server join while we are not looking.
    bool joined = false;
    w.area->launch_one(201, [&](Server&) { joined = true; });
    while (!joined) w.sim.sleep_for(seconds(1));
    w.sim.sleep_for(seconds(8));
    Admin admin(w.client->engine());
    for (net::ProcId s : w.area->alive_addresses()) {
      (void)admin.create_pipeline(s, "pipe", "recording");
    }
    // Our handle still has the 3-server view; activate must reconcile.
    EXPECT_EQ(h->server_count(), 3u);
    Status s = h->activate(5);
    ASSERT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(h->server_count(), 4u);
    ASSERT_TRUE(h->execute(5).ok());
    ASSERT_TRUE(h->deactivate(5).ok());
    ok = true;
  });
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(Colza, LeaveDeferredWhileFrozen) {
  // An admin leave arriving during an active iteration must not take effect
  // until deactivate (paper S II-B: activate freezes the group).
  ColzaWorld w(3);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    const net::ProcId victim = h->view()[2];
    Admin admin(w.client->engine());
    ASSERT_TRUE(admin.request_leave(victim).ok());
    w.sim.sleep_for(seconds(2));
    // Server must still be alive and answering while frozen.
    EXPECT_EQ(w.area->alive_count(), 3u);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    // Now the deferred leave proceeds.
    w.sim.sleep_for(seconds(12));
    EXPECT_EQ(w.area->alive_count(), 2u);
  });
  w.sim.run();
}


TEST(Colza, TwoPipelinesConcurrentIterations) {
  // Two pipelines active at the same time (overlapping freeze windows): the
  // per-server active-iteration counting must keep the membership frozen
  // until BOTH deactivate.
  ColzaWorld w(3);
  w.create_everywhere("a", "recording");
  w.create_everywhere("b", "recording");
  w.client_proc->spawn("app", [&] {
    auto ha = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "a");
    auto hb = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "b");
    ASSERT_TRUE(ha.has_value());
    ASSERT_TRUE(hb.has_value());
    ASSERT_TRUE(ha->activate(1).ok());
    ASSERT_TRUE(hb->activate(9).ok());
    std::vector<std::byte> d(64);
    ASSERT_TRUE(ha->stage(1, 0, d).ok());
    ASSERT_TRUE(hb->stage(9, 1, d).ok());
    // Ask a server to leave while both are frozen: it must defer.
    Admin admin(w.client->engine());
    ASSERT_TRUE(admin.request_leave(ha->view()[2]).ok());
    w.sim.sleep_for(seconds(2));
    EXPECT_EQ(w.area->alive_count(), 3u);
    ASSERT_TRUE(ha->execute(1).ok());
    ASSERT_TRUE(ha->deactivate(1).ok());
    // Still frozen: pipeline b is active.
    w.sim.sleep_for(seconds(2));
    EXPECT_EQ(w.area->alive_count(), 3u);
    ASSERT_TRUE(hb->execute(9).ok());
    ASSERT_TRUE(hb->deactivate(9).ok());
    // Now the deferred leave proceeds.
    w.sim.sleep_for(seconds(12));
    EXPECT_EQ(w.area->alive_count(), 2u);
  });
  w.sim.run();
}

TEST(Colza, TwoPipelinesInterleavedShareIterationNumbers) {
  // Late binding on one staging area (paper S II-B): pipeline "a" runs
  // iterations 1-8, and "b" is created before iteration 3 and runs 3-8 under
  // the same iteration numbers. Odd iterations drive the two back to back;
  // even ones open both 2PC windows at once and keep both executes in
  // flight. Each pipeline stages values into its own bin, so a collective
  // matched across pipelines shows in the counts, and a commit of one
  // pipeline must never revoke the other's communicator.
  ColzaWorld w(3);
  const std::string cfg = R"({"field":"v","bins":8,"range_lo":0,"range_hi":8})";
  w.create_everywhere("a", "histogram", cfg);
  w.client_proc->spawn("app", [&] {
    const auto contacts = w.area->bootstrap().contacts();
    Admin admin(w.client->engine());
    auto ha = DistributedPipelineHandle::lookup(*w.client, contacts, "a");
    ASSERT_TRUE(ha.has_value());
    std::optional<DistributedPipelineHandle> hb;
    auto bin_of = [](std::size_t p, std::uint64_t it) -> std::size_t {
      return p == 0 ? it % 4 : 7 - it % 4;
    };
    // Pipeline p stages 6 blocks of 10 values, all in its bin for `it`.
    auto stage_all = [&](DistributedPipelineHandle& h, std::size_t p,
                         std::uint64_t it) {
      for (std::uint64_t b = 0; b < 6; ++b) {
        vis::UniformGrid g;
        g.dims = {10, 1, 1};
        g.point_data.add(vis::DataArray::make<float>(
            "v",
            std::vector<float>(10, static_cast<float>(bin_of(p, it)) + 0.5f)));
        ASSERT_TRUE(h.stage(it, b, vis::DataSet{g}).ok());
      }
    };
    auto run_back_to_back = [&](DistributedPipelineHandle& h, std::size_t p,
                                std::uint64_t it) {
      ASSERT_TRUE(h.activate(it).ok());
      stage_all(h, p, it);
      Status s = h.execute(it);
      ASSERT_TRUE(s.ok()) << h.name() << " iteration " << it << ": "
                          << s.to_string();
      ASSERT_TRUE(h.deactivate(it).ok());
    };
    // Every server holds the pipeline's global result for `it`.
    auto check = [&](DistributedPipelineHandle& h, std::size_t p,
                     std::uint64_t it) {
      for (net::ProcId server : h.view()) {
        auto stats = admin.get_stats(server, h.name());
        ASSERT_TRUE(stats.has_value());
        const auto& iters = stats->find("iterations")->as_array();
        ASSERT_FALSE(iters.empty()) << h.name() << " iteration " << it;
        const auto& rec = iters.back();
        EXPECT_EQ(rec.number_or("iteration", 0), static_cast<double>(it));
        const auto& counts = rec.find("counts")->as_array();
        ASSERT_EQ(counts.size(), 8u);
        for (std::size_t bin = 0; bin < counts.size(); ++bin) {
          EXPECT_EQ(counts[bin].as_number(), bin == bin_of(p, it) ? 60.0 : 0.0)
              << h.name() << " iteration " << it << " bin " << bin;
        }
      }
    };
    for (std::uint64_t it = 1; it <= 8; ++it) {
      if (it == 3) {
        for (net::ProcId s : w.area->alive_addresses()) {
          ASSERT_TRUE(admin.create_pipeline(s, "b", "histogram", cfg).ok());
        }
        auto looked_up = DistributedPipelineHandle::lookup(*w.client,
                                                           contacts, "b");
        ASSERT_TRUE(looked_up.has_value());
        hb.emplace(std::move(*looked_up));
      }
      if (it % 2 == 1 || !hb.has_value()) {
        run_back_to_back(*ha, 0, it);
        if (hb.has_value()) run_back_to_back(*hb, 1, it);
      } else {
        auto aa = ha->iactivate(it);
        auto ab = hb->iactivate(it);
        ASSERT_TRUE(aa.wait().ok());
        ASSERT_TRUE(ab.wait().ok());
        stage_all(*ha, 0, it);
        stage_all(*hb, 1, it);
        auto ea = ha->iexecute(it);
        auto eb = hb->iexecute(it);
        Status sa = ea.wait();
        Status sb = eb.wait();
        ASSERT_TRUE(sa.ok()) << "a iteration " << it << ": " << sa.to_string();
        ASSERT_TRUE(sb.ok()) << "b iteration " << it << ": " << sb.to_string();
        ASSERT_TRUE(ha->deactivate(it).ok());
        ASSERT_TRUE(hb->deactivate(it).ok());
      }
      // A failed assertion inside the helpers only leaves the helper.
      if (::testing::Test::HasFatalFailure()) return;
      check(*ha, 0, it);
      if (hb.has_value()) check(*hb, 1, it);
    }
  });
  w.sim.run();
}

// ------------------------------------------------------------- deployment

TEST(Deploy, LaunchModelRespectsBounds) {
  LaunchModel m;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const des::Duration d = m.sample(rng);
    EXPECT_GE(d, m.base);
    EXPECT_LE(d, m.cap);
  }
}

TEST(Deploy, ElasticJoinFasterAndStablerThanRestart) {
  // The Fig 4 claim in miniature: one elastic join completes in a stable
  // ~5 s, while a full restart of N+1 daemons suffers the max of N+1 random
  // launch latencies.
  des::Simulation sim;
  net::Network net(sim);
  ServerConfig cfg;
  StagingArea area(net, cfg, LaunchModel{}, /*seed=*/5);
  des::Time ready_at = 0;
  area.launch_initial(8, 0, [&] { ready_at = sim.now(); });
  sim.run_until(seconds(60));
  ASSERT_GT(ready_at, 0u);
  const des::Time restart_time = ready_at;  // proxy for a full redeploy

  des::Time join_started = sim.now();
  des::Time joined_at = 0;
  area.launch_one(100, [&](Server&) { joined_at = sim.now(); });
  sim.run_until(sim.now() + seconds(60));
  ASSERT_GT(joined_at, 0u);
  const des::Duration join_time = joined_at - join_started;
  EXPECT_LT(join_time, restart_time);
}

}  // namespace
}  // namespace colza
