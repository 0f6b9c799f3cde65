// Determinism regression test for the runtime performance work: the pooled
// message buffers, the (source, tag) match index, the fast context switch,
// and the slimmed event queue are all pure host-side optimizations -- the
// virtual timeline and every rendered pixel must be bit-identical run to
// run. This drives a mid-size Mandelbulb pipeline (block generation,
// isosurface, rasterization, binary-swap compositing over MoNA) twice with
// the same seed and compares the full virtual-time trace and the image hash.
//
// Compute costs are modeled with charge() (fixed virtual durations), never
// charge_scoped(), which would couple the timeline to host wall time.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "chaos/chaos.hpp"
#include "des/simulation.hpp"
#include "invariants.hpp"
#include "des/time.hpp"
#include "icet/icet.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"
#include "render/render.hpp"
#include "vis/filters.hpp"
#include "viewer/viewer.hpp"

namespace colza {
namespace {

struct RunRecord {
  // (virtual time, rank, stage) samples in the order they were recorded.
  std::vector<std::tuple<des::Time, int, std::string>> trace;
  std::uint64_t image_hash = 0;
  std::uint64_t events = 0;
  des::Time final_time = 0;
};

RunRecord run_pipeline(std::uint64_t seed) {
  constexpr int kRanks = 8;
  constexpr int kImage = 64;

  RunRecord rec;
  des::Simulation sim(des::SimConfig{.seed = seed});
  net::Network net(sim);

  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < kRanks; ++i) {
    auto& p = net.create_process(static_cast<net::NodeId>(i / 4));
    procs.push_back(&p);
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }

  apps::MandelbulbParams mb;
  mb.nx = 20;
  mb.ny = 20;
  mb.nz = 20;
  mb.total_blocks = kRanks;

  // Global domain bounds (identical on every rank -> identical camera).
  vis::Aabb domain;
  domain.extend(apps::mandelbulb_block(mb, 0).bounds().lo);
  domain.extend(
      apps::mandelbulb_block(mb, kRanks - 1).bounds().hi);
  const render::Camera camera = render::Camera::framing(domain);

  std::vector<std::shared_ptr<mona::Communicator>> comms(kRanks);
  std::vector<render::FrameBuffer> fbs(kRanks);
  for (int i = 0; i < kRanks; ++i) {
    comms[static_cast<std::size_t>(i)] =
        insts[static_cast<std::size_t>(i)]->comm_create(addrs);
    procs[static_cast<std::size_t>(i)]->spawn(
        "pipeline" + std::to_string(i), [&, i] {
          const auto r = static_cast<std::size_t>(i);
          // Generate this rank's fractal block; the modeled compute cost is
          // a fixed charge (virtual time must not depend on host speed).
          vis::UniformGrid block =
              apps::mandelbulb_block(mb, static_cast<std::uint32_t>(i));
          sim.charge(des::milliseconds(5));
          rec.trace.emplace_back(sim.now(), i, "generated");

          vis::TriangleMesh mesh =
              vis::isosurface(block, "iterations", 15.0f, "iterations");
          sim.charge(des::milliseconds(3));
          rec.trace.emplace_back(sim.now(), i, "contoured");

          render::ColorMap cmap;
          cmap.lo = 0.0f;
          cmap.hi = static_cast<float>(mb.max_iterations);
          fbs[r].resize(kImage, kImage);
          render::rasterize(fbs[r], mesh, camera, cmap);
          sim.charge(des::milliseconds(2));
          rec.trace.emplace_back(sim.now(), i, "rendered");

          auto stats = icet::composite(fbs[r], *comms[r],
                                       icet::Strategy::binary_swap,
                                       icet::CompositeOp::closest_depth);
          ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
          rec.trace.emplace_back(sim.now(), i, "composited");
          if (i == 0) rec.image_hash = fbs[0].content_hash();
        });
  }
  sim.run();
  rec.events = sim.events_processed();
  rec.final_time = sim.now();
  return rec;
}

// Two runs with the same seed must agree on everything: every virtual-time
// trace sample in order, the total event count, the end-of-run clock, and
// the composited image bits.
TEST(Determinism, MandelbulbBinarySwapIsBitIdentical) {
  const RunRecord a = run_pipeline(1234);
  const RunRecord b = run_pipeline(1234);

  EXPECT_NE(a.image_hash, 0u);
  EXPECT_EQ(a.image_hash, b.image_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_time, b.final_time);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i], b.trace[i]) << "trace diverged at sample " << i;
  }
  // Sanity: the pipeline actually advanced virtual time and moved messages.
  EXPECT_GT(a.final_time, des::milliseconds(10));
  EXPECT_GT(a.events, 100u);
}

// Determinism under faults: the same --chaos-seed crash schedule (one
// supervised crash per iteration) must replay an identical recovery
// timeline -- every injection, every iteration's start/finish virtual
// times, the frozen views, the end-of-run clock, and the image bits.
TEST(Determinism, CrashScheduleRecoveryIsBitIdentical) {
  testing::ScenarioConfig cfg;
  cfg.seed = 5150;
  cfg.servers = 4;
  cfg.iterations = 4;
  cfg.replication = 2;
  cfg.supervisor = true;
  cfg.compute_between = des::seconds(40);
  cfg.resilient.attempt_timeout = des::seconds(20);
  cfg.deadline = des::seconds(20000);
  cfg.plan = chaos::crash_storm_plan(/*base_node=*/100, /*nodes=*/4,
                                     /*start=*/des::seconds(3),
                                     /*period=*/des::seconds(45),
                                     /*crashes=*/4, cfg.seed);

  const testing::ScenarioResult a = testing::run_elastic_mandelbulb(cfg);
  const testing::ScenarioResult b = testing::run_elastic_mandelbulb(cfg);

  ASSERT_TRUE(a.client_done);
  ASSERT_TRUE(b.client_done);
  EXPECT_TRUE(a.injections == b.injections);
  EXPECT_EQ(a.chaos_log, b.chaos_log);
  EXPECT_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].code, b.iterations[i].code) << "iteration " << i;
    EXPECT_EQ(a.iterations[i].view, b.iterations[i].view) << "iteration " << i;
    EXPECT_EQ(a.iterations[i].started, b.iterations[i].started)
        << "iteration " << i;
    EXPECT_EQ(a.iterations[i].finished, b.iterations[i].finished)
        << "iteration " << i;
  }
  EXPECT_EQ(testing::reference_hashes(a), testing::reference_hashes(b));
  // Sanity: the schedule actually perturbed the run (crashes were injected
  // and the supervisor replaced the victims).
  EXPECT_EQ(a.injections.size(), 4u);
  EXPECT_EQ(a.supervisor.respawns_joined, b.supervisor.respawns_joined);
  EXPECT_GT(a.supervisor.respawns_joined, 0);
}

// Trace determinism: with tracing on, two same-seed runs of a crashing,
// self-healing scenario must produce the exact same span timeline -- the
// FNV hash covers every event's phase, timestamps, ids and payload, so a
// single reordered or re-timed span (including those cut short by the
// crash schedule) changes it.
TEST(Determinism, TraceTimelineIsBitIdentical) {
  testing::ScenarioConfig cfg;
  cfg.seed = 5150;
  cfg.servers = 3;
  cfg.iterations = 3;
  cfg.replication = 2;
  cfg.supervisor = true;
  cfg.compute_between = des::seconds(40);
  cfg.resilient.attempt_timeout = des::seconds(20);
  cfg.deadline = des::seconds(20000);
  cfg.trace = true;
  cfg.plan = chaos::crash_storm_plan(/*base_node=*/100, /*nodes=*/3,
                                     /*start=*/des::seconds(3),
                                     /*period=*/des::seconds(45),
                                     /*crashes=*/2, cfg.seed);

  const testing::ScenarioResult a = testing::run_elastic_mandelbulb(cfg);
  const testing::ScenarioResult b = testing::run_elastic_mandelbulb(cfg);

  ASSERT_TRUE(a.client_done);
  ASSERT_TRUE(b.client_done);
  EXPECT_NE(a.trace_hash, 0u);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.end_time, b.end_time);
  // The schedule really crashed daemons, so the identical hashes cover
  // abandoned spans and recovery traffic, not just the happy path.
  EXPECT_EQ(a.injections.size(), 2u);
}

// Determinism under overload: the same seeded overload plan (bursty phantom
// tenant squeezing flow-controlled servers, max_queue=0 so every squeeze
// sheds with Busy) must replay bit-identically -- the shed/release injection
// log, every iteration's retry-delayed start/finish times, the end-of-run
// clock, and the image bits. This pins the whole flow-control path (DRR,
// credits, AIMD, backoff hints) as a pure function of the virtual timeline.
TEST(Determinism, OverloadShedScheduleIsBitIdentical) {
  testing::ScenarioConfig cfg;
  cfg.seed = 909;
  cfg.servers = 4;
  cfg.iterations = 3;
  cfg.replication = 2;
  cfg.compute_between = des::seconds(40);
  cfg.resilient.attempt_timeout = des::seconds(20);
  cfg.deadline = des::seconds(20000);
  cfg.flow.budget_bytes = 256 << 10;
  cfg.flow.max_queue = 0;
  cfg.client_flow = true;
  cfg.plan = chaos::overload_plan(
      /*base_server=*/1, /*servers=*/cfg.servers, /*start=*/des::seconds(1),
      /*period=*/des::seconds(5), /*burst=*/des::milliseconds(4500),
      /*bursts=*/40, /*bytes=*/cfg.flow.budget_bytes, cfg.seed);

  const testing::ScenarioResult a = testing::run_elastic_mandelbulb(cfg);
  const testing::ScenarioResult b = testing::run_elastic_mandelbulb(cfg);

  ASSERT_TRUE(a.client_done);
  ASSERT_TRUE(b.client_done);
  EXPECT_TRUE(a.injections == b.injections);
  EXPECT_EQ(a.chaos_log, b.chaos_log);
  EXPECT_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].code, b.iterations[i].code) << "iteration " << i;
    EXPECT_EQ(a.iterations[i].started, b.iterations[i].started)
        << "iteration " << i;
    EXPECT_EQ(a.iterations[i].finished, b.iterations[i].finished)
        << "iteration " << i;
  }
  EXPECT_EQ(testing::reference_hashes(a), testing::reference_hashes(b));
  // Sanity: the overload actually bit -- sheds happened, identically.
  std::uint64_t sheds_a = 0;
  std::uint64_t sheds_b = 0;
  for (const auto& s : a.servers) sheds_a += s.flow_sheds;
  for (const auto& s : b.servers) sheds_b += s.flow_sheds;
  EXPECT_GT(sheds_a, 0u);
  EXPECT_EQ(sheds_a, sheds_b);
}

// A seeded corruption storm (scheduled rot-on-write rules through the
// integrity registry, detected and repaired from buddy replicas) must
// replay bit-identically: the injection log and its running digest, every
// server's integrity counters, the iteration timeline, the end-of-run
// clock, and the image bits. This pins detection + repair as a pure
// function of the virtual timeline -- the property the corruption-sweep
// replay workflow relies on.
TEST(Determinism, CorruptionRepairScheduleIsBitIdentical) {
  testing::ScenarioConfig cfg;
  cfg.seed = 911;
  cfg.servers = 4;
  cfg.iterations = 3;
  cfg.replication = 2;
  cfg.compute_between = des::seconds(40);
  cfg.resilient.attempt_timeout = des::seconds(20);
  cfg.deadline = des::seconds(20000);
  cfg.plan = chaos::corruption_storm_plan(
      /*base_server=*/1, /*servers=*/cfg.servers, /*start=*/des::seconds(10),
      /*period=*/des::seconds(45), /*corruptions=*/3, cfg.seed);

  const testing::ScenarioResult a = testing::run_elastic_mandelbulb(cfg);
  const testing::ScenarioResult b = testing::run_elastic_mandelbulb(cfg);

  ASSERT_TRUE(a.client_done);
  ASSERT_TRUE(b.client_done);
  EXPECT_TRUE(a.injections == b.injections);
  EXPECT_EQ(a.chaos_log, b.chaos_log);
  EXPECT_TRUE(a.chaos_summary == b.chaos_summary);
  EXPECT_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].code, b.iterations[i].code) << "iteration " << i;
    EXPECT_EQ(a.iterations[i].started, b.iterations[i].started)
        << "iteration " << i;
    EXPECT_EQ(a.iterations[i].finished, b.iterations[i].finished)
        << "iteration " << i;
  }
  EXPECT_EQ(testing::reference_hashes(a), testing::reference_hashes(b));
  // Sanity: the storm actually bit -- and identically so on both runs.
  std::uint64_t mism_a = 0;
  std::uint64_t mism_b = 0;
  std::uint64_t rep_a = 0;
  std::uint64_t rep_b = 0;
  for (const auto& s : a.servers) {
    mism_a += s.integrity.mismatches;
    rep_a += s.integrity.repairs;
  }
  for (const auto& s : b.servers) {
    mism_b += s.integrity.mismatches;
    rep_b += s.integrity.repairs;
  }
  EXPECT_EQ(mism_a, mism_b);
  EXPECT_EQ(rep_a, rep_b);
}

// Observability neutrality: turning tracing + metrics on must not move a
// single virtual timestamp. The trace context is always on the wire (zeros
// when untraced), so frame sizes -- and therefore modeled latencies -- are
// identical either way.
TEST(Determinism, TracingDoesNotPerturbTimeline) {
  testing::ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.servers = 3;
  cfg.iterations = 3;
  cfg.compute_between = des::seconds(5);

  testing::ScenarioConfig traced = cfg;
  traced.trace = true;

  const testing::ScenarioResult off = testing::run_elastic_mandelbulb(cfg);
  const testing::ScenarioResult on = testing::run_elastic_mandelbulb(traced);

  ASSERT_TRUE(off.client_done);
  ASSERT_TRUE(on.client_done);
  EXPECT_EQ(off.end_time, on.end_time);
  ASSERT_EQ(off.iterations.size(), on.iterations.size());
  for (std::size_t i = 0; i < off.iterations.size(); ++i) {
    EXPECT_EQ(off.iterations[i].started, on.iterations[i].started)
        << "iteration " << i;
    EXPECT_EQ(off.iterations[i].finished, on.iterations[i].finished)
        << "iteration " << i;
  }
  EXPECT_EQ(testing::reference_hashes(off), testing::reference_hashes(on));
  EXPECT_EQ(off.trace_hash, 0u);
  EXPECT_NE(on.trace_hash, 0u);
}

// Viewer neutrality: a run with 50 observer sessions per server -- including
// a pathologically starved quality class that keeps hitting the skip path --
// must not move a single virtual timestamp of the simulation loop. The tier
// renders and fans out on its own fibers; publish() is the only touchpoint
// on the execute path and it only queues.
TEST(Determinism, ViewerFanOutDoesNotPerturbSimulationTimeline) {
  testing::ScenarioConfig cfg;
  cfg.seed = 505;
  cfg.servers = 3;
  cfg.iterations = 4;
  cfg.compute_between = des::seconds(5);

  testing::ScenarioConfig watched = cfg;
  watched.viewer_sessions = 50;
  watched.viewer_cameras = 4;

  const testing::ScenarioResult off = testing::run_elastic_mandelbulb(cfg);
  const testing::ScenarioResult on = testing::run_elastic_mandelbulb(watched);

  ASSERT_TRUE(off.client_done);
  ASSERT_TRUE(on.client_done);
  ASSERT_EQ(off.iterations.size(), on.iterations.size());
  for (std::size_t i = 0; i < off.iterations.size(); ++i) {
    EXPECT_EQ(off.iterations[i].started, on.iterations[i].started)
        << "iteration " << i;
    EXPECT_EQ(off.iterations[i].finished, on.iterations[i].finished)
        << "iteration " << i;
  }
  EXPECT_EQ(testing::reference_hashes(off), testing::reference_hashes(on));

  // The inert run served nobody; the watched run really fanned out, really
  // backpressured its starved sessions, and stayed single-flight: at most
  // one render per (server, camera, iteration).
  EXPECT_EQ(off.viewer_frames, 0u);
  EXPECT_GT(on.viewer_frames, 0u);
  EXPECT_GT(on.viewer_skips, 0u);
  EXPECT_GT(on.viewer_renders, 0u);
  EXPECT_LE(on.viewer_renders, static_cast<std::uint64_t>(cfg.servers) *
                                   watched.viewer_cameras * cfg.iterations);
}

// Steering determinism: a live steered viewer run, a second identical live
// run, and a replay of the first run's steering log must agree on the
// steering log digest, every rendered frame hash, the end-of-run clock and
// the event count -- the log is a complete replay artifact.
TEST(Determinism, SteeredViewerReplayIsBitIdentical) {
  struct ViewerRun {
    des::Time end_time = 0;
    std::uint64_t events = 0;
    std::vector<std::uint64_t> frame_hashes;
    viewer::SteeringLog log;
  };
  auto run = [](const viewer::SteeringLog* replay) {
    ViewerRun rec;
    des::Simulation sim;
    net::Network net(sim);
    auto& proc = net.create_process(1);
    rpc::Engine engine(proc, net::Profile::mona());
    viewer::ViewerTier tier(proc, engine);
    tier.set_producer("render", [&rec](std::uint64_t it, std::uint32_t cam,
                                       double param) {
      viewer::FrameImage img;
      img.width = img.height = 8;
      img.rgba.resize(8 * 8 * 4);
      std::uint64_t x = it * 7919 + cam * 31 +
                        static_cast<std::uint64_t>(param * 1e6) + 1;
      for (auto& b : img.rgba) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        b = static_cast<std::uint8_t>(x >> 56);
      }
      rec.frame_hashes.push_back(img.hash());
      return img;
    });
    if (replay != nullptr) tier.load_replay(*replay);
    proc.spawn("steered-run", [&, replay] {
      const std::uint64_t id = tier.connect(0);
      tier.subscribe(id, "render", 0).check();
      for (std::uint64_t it = 1; it <= 5; ++it) {
        if (replay == nullptr && (it == 2 || it == 4)) {
          SteeringUpdate cam;
          cam.kind = static_cast<std::uint8_t>(SteeringUpdate::Kind::camera);
          cam.value = 0.1 * static_cast<double>(it);
          cam.session = id;
          tier.steer("render", cam);
        }
        tier.publish("render", it);
        sim.sleep_for(des::milliseconds(50));
      }
      tier.quiesce();
    });
    sim.run();
    rec.end_time = sim.now();
    rec.events = sim.events_processed();
    rec.log = tier.steering_log();
    return rec;
  };

  const ViewerRun a = run(nullptr);
  const ViewerRun b = run(nullptr);
  const ViewerRun r = run(&a.log);

  ASSERT_EQ(a.log.size(), 2u);
  EXPECT_EQ(a.log.digest(), b.log.digest());
  EXPECT_EQ(a.frame_hashes, b.frame_hashes);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events, b.events);
  // The replay applied no live steering at all, yet rebuilt the same log
  // and rendered the same pixels on the same virtual timeline.
  EXPECT_EQ(r.log.digest(), a.log.digest());
  EXPECT_TRUE(r.log == a.log);
  EXPECT_EQ(r.frame_hashes, a.frame_hashes);
  EXPECT_EQ(r.end_time, a.end_time);
  EXPECT_EQ(r.events, a.events);
}

}  // namespace
}  // namespace colza
