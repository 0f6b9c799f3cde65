// Trace smoke (tier 1): run a small 4-rank Mandelbulb pipeline with the
// virtual-time tracer on, write the Chrome trace to disk, and check that
//
//   1. the file is valid JSON under the strict parser (which now decodes
//      \uXXXX escapes and rejects malformed ones), with the trace_event
//      fields every viewer expects;
//   2. span nesting is sane: a closed child span lies inside its closed
//      parent's interval, and every successful client-side rpc.call span
//      has a server-side rpc.handle child carrying the same trace id.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "bench/colza_harness.hpp"
#include "common/json.hpp"
#include "obs/trace.hpp"

namespace colza {
namespace {

struct Span {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t parent = 0;
  std::uint64_t tid = 0;
  des::Time begin = 0;
  des::Time end = 0;
  bool closed = false;
  std::string end_args;
};

TEST(TraceSmoke, FourRankMandelbulbTraceIsValidAndWellNested) {
  const std::string trace_path = "trace_smoke_out.json";
  bench::HarnessConfig cfg;
  cfg.clients = 4;
  cfg.servers = 2;
  cfg.servers_per_node = 1;
  cfg.pipeline_json = R"({"preset":"mandelbulb","width":32,"height":32})";
  cfg.trace_path = trace_path;

  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = 8;
  mb.total_blocks = 8;

  bench::ColzaPipelineHarness harness(cfg);
  auto gen = [&](int client, std::uint64_t) {
    std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
    for (int b = 0; b < 2; ++b) {
      const auto id = static_cast<std::uint64_t>(client * 2 + b);
      blocks.emplace_back(id, vis::DataSet{apps::mandelbulb_block(
                                  mb, static_cast<std::uint32_t>(id))});
    }
    return blocks;
  };
  const auto times = harness.run(2, gen);
  ASSERT_EQ(times.size(), 2u);

  // --- 1. The file exists and survives the strict parser.
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file not written: " << trace_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  ASSERT_FALSE(text.empty());

  json::Value root;
  ASSERT_NO_THROW(root = json::parse(text)) << "trace is not valid JSON";
  ASSERT_TRUE(root.is_object());
  const json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->as_array().empty());
  for (const auto& e : events->as_array()) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.string_or("ph", "");
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "X" || ph == "i")
        << "unexpected phase " << ph;
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.find("pid"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
    if (ph == "B" || ph == "X" || ph == "i") {
      EXPECT_FALSE(e.string_or("name", "").empty());
    }
  }

  // --- 2. Span nesting invariants, from the in-memory event list.
  std::map<std::uint64_t, Span> spans;
  for (const auto& e : obs::Tracer::global().events()) {
    if (e.phase == obs::TraceEvent::Phase::begin) {
      Span s;
      s.name = e.name;
      s.trace_id = e.trace_id;
      s.parent = e.parent_id;
      s.tid = e.tid;
      s.begin = e.ts;
      spans.emplace(e.span_id, std::move(s));
    } else if (e.phase == obs::TraceEvent::Phase::end) {
      auto it = spans.find(e.span_id);
      ASSERT_NE(it, spans.end()) << "end event for unknown span";
      it->second.end = e.ts;
      it->second.closed = true;
      it->second.end_args = e.args;
    }
  }
  ASSERT_FALSE(spans.empty());

  // Fault-free run: every span opened was also closed.
  std::size_t open = 0;
  for (const auto& [id, s] : spans) open += s.closed ? 0 : 1;
  EXPECT_EQ(open, 0u);

  // A closed child lies inside its closed parent's interval.
  for (const auto& [id, s] : spans) {
    if (s.parent == 0 || !s.closed) continue;
    auto pit = spans.find(s.parent);
    if (pit == spans.end() || !pit->second.closed) continue;
    EXPECT_GE(s.begin, pit->second.begin)
        << s.name << " starts before parent " << pit->second.name;
    EXPECT_LE(s.end, pit->second.end)
        << s.name << " ends after parent " << pit->second.name;
  }

  // Every successful rpc.call span has a server-side rpc.handle child in
  // the same trace (the context rode the request frame to the server).
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& [id, s] : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::size_t ok_calls = 0;
  for (const auto& [id, s] : spans) {
    if (s.name.rfind("rpc.call:", 0) != 0 || !s.closed) continue;
    if (s.end_args.find("\"status\":0") == std::string::npos) continue;
    ++ok_calls;
    bool has_handle = false;
    for (const Span* c : children[id]) {
      if (c->name.rfind("rpc.handle:", 0) == 0 && c->trace_id == s.trace_id) {
        has_handle = true;
        break;
      }
    }
    EXPECT_TRUE(has_handle)
        << "rpc.call span " << id << " (" << s.name << ") has no handle child";
  }
  EXPECT_GT(ok_calls, 0u);

  // The harness emitted its per-phase bracket spans.
  for (const char* phase :
       {"phase.activate", "phase.stage", "phase.execute", "phase.deactivate"}) {
    std::size_t n = 0;
    for (const auto& [id, s] : spans) n += s.name == phase ? 1 : 0;
    EXPECT_EQ(n, 2u) << phase << " spans != iterations";
  }
}

// The DES charge listener feeds every charge into the tracer as one
// complete (X) event named "<fiber> [compute]": pid = the fiber's tag, tid =
// its fiber id, virtual time in microseconds.
TEST(Tracer, ChargesBecomeChromeComputeEvents) {
  obs::Tracer& tracer = obs::Tracer::global();
  des::Simulation sim;
  tracer.enable(sim);
  sim.spawn("worker-a", [&] { sim.charge(des::milliseconds(3)); },
            des::SpawnOptions{.tag = 7});
  sim.spawn("worker-b", [&] {
    sim.charge(des::milliseconds(1));
    sim.charge(des::milliseconds(2));
  });
  sim.run();
  tracer.disable();

  const std::string text = tracer.chrome_json();
  EXPECT_NE(text.find("\"dur\":3000.000"), std::string::npos);  // 3 ms in us
  const json::Value doc = json::parse(text);
  std::vector<const json::Value*> compute;
  for (const auto& ev : doc.find("traceEvents")->as_array()) {
    if (ev.string_or("cat", "") == "compute") compute.push_back(&ev);
  }
  ASSERT_EQ(compute.size(), 3u);  // one per charge
  EXPECT_EQ(compute[0]->string_or("name", ""), "worker-a [compute]");
  EXPECT_EQ(compute[0]->string_or("ph", ""), "X");
  EXPECT_EQ(compute[0]->number_or("dur", 0), 3000.0);
  EXPECT_EQ(compute[0]->number_or("pid", 0), 7.0);  // the tag
  EXPECT_EQ(compute[1]->string_or("name", ""), "worker-b [compute]");
  EXPECT_EQ(compute[2]->string_or("name", ""), "worker-b [compute]");
  EXPECT_EQ(compute[2]->number_or("ts", 0), 1000.0);  // after the 1 ms charge
  EXPECT_EQ(compute[1]->number_or("tid", 0), compute[2]->number_or("tid", 1));
}

// A tracer records nothing until enabled, nor once disabled; charging on a
// simulation without a listener is a no-op.
TEST(Tracer, DisabledTracerRecordsNoComputeSpans) {
  obs::Tracer tracer;
  des::Simulation sim;
  EXPECT_FALSE(tracer.enabled());
  sim.spawn("f", [&] { sim.charge(des::milliseconds(1)); });
  sim.run();
  tracer.enable(sim);
  tracer.disable();
  sim.spawn("g", [&] { sim.charge(des::milliseconds(1)); });
  sim.run();
  EXPECT_TRUE(tracer.events().empty());
}

}  // namespace
}  // namespace colza
