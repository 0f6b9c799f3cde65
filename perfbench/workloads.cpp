// The four workloads (README.md says why each exists). Everything runs in
// one single-threaded process through the libraries' public APIs; every
// simulation sets fixed_scoped_charge, so the virtual timeline -- and with
// it every count and output hash -- depends only on the seed, never on how
// fast the host runs the kernels.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "colza/server.hpp"
#include "common/buffer_pool.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "des/simulation.hpp"
#include "host_speed.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "render/render.hpp"
#include "rpc/engine.hpp"
#include "spans.hpp"
#include "traced_backend.hpp"
#include "viewer/viewer.hpp"
#include "vis/data.hpp"

namespace perfbench {
namespace {

using namespace colza;

constexpr const char* kPipeline = "bench";
// Modeled cost of every charge_scoped call: host-independent virtual time.
constexpr des::Duration kFixedCharge = des::milliseconds(2);
// Retries of one retriable call before the iteration counts as failed.
constexpr int kMaxRetries = 16;
constexpr des::Duration kRetryBackoff = des::milliseconds(500);

constexpr double kMB = 1e6;

// ------------------------------------------------------------ bookkeeping

// Values of the process-global counters the libraries keep, at one instant
// of an episode. Per-layer metrics are differences of two snapshots.
struct Counters {
  Ns host = 0;
  std::uint64_t events = 0;
  des::Time now = 0;
  std::uint64_t messages = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::map<std::string, double> counters;  // obs counters
  std::map<std::string, double> rpc;       // rpc.latency.<method> counts
};

Counters sample(const des::Simulation& sim) {
  Counters c;
  // Host time outside the reference kernel, which runs between iterations.
  c.host = host_ns() - reference_kernel_total_ns();
  c.events = sim.events_processed();
  c.now = sim.now();
  c.messages = net::DeliveryStats::global().messages;
  c.pool_hits = common::BufferPool::global().hits();
  c.pool_misses = common::BufferPool::global().misses();
  const json::Value all = obs::MetricsRegistry::global().to_json();
  for (const auto& [name, v] : all.as_object().at("counters").as_object())
    c.counters[name] = v.as_number();
  const std::string prefix = "rpc.latency.";
  for (const auto& [name, h] : all.as_object().at("histograms").as_object()) {
    if (name.compare(0, prefix.size(), prefix) == 0)
      c.rpc[name.substr(prefix.size())] = h.number_or("count", 0);
  }
  return c;
}

double value_of(const std::map<std::string, double>& m,
                const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// The measured window of an episode: counters at the end of the warm-up
// iteration and at the end of the last iteration.
struct Window {
  Counters begin;
  Counters end;
  std::uint64_t iterations = 0;

  [[nodiscard]] double per_iter(double v) const {
    return iterations == 0 ? 0.0 : v / static_cast<double>(iterations);
  }
  [[nodiscard]] double host_s() const {
    return static_cast<double>(end.host - begin.host) / 1e9;
  }
  [[nodiscard]] double counter(const std::string& key) const {
    return value_of(end.counters, key) - value_of(begin.counters, key);
  }
  [[nodiscard]] double rpc(const std::string& method) const {
    return value_of(end.rpc, method) - value_of(begin.rpc, method);
  }
};

void resets_for_episode(bool traced) {
  obs::MetricsRegistry::global().reset();
  net::DeliveryStats::global() = {};
  recorder().clear();
  recorder().enable(traced);
}

// Every per-layer name gets a value; layers a workload does not run stay 0.
void fill_common_layers(Episode& ep, const Window& w,
                        const des::Simulation& sim) {
  auto& L = ep.layers;
  const double events = static_cast<double>(w.end.events - w.begin.events);
  L["des.events"] = w.per_iter(events);
  L["des.events_per_s"] = w.host_s() > 0 ? events / w.host_s() : 0.0;
  L["des.peak_queue_depth"] =
      static_cast<double>(sim.event_queue().stats().peak_depth);
  L["des.virtual_s"] =
      w.per_iter(des::to_seconds(static_cast<des::Duration>(w.end.now -
                                                            w.begin.now)));
  L["net.messages"] =
      w.per_iter(static_cast<double>(w.end.messages - w.begin.messages));
  L["net.max_batch"] =
      static_cast<double>(net::DeliveryStats::global().max_batch);
  double calls = 0, ssg = 0;
  for (const auto& [method, n] : w.end.rpc) {
    const double d = n - value_of(w.begin.rpc, method);
    calls += d;
    if (method.compare(0, 4, "ssg.") == 0) ssg += d;
  }
  L["rpc.calls"] = w.per_iter(calls);
  L["rpc.calls.ssg"] = w.per_iter(ssg);
  for (const char* m : {"colza.prepare", "colza.commit", "colza.abort",
                        "colza.stage", "colza.execute"})
    L[std::string("rpc.calls.") + m] = w.per_iter(w.rpc(m));
  L["integrity.verify"] = w.per_iter(w.counter("integrity.verify"));
  const double hits =
      static_cast<double>(w.end.pool_hits - w.begin.pool_hits);
  const double misses =
      static_cast<double>(w.end.pool_misses - w.begin.pool_misses);
  L["common.buffer_pool_hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// Sums the durations (or, with `union_of`, the union) of the spans named
// `name` that belong to measured iterations.
double span_ms(const std::vector<Span>& spans, const char* name,
               bool union_of) {
  std::vector<Interval> iv;
  Ns sum = 0;
  for (const Span& s : spans) {
    if (s.iteration < 2 || std::string_view(s.name) != name) continue;
    iv.push_back({s.start, s.end});
    sum += s.end - s.start;
  }
  return static_cast<double>(union_of ? union_length(std::move(iv)) : sum) /
         1e6;
}

double self_ms(const std::vector<Span>& spans, const std::vector<Ns>& self,
               const char* name) {
  Ns sum = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].iteration >= 2 && std::string_view(spans[i].name) == name)
      sum += self[i];
  }
  return static_cast<double>(sum) / 1e6;
}

bool retriable(StatusCode c) {
  return c == StatusCode::aborted || c == StatusCode::busy ||
         c == StatusCode::timeout || c == StatusCode::unreachable ||
         c == StatusCode::unavailable;
}

[[noreturn]] void fail(const std::string& what, const Status& s) {
  throw std::runtime_error(what + ": " + s.to_string());
}

// ------------------------------------------------------ pipeline workloads

struct PipelineSpec {
  int servers = 4;
  int clients = 1;
  int clients_per_node = 16;
  int blocks_per_client = 1;
  int iterations = 2;  // including the warm-up iteration 1
  std::string backend;  // "catalyst" or "histogram"
  std::string pipeline_json;
  des::Duration compute_between = 0;
  // Elastic growth: one launch_one every `join_every` iterations, `joins`
  // times, starting at iteration `join_every`.
  int join_every = 0;
  int joins = 0;
  // The block `block` of iteration `iteration`; a pure function of its
  // arguments and of the seed it was built from.
  std::function<vis::DataSet(std::uint32_t block, std::uint64_t iteration)>
      make_block;
  // Histogram workloads: values per staged block (for the output check).
  std::uint64_t values_per_block = 0;
};

// The deployment: a staging area plus client processes with their own
// (application-side) MoNA communicator, as a real MPI simulation has.
struct Deployment {
  explicit Deployment(std::uint64_t seed)
      : sim(des::SimConfig{.seed = seed, .fixed_scoped_charge = kFixedCharge}),
        net(sim) {}

  des::Simulation sim;
  net::Network net;
  std::unique_ptr<StagingArea> area;
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::shared_ptr<mona::Communicator>> comms;
};

struct PipelineRun {
  // Ops and iteration accounting (see Episode).
  std::uint64_t calls = 0, failed_calls = 0, aborted = 0;
  std::uint64_t iterations = 0, failed_iterations = 0;
  // Activate accounting over measured iterations.
  std::uint64_t activate_calls_ok = 0;
  double activate_attempts = 0;  // prepare rounds (computed)
  std::uint64_t activate_calls = 0;
  // Bytes serialized by clients in measured iterations.
  std::uint64_t serialized_bytes = 0;
  bool stage_failed = false;  // some client's stage gave up this iteration
  // Elastic: join time of each launched server, until a committed view
  // contains it; then the sample (virtual seconds).
  std::map<net::ProcId, des::Time> joined_at;
  std::vector<double> join_to_view_s;
  int joins_started = 0;
  // Host-time bookkeeping on client rank 0.
  Ns start = 0;
  Ns iter_start = 0;
  std::size_t iter_span = 0;
  std::vector<double> iter_ms;
  std::vector<double> kernel_ms;
  double setup_s = 0;
  std::optional<Counters> window_begin;
  std::optional<Counters> window_end;
  std::uint64_t output_hash = common::kFnvOffsetBasis;
  std::string check_error;
};

template <typename Op>
Status with_retries(des::Simulation& sim, PipelineRun& run, Op&& op) {
  Status s;
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    ++run.calls;
    s = op();
    if (s.ok()) return s;
    ++run.failed_calls;
    if (!retriable(s.code())) return s;
    sim.sleep_for(kRetryBackoff);
  }
  return s;
}

// The pipeline on communicator rank 0, the lowest address of the frozen
// view. Servers join with ever higher addresses, so that is the lowest live
// one; it holds the composited frame and the global histogram.
const Backend* root_pipeline(StagingArea& area) {
  Server* root = nullptr;
  for (const auto& s : area.servers()) {
    if (s->alive() && (root == nullptr || s->address() < root->address()))
      root = s.get();
  }
  return root ? root->pipeline(kPipeline) : nullptr;
}

void run_client(Deployment& d, const PipelineSpec& spec, PipelineRun& run,
                const std::string& type, int c) {
  auto& sim = d.sim;
  auto& comm = *d.comms[static_cast<std::size_t>(c)];
  auto barrier = [&] {
    const Status s = comm.barrier();
    if (!s.ok()) fail("client barrier", s);
  };
  auto bcast = [&](void* p, std::size_t n) {
    const Status s = comm.bcast({static_cast<std::byte*>(p), n}, 0);
    if (!s.ok()) fail("client bcast", s);
  };
  auto handle = DistributedPipelineHandle::lookup(
      *d.clients[static_cast<std::size_t>(c)], d.area->bootstrap().contacts(),
      kPipeline);
  if (!handle.has_value()) fail("pipeline lookup", handle.status());
  DistributedPipelineHandle& h = handle.value();

  barrier();
  if (c == 0) {
    run.iter_start = host_ns();
    if (recorder().enabled())
      run.iter_span = recorder().open_path("iteration", 1);
  }
  for (int iter = 1; iter <= spec.iterations; ++iter) {
    const auto it = static_cast<std::uint64_t>(iter);
    const bool measured = iter > 1;
    if (spec.compute_between > 0) sim.charge(spec.compute_between);

    std::vector<std::pair<std::uint32_t, vis::DataSet>> blocks;
    for (int b = 0; b < spec.blocks_per_client; ++b) {
      const auto id =
          static_cast<std::uint32_t>(c * spec.blocks_per_client + b);
      blocks.emplace_back(id, sim.charge_scoped([&] {
        ScopedSpan span("apps.gen", c);
        return spec.make_block(id, it);
      }));
    }
    barrier();

    // Activate on rank 0, then share the agreed view with the other ranks.
    std::uint64_t nview = 0, hash = 0;
    std::vector<net::ProcId> view;
    if (c == 0) {
      if (spec.join_every > 0 && iter % spec.join_every == 0 &&
          run.joins_started < spec.joins) {
        const auto node = static_cast<net::NodeId>(2000 + run.joins_started);
        ++run.joins_started;
        d.area->launch_one(node, [&run, &sim, &type, &spec](Server& s) {
          const Status cs =
              s.create_pipeline(kPipeline, type, spec.pipeline_json);
          if (!cs.ok()) fail("create_pipeline on a joined server", cs);
          run.joined_at[s.address()] = sim.now();
        });
      }
      // Each activate attempt sends one prepare to every server of the view.
      auto prepares = [] {
        const obs::Histogram* p = obs::MetricsRegistry::global().find_histogram(
            "rpc.latency.colza.prepare");
        return p ? p->count : 0;
      };
      const std::uint64_t prepares_before = prepares();
      Status s;
      {
        PathSpan span("colza.activate", it);
        s = with_retries(sim, run, [&] {
          Status a = h.activate(it);
          if (a.code() == StatusCode::aborted) ++run.aborted;
          return a;
        });
      }
      if (measured) {
        ++run.activate_calls;
        if (s.ok()) ++run.activate_calls_ok;
        run.activate_attempts +=
            static_cast<double>(prepares() - prepares_before) /
            static_cast<double>(std::max<std::size_t>(1, h.server_count()));
      }
      if (s.ok()) {
        view = h.view();
        nview = view.size();
        hash = h.view_hash();
        for (auto j = run.joined_at.begin(); j != run.joined_at.end();) {
          if (std::find(view.begin(), view.end(), j->first) != view.end()) {
            run.join_to_view_s.push_back(
                des::to_seconds(static_cast<des::Duration>(sim.now() -
                                                           j->second)));
            j = run.joined_at.erase(j);
          } else {
            ++j;
          }
        }
      } else if (!retriable(s.code())) {
        fail("activate", s);
      }
    }
    bcast(&nview, sizeof nview);
    if (nview > 0) {
      view.resize(nview);
      bcast(view.data(), nview * sizeof(net::ProcId));
      bcast(&hash, sizeof hash);
      if (c != 0) h.set_view(std::move(view), hash);
    }
    barrier();

    if (nview > 0) {
      std::optional<PathSpan> stage_span;
      if (c == 0) stage_span.emplace("colza.stage", it);
      for (auto& [id, ds] : blocks) {
        // What DistributedPipelineHandle::stage(dataset) does, with the
        // serialization timed on its own.
        const std::vector<std::byte> bytes = sim.charge_scoped([&] {
          ScopedSpan span("vis.serialize", c);
          return vis::serialize_dataset(ds);
        });
        if (measured) run.serialized_bytes += bytes.size();
        const Status s = with_retries(
            sim, run, [&] { return h.stage(it, id, bytes); });
        if (!s.ok()) {
          if (!retriable(s.code())) fail("stage", s);
          run.stage_failed = true;
        }
      }
      barrier();
      stage_span.reset();

      if (c == 0) {
        Status s;
        {
          PathSpan span("colza.execute", it);
          s = with_retries(sim, run, [&] { return h.execute(it); });
        }
        if (!s.ok() && !retriable(s.code())) fail("execute", s);
        bool ok = s.ok() && !run.stage_failed;
        if (s.ok() && spec.backend == "catalyst") {
          const Backend* b = root_pipeline(*d.area);
          const render::FrameBuffer* fb = b ? b->rendered_frame() : nullptr;
          if (fb == nullptr) {
            run.check_error = "no rendered frame on rank 0";
          } else {
            run.output_hash =
                common::fnv1a_word(run.output_hash, fb->content_hash());
            if (iter == spec.iterations &&
                std::none_of(fb->depth.begin(), fb->depth.end(),
                             [](float z) { return z < 1.0f; })) {
              run.check_error = "rank-0 frame of the last iteration is empty";
            }
          }
        }
        {
          PathSpan span("colza.deactivate", it);
          s = with_retries(sim, run, [&] { return h.deactivate(it); });
        }
        if (!s.ok() && !retriable(s.code())) fail("deactivate", s);
        ++run.iterations;
        if (!ok || !s.ok()) ++run.failed_iterations;
        run.stage_failed = false;
      }
    } else if (c == 0) {
      ++run.iterations;
      ++run.failed_iterations;
    }
    barrier();

    if (c == 0) {
      const Ns now = host_ns();
      if (recorder().enabled()) recorder().close_path(run.iter_span);
      if (iter == 1) {
        run.setup_s = static_cast<double>(now - run.start) / 1e9;
        run.window_begin = sample(sim);
      } else {
        run.iter_ms.push_back(static_cast<double>(now - run.iter_start) / 1e6);
      }
      if (iter == spec.iterations) run.window_end = sample(sim);
      run.kernel_ms.push_back(reference_kernel_ms());
      if (iter < spec.iterations) {
        run.iter_start = host_ns();
        if (recorder().enabled())
          run.iter_span = recorder().open_path("iteration", it + 1);
      }
    }
  }
}

// Checks the histogram results of every executed iteration on rank 0 and
// folds them into the output hash.
void check_histogram(const PipelineSpec& spec, StagingArea& area,
                     PipelineRun& run) {
  const Backend* b = root_pipeline(area);
  if (b == nullptr) {
    run.check_error = "no histogram pipeline on the first server";
    return;
  }
  const std::uint64_t want = static_cast<std::uint64_t>(spec.clients) *
                             static_cast<std::uint64_t>(spec.blocks_per_client) *
                             spec.values_per_block;
  const json::Value stats = b->stats();
  const json::Array& iters = stats.find("iterations")->as_array();
  if (iters.size() != static_cast<std::size_t>(spec.iterations)) {
    run.check_error = "histogram ran " + std::to_string(iters.size()) +
                      " iterations, want " + std::to_string(spec.iterations);
    return;
  }
  for (const json::Value& r : iters) {
    const auto values = static_cast<std::uint64_t>(r.number_or("values", 0));
    std::uint64_t sum = 0;
    for (const json::Value& n : r.find("counts")->as_array()) {
      const auto v = static_cast<std::uint64_t>(n.as_number());
      sum += v;
      run.output_hash = common::fnv1a_word(run.output_hash, v);
    }
    if (values != want || sum != values) {
      run.check_error = "histogram total_values " + std::to_string(values) +
                        ", counts sum " + std::to_string(sum) +
                        ", values staged " + std::to_string(want);
      return;
    }
  }
}

// vis / render / icet counts, from Backend::stats() of every server, over
// the measured iterations.
void catalyst_layers(StagingArea& area, Episode& ep, double iterations) {
  double cells = 0, triangles = 0, composite = 0;
  for (const auto& s : area.servers()) {
    const Backend* b = s->alive() ? s->pipeline(kPipeline) : nullptr;
    if (b == nullptr) continue;
    const json::Value stats = b->stats();
    const json::Value* iters = stats.find("iterations");
    if (iters == nullptr) continue;
    for (const json::Value& r : iters->as_array()) {
      if (r.number_or("iteration", 0) < 2) continue;
      cells += r.number_or("cells", 0);
      triangles += r.number_or("triangles", 0);
      composite += r.number_or("composite_bytes", 0);
    }
  }
  ep.layers["vis.cells"] = cells / iterations;
  ep.layers["render.triangles"] = triangles / iterations;
  ep.layers["icet.composite_bytes"] = composite / iterations;
}

Episode run_pipeline(const PipelineSpec& spec, std::uint64_t seed,
                     bool traced) {
  Episode ep;
  resets_for_episode(traced);
  if (traced) register_traced_backends();
  const std::string type = (traced ? "traced-" : "") + spec.backend;
  PipelineRun run;
  run.start = host_ns();

  Deployment d(seed);
  auto& sim = d.sim;
  try {
    d.area = std::make_unique<StagingArea>(d.net, ServerConfig{},
                                           LaunchModel{}, seed);
    bool ready = false;
    d.area->launch_initial(spec.servers, /*base_node=*/1000,
                           [&ready] { ready = true; });
    for (int i = 0; i < 600 && !ready; ++i)
      sim.run_until(sim.now() + des::milliseconds(100));
    if (!ready) throw std::runtime_error("staging area never became ready");
    for (const auto& s : d.area->servers()) {
      const Status cs = s->create_pipeline(kPipeline, type, spec.pipeline_json);
      if (!cs.ok()) fail("create_pipeline", cs);
    }
    std::vector<net::ProcId> addrs;
    for (int c = 0; c < spec.clients; ++c) {
      auto& p = d.net.create_process(
          static_cast<net::NodeId>(c / spec.clients_per_node));
      d.procs.push_back(&p);
      d.insts.push_back(std::make_unique<mona::Instance>(p));
      d.clients.push_back(std::make_unique<Client>(p));
      addrs.push_back(p.id());
    }
    for (auto& inst : d.insts) d.comms.push_back(inst->comm_create(addrs));
    for (int c = 0; c < spec.clients; ++c) {
      d.procs[static_cast<std::size_t>(c)]->spawn(
          "client" + std::to_string(c),
          [&, c] { run_client(d, spec, run, type, c); });
    }
    sim.run();
  } catch (const std::exception& e) {
    ep.error = e.what();
    return ep;
  }
  if (!run.window_begin || !run.window_end) {
    ep.error = "the iterations did not complete";
    return ep;
  }
  if (spec.backend == "histogram") check_histogram(spec, *d.area, run);
  ep.error = run.check_error;

  Window w{*run.window_begin, *run.window_end,
           static_cast<std::uint64_t>(spec.iterations - 1)};
  ep.setup_s = run.setup_s;
  ep.iter_ms = run.iter_ms;
  ep.kernel_ms = run.kernel_ms;
  ep.measured_s = w.host_s();
  ep.payload_bytes =
      static_cast<std::uint64_t>(w.counter("colza.bytes_staged"));
  ep.calls = run.calls;
  ep.failed_calls = run.failed_calls;
  ep.aborted_activates = run.aborted;
  ep.iterations = run.iterations;
  ep.failed_iterations = run.failed_iterations;
  ep.des_events = sim.events_processed();
  ep.virtual_ns = static_cast<std::int64_t>(sim.now());
  ep.output_hash = run.output_hash;
  if (!traced) return ep;

  // ---- per-layer metrics from the spans and the window's counters.
  fill_common_layers(ep, w, sim);
  auto& L = ep.layers;
  const std::vector<Span>& spans = recorder().spans();
  const std::vector<Ns> self = self_times(spans);
  const double n = static_cast<double>(w.iterations);
  L["apps.gen_ms"] = span_ms(spans, "apps.gen", false) / n;
  L["vis.serialize_ms"] = span_ms(spans, "vis.serialize", false) / n;
  L["vis.serialize_mb"] = static_cast<double>(run.serialized_bytes) / kMB / n;
  L["colza.activate_ms"] = span_ms(spans, "colza.activate", false) / n;
  L["colza.stage_ms"] = span_ms(spans, "colza.stage", false) / n;
  L["colza.execute_ms"] = span_ms(spans, "colza.execute", false) / n;
  L["colza.deactivate_ms"] = span_ms(spans, "colza.deactivate", false) / n;
  L["colza.activate_attempts"] =
      run.activate_calls ? run.activate_attempts /
                               static_cast<double>(run.activate_calls)
                         : 0.0;
  L["colza.activate_commit_ratio"] =
      run.activate_attempts > 0
          ? static_cast<double>(run.activate_calls_ok) / run.activate_attempts
          : 0.0;
  L["colza.activate_aborted_per_episode"] = static_cast<double>(run.aborted);
  L["colza.backend_stage_ms"] = span_ms(spans, "server.stage", true) / n;
  L["colza.backend_execute_ms"] = span_ms(spans, "server.execute", true) / n;
  L["colza.execute_outside_backend_ms"] =
      self_ms(spans, self, "colza.execute") / n;
  L["bench.iter_self_ms"] = self_ms(spans, self, "iteration") / n;
  // Every staged byte is hashed at the client, again when each copy is
  // pulled, at every integrity verify (execute-time scan and scrubber) and
  // once more right before the backend parses it. Computed, not measured.
  const double staged = w.counter("colza.bytes_staged");
  const double block_bytes =
      staged / (n * spec.clients * spec.blocks_per_client);
  L["common.crc_bytes"] =
      (staged + w.counter("colza.server.bytes_pulled") +
       w.counter("colza.server.replica_bytes_pulled") +
       w.counter("integrity.verify") * block_bytes + staged) /
      n;
  double join_s = 0;
  for (double s : run.join_to_view_s) join_s += s;
  L["ssg.join_to_view_s"] =
      run.join_to_view_s.empty()
          ? 0.0
          : join_s / static_cast<double>(run.join_to_view_s.size());
  if (spec.backend == "catalyst") catalyst_layers(*d.area, ep, n);
  return ep;
}

// ------------------------------------------------------------------ inputs

// A seed-derived jitter in [-1, 1), so that seeds change the inputs but not
// the amount of work much.
double jitter(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.uniform() * 2.0 - 1.0;
}

std::function<vis::DataSet(std::uint32_t, std::uint64_t)> mandelbulb_blocks(
    std::uint32_t points, std::uint32_t total_blocks, std::uint64_t seed) {
  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = points;
  mb.total_blocks = total_blocks;
  mb.power = static_cast<float>(8.0 + 0.1 * jitter(seed, 1));
  return [mb](std::uint32_t block, std::uint64_t iteration) {
    // The fractal breathes slowly, so every iteration renders a new frame.
    apps::MandelbulbParams p = mb;
    p.power += 0.01f * static_cast<float>(iteration % 8);
    return vis::DataSet{apps::mandelbulb_block(p, block)};
  };
}

PipelineSpec render_spec(std::uint64_t seed) {
  PipelineSpec s;
  s.servers = 4;
  s.clients = 16;
  s.blocks_per_client = 4;
  s.iterations = 21;
  s.backend = "catalyst";
  s.pipeline_json = R"({"preset":"mandelbulb","width":256,"height":256})";
  s.make_block = mandelbulb_blocks(12, 64, seed);
  return s;
}

PipelineSpec stage_spec(std::uint64_t seed) {
  constexpr std::uint32_t kPoints = 64;  // 64^3 f32 = 1 MiB per block
  PipelineSpec s;
  s.servers = 4;
  s.clients = 8;
  s.blocks_per_client = 4;
  s.iterations = 16;
  s.backend = "histogram";
  s.pipeline_json =
      R"({"field":"v","bins":32,"range_lo":0.0,"range_hi":1.0})";
  s.values_per_block = std::uint64_t{kPoints} * kPoints * kPoints;
  s.make_block = [seed](std::uint32_t block, std::uint64_t iteration) {
    // Hashed, so that no two seeds stage permutations of the same blocks.
    Rng rng(common::fnv1a_word(common::fnv1a_word(seed, iteration), block));
    std::vector<float> v(std::size_t{kPoints} * kPoints * kPoints);
    for (float& x : v) x = static_cast<float>(rng.uniform());
    vis::UniformGrid g;
    g.dims = {kPoints, kPoints, kPoints};
    g.point_data.add(vis::DataArray::make<float>("v", v));
    return vis::DataSet{std::move(g)};
  };
  return s;
}

PipelineSpec elastic_spec(std::uint64_t seed) {
  PipelineSpec s;
  s.servers = 4;
  s.clients = 64;
  s.blocks_per_client = 1;
  s.iterations = 49;
  s.backend = "catalyst";
  s.pipeline_json = R"({"preset":"mandelbulb","width":32,"height":32})";
  s.compute_between = des::seconds(2);
  s.join_every = 2;
  s.joins = 24;  // 4 -> 28 servers
  s.make_block = mandelbulb_blocks(4, 64, seed);
  return s;
}

// ------------------------------------------------------------------ viewer

struct ViewerSpec {
  // Not 50,000: that many sessions' state made a publish bound by memory
  // latency, whose speed moved between periods of a shared host by up to a
  // third while the reference kernel's did not (README.md, Workloads).
  std::size_t sessions = 10'000;
  std::uint32_t cameras = 16;
  int publishes = 41;  // including the warm-up publish 1
  int remote_observers = 8;
  std::uint32_t width = 64, height = 64;
  des::Duration interval = des::milliseconds(100);
};

// Frames that look like renders: a flat background with one shaded disc
// that moves with the iteration and the camera, so deltas between frames
// are mostly zero runs -- the input the XOR-RLE codec ships for.
viewer::Producer scene(const ViewerSpec& spec, std::uint64_t seed) {
  const double phase = 3.14159265 * jitter(seed, 2);
  const std::uint8_t bg = static_cast<std::uint8_t>(24 + 8 * jitter(seed, 3));
  return [w = spec.width, h = spec.height, cams = spec.cameras, phase, bg](
             std::uint64_t iteration, std::uint32_t camera, double) {
    viewer::FrameImage img;
    img.width = w;
    img.height = h;
    img.rgba.assign(std::size_t{w} * h * 4, bg);
    const double a = phase + 0.15 * static_cast<double>(iteration) +
                     6.2831853 * camera / cams;
    const double cx = w * (0.5 + 0.3 * std::cos(a));
    const double cy = h * (0.5 + 0.3 * std::sin(a));
    const double r = w * 0.15;
    for (std::uint32_t y = 0; y < h; ++y) {
      for (std::uint32_t x = 0; x < w; ++x) {
        const double dx = x - cx, dy = y - cy;
        const double d2 = (dx * dx + dy * dy) / (r * r);
        if (d2 > 1.0) continue;
        const double shade = std::sqrt(1.0 - d2);
        std::uint8_t* px = &img.rgba[(std::size_t{y} * w + x) * 4];
        px[0] = static_cast<std::uint8_t>(60 + 190 * shade);
        px[1] = static_cast<std::uint8_t>(40 + 120 * shade);
        px[2] = static_cast<std::uint8_t>(30 + 60 * shade);
        px[3] = 255;
      }
    }
    return img;
  };
}

Episode run_viewer(const std::string& workload, const ViewerSpec& spec,
                   std::uint64_t seed, bool traced) {
  Episode ep;
  resets_for_episode(traced);
  const Ns start = host_ns();
  des::Simulation sim(
      des::SimConfig{.seed = seed, .fixed_scoped_charge = kFixedCharge});
  net::Network net(sim);
  auto& tier_proc = net.create_process(1);
  rpc::Engine tier_engine(tier_proc, net::Profile::mona());
  viewer::ViewerTier tier(tier_proc, tier_engine);
  tier.set_producer(workload, scene(spec, seed));

  // Remote observers: push sessions that decode and hash-check every frame
  // over RPC; the bulk of the sessions are local, accounting-only ones.
  struct Observer {
    std::unique_ptr<rpc::Engine> engine;
    std::unique_ptr<viewer::ViewerClient> client;
  };
  std::vector<Observer> observers;
  for (int o = 0; o < spec.remote_observers; ++o) {
    auto& p = net.create_process(static_cast<net::NodeId>(100 + o));
    Observer obs;
    obs.engine = std::make_unique<rpc::Engine>(p, net::Profile::mona());
    obs.client = std::make_unique<viewer::ViewerClient>(*obs.engine);
    observers.push_back(std::move(obs));
    p.spawn("observer", [&, o] {
      auto& c = *observers[static_cast<std::size_t>(o)].client;
      auto session = c.connect(tier_proc.id(), static_cast<std::uint32_t>(o % 3));
      if (!session.has_value()) fail("viewer connect", session.status());
      const Status s = c.subscribe(
          workload, static_cast<std::uint32_t>(o) % spec.cameras);
      if (!s.ok()) fail("viewer subscribe", s);
    });
  }

  std::uint64_t calls = 0, failed = 0;
  std::vector<double> iter_ms, kernel_ms;
  std::optional<Counters> begin, end;
  double setup_s = 0;
  std::uint64_t renders_begin = 0, frames_begin = 0, bytes_begin = 0,
                skips_begin = 0;
  std::string check_error;
  tier_proc.spawn("driver", [&] {
    Rng rng(seed);
    for (std::size_t i = 0; i < spec.sessions; ++i) {
      const std::uint64_t id =
          tier.connect(static_cast<std::uint32_t>(rng.below(3)));
      const Status s = tier.subscribe(
          id, workload, static_cast<std::uint32_t>(rng.below(spec.cameras)));
      if (!s.ok()) fail("subscribe", s);
    }
    sim.sleep_for(des::milliseconds(50));  // remote connects cross the fabric
    if (tier.sessions() != spec.sessions + observers.size()) {
      check_error = "viewer tier holds " + std::to_string(tier.sessions()) +
                    " sessions";
    }
    Ns iter_start = host_ns();
    for (int p = 1; p <= spec.publishes; ++p) {
      const auto it = static_cast<std::uint64_t>(p);
      {
        PathSpan span("viewer.publish", it);
        tier.publish(workload, it);
        tier.quiesce();
      }
      sim.sleep_for(spec.interval);
      const Ns now = host_ns();
      if (p == 1) {
        setup_s = static_cast<double>(now - start) / 1e9;
        begin = sample(sim);
        renders_begin = tier.renders_total();
        frames_begin = tier.frames_delivered();
        bytes_begin = tier.bytes_delivered();
        skips_begin = tier.skips_total();
      } else {
        iter_ms.push_back(static_cast<double>(now - iter_start) / 1e6);
      }
      kernel_ms.push_back(reference_kernel_ms());
      iter_start = host_ns();
    }
    end = sample(sim);
    calls = tier.frames_delivered() + tier.skips_total();
    failed = tier.skips_total();
  });
  try {
    sim.run();
  } catch (const std::exception& e) {
    ep.error = e.what();
    return ep;
  }
  if (!begin || !end) {
    ep.error = "the publishes did not complete";
    return ep;
  }

  // Output checks: single-flight renders, and every pushed frame decoded
  // and matched its image hash at the observer.
  std::uint64_t hash = common::kFnvOffsetBasis;
  const std::uint64_t want_renders =
      static_cast<std::uint64_t>(spec.publishes) * spec.cameras;
  if (tier.renders_total() != want_renders) {
    check_error = "viewer rendered " + std::to_string(tier.renders_total()) +
                  " frames, want publishes x cameras = " +
                  std::to_string(want_renders);
  }
  for (const Observer& o : observers) {
    if (o.client->decode_failures() != 0 || o.client->received().empty())
      check_error = "an observer failed to decode its frames";
    for (const auto& r : o.client->received())
      hash = common::fnv1a_word(hash, r.image_hash);
  }
  hash = common::fnv1a_word(hash, tier.bytes_delivered());
  hash = common::fnv1a_word(hash, tier.frames_delivered());

  Window w{*begin, *end, static_cast<std::uint64_t>(spec.publishes - 1)};
  ep.error = check_error;
  ep.setup_s = setup_s;
  ep.iter_ms = std::move(iter_ms);
  ep.kernel_ms = std::move(kernel_ms);
  ep.measured_s = w.host_s();
  ep.payload_bytes = tier.bytes_delivered() - bytes_begin;
  ep.frames = tier.frames_delivered() - frames_begin;
  ep.bytes_per_session =
      static_cast<double>(tier.bytes_delivered()) /
      static_cast<double>(std::max<std::size_t>(1, tier.sessions()));
  ep.calls = calls;
  ep.failed_calls = failed;
  ep.iterations = static_cast<std::uint64_t>(spec.publishes);
  ep.des_events = sim.events_processed();
  ep.virtual_ns = static_cast<std::int64_t>(sim.now());
  ep.output_hash = hash;
  if (!traced) return ep;

  fill_common_layers(ep, w, sim);
  auto& L = ep.layers;
  const double n = static_cast<double>(w.iterations);
  L["viewer.publish_ms"] =
      span_ms(recorder().spans(), "viewer.publish", false) / n;
  L["viewer.renders"] =
      static_cast<double>(tier.renders_total() - renders_begin) / n;
  L["viewer.cache_hit_rate"] = tier.cache_hit_rate();
  L["viewer.bytes_delivered"] = static_cast<double>(ep.payload_bytes) / n;
  L["viewer.skips"] =
      static_cast<double>(tier.skips_total() - skips_begin) / n;
  L["viewer.bytes_per_session"] = ep.bytes_per_session;
  L["viewer.frames_per_s"] =
      w.host_s() > 0 ? static_cast<double>(ep.frames) / w.host_s() : 0.0;
  return ep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"render", "stage", "elastic",
                                              "viewer"};
  return names;
}

Episode run_episode(const std::string& workload, std::uint64_t seed,
                    bool traced) {
  if (workload == "render")
    return run_pipeline(render_spec(seed), seed, traced);
  if (workload == "stage")
    return run_pipeline(stage_spec(seed), seed, traced);
  if (workload == "elastic")
    return run_pipeline(elastic_spec(seed), seed, traced);
  if (workload == "viewer")
    return run_viewer(workload, ViewerSpec{}, seed, traced);
  Episode ep;
  ep.error = "unknown workload '" + workload + "'";
  return ep;
}

}  // namespace perfbench
