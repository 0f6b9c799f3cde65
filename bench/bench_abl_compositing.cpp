// Ablation: image compositing strategy (IceT design choice). Compares the
// tree, binary-swap and direct-send strategies across staging-area sizes --
// binary swap's bandwidth advantage is why IceT (and this reproduction's
// pipelines) default to it at scale.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "des/simulation.hpp"
#include "icet/icet.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"

namespace {

using namespace colza;

struct Result {
  double ms = 0;
  double mib_sent = 0;
};

Result run(icet::Strategy strategy, int nprocs, int image_edge) {
  des::Simulation sim;
  net::Network net(sim);
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < nprocs; ++i) {
    auto& p = net.create_process(static_cast<net::NodeId>(i / 4));
    procs.push_back(&p);
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }
  std::vector<std::shared_ptr<mona::Communicator>> comms(
      static_cast<std::size_t>(nprocs));
  std::vector<render::FrameBuffer> fbs(static_cast<std::size_t>(nprocs));
  Result result;
  des::Duration elapsed = 0;
  std::uint64_t bytes = 0;
  for (int i = 0; i < nprocs; ++i) {
    comms[static_cast<std::size_t>(i)] =
        insts[static_cast<std::size_t>(i)]->comm_create(addrs);
    auto& fb = fbs[static_cast<std::size_t>(i)];
    fb.resize(image_edge, image_edge);
    // ~60% active pixels, rank-dependent depths (a realistic composited
    // scene rather than fully dense or fully sparse).
    for (std::size_t p = 0; p < fb.pixel_count(); ++p) {
      if ((p * 2654435761u + static_cast<std::size_t>(i)) % 10 < 6) {
        fb.rgba[p * 4 + 0] = 0.5f;
        fb.rgba[p * 4 + 3] = 1.0f;
        fb.depth[p] = 0.1f + 0.8f * static_cast<float>(i) /
                                 static_cast<float>(nprocs);
      }
    }
  }
  for (int i = 0; i < nprocs; ++i) {
    procs[static_cast<std::size_t>(i)]->spawn("compose", [&, i] {
      const des::Time t0 = sim.now();
      auto r = icet::composite(fbs[static_cast<std::size_t>(i)],
                               *comms[static_cast<std::size_t>(i)], strategy,
                               icet::CompositeOp::closest_depth);
      r.status().check();
      bytes += r->bytes_sent;
      if (i == 0) elapsed = sim.now() - t0;
    });
  }
  sim.run();
  result.ms = des::to_millis(elapsed);
  result.mib_sent = static_cast<double>(bytes) / (1024.0 * 1024.0);
  return result;
}

}  // namespace

int main() {
  using namespace colza::bench;
  headline("Ablation -- image compositing strategies (IceT substitute)",
           "time and traffic of tree vs binary-swap vs direct at 256x256");

  Table table({"procs", "tree_ms", "bswap_ms", "direct_ms", "tree_MiB",
               "bswap_MiB", "direct_MiB"});
  for (int n : {2, 4, 8, 16, 32, 64}) {
    const Result tree = run(icet::Strategy::tree, n, 256);
    const Result bswap = run(icet::Strategy::binary_swap, n, 256);
    const Result direct = run(icet::Strategy::direct, n, 256);
    table.row({std::to_string(n), fmt_ms(tree.ms), fmt_ms(bswap.ms),
               fmt_ms(direct.ms), fmt("%.2f", tree.mib_sent),
               fmt("%.2f", bswap.mib_sent), fmt("%.2f", direct.mib_sent)});
  }
  table.print("abl_icet");
  return 0;
}
