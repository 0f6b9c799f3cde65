// Deployment and elasticity driving: the stand-in for job scripts, srun and
// the resource manager (paper S II-F and S III-B).
//
// StagingArea orchestrates Colza daemons inside the simulation:
//   * launch_initial(): founding deployment of N servers;
//   * launch_one(): elastic scale-up -- models the srun launch latency, then
//     the new daemon reads the bootstrap "connection file" and joins via SSG
//     (this is what Fig 4's "elastic" curve and Figs 9/10 measure);
//   * request_leave(): scale-down through the admin RPC;
//   * kill_all() + launch_initial(): the "static" redeploy of Fig 4.
//
// The launch model reproduces the paper's observation that full restarts
// have large, unpredictable times (5-40 s) while SSG joins are stable:
// per-daemon launch latency = base + Exp(mean), capped.
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "colza/admin.hpp"
#include "colza/server.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "sched/scheduler.hpp"
#include "ssg/ssg.hpp"

namespace colza {

struct LaunchModel {
  des::Duration base = des::seconds(2);
  double exp_mean_seconds = 6.0;
  des::Duration cap = des::seconds(35);

  // Launch latency depends on how many daemons start at once: a single srun
  // onto an already-allocated node is quick and predictable, while mass
  // (re)starts contend on the shared filesystem for libraries and on the
  // launcher, producing the long unpredictable tail the paper's Fig 4 shows
  // for the static strategy.
  [[nodiscard]] des::Duration sample(Rng& rng, int concurrent = 1) const {
    const double contention =
        std::min(1.0, static_cast<double>(concurrent) / 8.0);
    const double mean = exp_mean_seconds * std::max(0.12, contention);
    const double u = rng.uniform();
    const double e = -mean * std::log(1.0 - u);
    const des::Duration d = base + des::from_seconds(e);
    return std::min(d, cap);
  }
};

class StagingArea {
 public:
  StagingArea(net::Network& net, ServerConfig config, LaunchModel launch = {},
              std::uint64_t seed = 7)
      : net_(&net), config_(std::move(config)), launch_(launch), rng_(seed) {}

  [[nodiscard]] ssg::Bootstrap& bootstrap() noexcept { return bootstrap_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Server>>& servers()
      const noexcept {
    return servers_;
  }
  [[nodiscard]] std::size_t alive_count() const {
    std::size_t n = 0;
    for (const auto& s : servers_) n += s->alive() ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::vector<net::ProcId> alive_addresses() const {
    std::vector<net::ProcId> out;
    for (const auto& s : servers_) {
      if (s->alive()) out.push_back(s->address());
    }
    return out;
  }

  // Founding deployment: creates `n` daemons on nodes [base_node, ...), each
  // becoming reachable after its modeled launch latency; the group is formed
  // from the full member list. `on_ready(t)` fires when every daemon is up
  // and mutually known.
  void launch_initial(int n, net::NodeId base_node,
                      std::function<void()> on_ready = {});

  // Elastic scale-up of one daemon on `node`: srun latency, then SSG join.
  // `on_joined(server)` fires when the daemon has joined.
  void launch_one(net::NodeId node,
                  std::function<void(Server&)> on_joined = {});

  // ---- job-scheduler integration (paper S IV-A) ---------------------------
  // Binds this staging area to a job held in `scheduler`; subsequent
  // scheduled launches draw real node allocations.
  void attach_scheduler(sched::Scheduler& scheduler, sched::JobId job) {
    scheduler_ = &scheduler;
    job_ = job;
  }
  // Asks the scheduler to grow the job by one node and launches a daemon on
  // the granted node. `unavailable` when the cluster has no free nodes --
  // the caller (e.g. an autoscaler) decides whether to retry later.
  Status launch_one_scheduled(std::function<void(Server&)> on_joined = {});
  // Gracefully removes `server` (admin leave) and returns its node to the
  // scheduler once it is gone.
  Status release_scheduled(rpc::Engine& admin_engine, Server& server);

  // Scale-down through the admin interface (needs a fiber context: call from
  // a client/admin fiber).
  Status request_leave(rpc::Engine& admin_engine, net::ProcId server) {
    return Admin(admin_engine).request_leave(server);
  }

  // Kills every daemon outright (the "static" strategy's teardown). The dead
  // Server objects stay owned by the area, like every other departed
  // daemon's: their parked fibers (e.g. the scrubber) may still wake and
  // must find a live object that reports itself dead.
  void kill_all();

 private:
  net::Network* net_;
  ServerConfig config_;
  LaunchModel launch_;
  Rng rng_;
  ssg::Bootstrap bootstrap_;
  std::vector<std::unique_ptr<Server>> servers_;
  sched::Scheduler* scheduler_ = nullptr;
  sched::JobId job_ = 0;
  // Guards timers scheduled by release_scheduled against a destroyed area.
  std::shared_ptr<int> token_ = std::make_shared<int>(0);
};

}  // namespace colza
