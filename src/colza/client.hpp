// The Colza client library: what the simulation links against.
//
// A DistributedPipelineHandle references a pipeline instance on every server
// of the staging area (paper S II-B). It provides activate / stage /
// execute / deactivate plus non-blocking variants. activate() runs the
// client/server two-phase commit that reconciles SSG's eventually consistent
// views (S II-E); stage() ships only a memory handle, the server pulls the
// data via RDMA.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "colza/types.hpp"
#include "common/backoff.hpp"
#include "des/sync.hpp"
#include "flow/aimd.hpp"
#include "rpc/engine.hpp"
#include "ssg/ssg.hpp"
#include "vis/data.hpp"

namespace colza {

// Client-side flow control (docs/flow.md). When enabled, every stage copy
// first obtains a byte credit from its target server (colza.flow.acquire)
// and retries Busy sheds under a backoff floored at the server's
// retry-after hint, while an AIMD window per pipeline adapts how many bytes
// this client keeps in flight. Off by default: a non-flow-controlled client
// stages exactly like the pre-flow one (grant_id 0 on the wire).
struct FlowClientOptions {
  bool enabled = false;
  flow::AimdConfig aimd;
  // Backoff between Busy retries; the server hint only ever raises a delay.
  BackoffPolicy busy_backoff{des::milliseconds(10), 2.0, des::seconds(2),
                             0.25, 0};
  int max_busy_retries = 16;
};

// Handle to a non-blocking client operation.
class AsyncOp {
 public:
  AsyncOp() = default;
  Status wait();
  [[nodiscard]] bool test() const;

 private:
  friend class DistributedPipelineHandle;
  struct State {
    Status status;
    bool done = false;
  };
  AsyncOp(des::Simulation* sim, des::FiberHandle fiber,
          std::shared_ptr<State> state)
      : sim_(sim), fiber_(fiber), state_(std::move(state)) {}
  des::Simulation* sim_ = nullptr;
  des::FiberHandle fiber_;
  std::shared_ptr<State> state_;
};

class Client {
 public:
  explicit Client(net::Process& proc,
                  net::Profile profile = net::Profile::mona());

  [[nodiscard]] rpc::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] net::Process& process() noexcept { return *proc_; }

 private:
  net::Process* proc_;
  std::unique_ptr<rpc::Engine> engine_;
};

// Selects which server (index into the current view) receives a block.
// Default: block_id % server_count (paper S II-B: "this selection is based
// on a block id provided as part of the metadata").
using DistributionPolicy =
    std::function<std::size_t(std::uint64_t block_id, std::size_t nservers)>;

class DistributedPipelineHandle {
 public:
  // Looks the pipeline up through any of `contacts` (e.g. the bootstrap
  // file's member list). Must be called from a fiber.
  static Expected<DistributedPipelineHandle> lookup(
      Client& client, const std::vector<net::ProcId>& contacts,
      std::string pipeline_name);

  // ---- view management ----------------------------------------------------
  // Fetches a fresh view from any known server.
  Status refresh_view();
  [[nodiscard]] const std::vector<net::ProcId>& view() const noexcept {
    return view_;
  }
  [[nodiscard]] std::uint64_t view_hash() const noexcept { return view_hash_; }
  // Installs a view obtained out of band (e.g. broadcast from the client
  // rank that ran activate() to its peers).
  void set_view(std::vector<net::ProcId> view, std::uint64_t hash);
  [[nodiscard]] std::size_t server_count() const noexcept {
    return view_.size();
  }

  void set_distribution_policy(DistributionPolicy policy) {
    policy_ = std::move(policy);
  }

  // Enables (or reconfigures) client-side flow control for this handle.
  // Resets the AIMD window to its initial size.
  void set_flow_control(FlowClientOptions options);
  [[nodiscard]] bool flow_control_enabled() const noexcept {
    return flow_.enabled;
  }
  [[nodiscard]] const flow::AimdWindow& flow_window() const noexcept {
    return window_;
  }

  // Replication factor R: each block is staged to its primary owner plus
  // R - 1 rendezvous-hashed buddies (capped at the view size). Default 2,
  // so one server crash never loses staged data. 1 restores the paper's
  // unreplicated staging.
  void set_replication(std::size_t r) { replication_ = r == 0 ? 1 : r; }
  [[nodiscard]] std::size_t replication() const noexcept {
    return replication_;
  }

  // The copyset stage() would use for `block_id` under the current view
  // ([0] = primary). Used by the recovery path to check coverage.
  [[nodiscard]] std::vector<net::ProcId> copyset_for(
      std::uint64_t block_id) const;

  // ---- viewer steering (docs/viewer.md) -----------------------------------
  // Names the viewer tier (the process hosting it, usually a staging server)
  // whose steering channel this simulation honors. kInvalidProc = none.
  void set_viewer_tier(net::ProcId tier) noexcept { viewer_tier_ = tier; }
  [[nodiscard]] net::ProcId viewer_tier() const noexcept {
    return viewer_tier_;
  }
  // Iteration boundary: fetch the steering parameter updates queued at the
  // tier for this pipeline, to fold into iteration `iteration` before it is
  // computed. Empty when no tier is set or nothing was steered.
  Expected<std::vector<SteeringUpdate>> drain_steering(std::uint64_t iteration);

  // ---- the protocol ------------------------------------------------------
  // Two-phase commit across all servers; retries with a refreshed view on
  // mismatch (bounded). On success the servers' membership is frozen and
  // the pipeline is activated everywhere.
  Status activate(std::uint64_t iteration, int max_attempts = 8);

  // Recovery variant of activate(): freezes a fresh view for an iteration
  // the survivors already hold *without* discarding their staged blocks and
  // replicas (commit ships a `recover` flag). Staged data on survivors stays
  // valid; only blocks whose entire copyset died need re-staging.
  Status reactivate(std::uint64_t iteration, int max_attempts = 8);

  // Stages one block: exposes `data` for RDMA, sends the metadata to every
  // member of the block's copyset (owner + buddies), waits for the pulls to
  // complete. `data` must stay valid for the duration of the call. Returns
  // the first non-ok status across the copyset.
  Status stage(std::uint64_t iteration, std::uint64_t block_id,
               std::span<const std::byte> data, std::string field_name = "");
  // Convenience: serialize a dataset and stage it.
  Status stage(std::uint64_t iteration, std::uint64_t block_id,
               const vis::DataSet& dataset, std::string field_name = "");
  // Recovery path: stages one block to an explicit copyset (copy i goes to
  // copyset[i] with replica rank i), preserving the originally recorded
  // placement so survivors keep agreeing on who promotes what.
  Status stage_to(std::uint64_t iteration, std::uint64_t block_id,
                  std::span<const std::byte> data,
                  const std::vector<net::ProcId>& copyset,
                  std::string field_name = "");

  // Broadcasts execute to every server of the frozen view.
  Status execute(std::uint64_t iteration);
  // Broadcasts deactivate; servers unfreeze membership afterwards.
  Status deactivate(std::uint64_t iteration);
  // Targeted deactivate for recovery cleanup: a live server dropped from a
  // re-frozen recovery view still holds the iteration active from the
  // original activate and would never see the view-wide broadcast.
  Status deactivate_on(std::uint64_t iteration,
                       const std::vector<net::ProcId>& servers);

  // ---- non-blocking variants (paper S II-B) -------------------------------
  AsyncOp iactivate(std::uint64_t iteration);
  AsyncOp istage(std::uint64_t iteration, std::uint64_t block_id,
                 std::span<const std::byte> data, std::string field_name = "");
  AsyncOp iexecute(std::uint64_t iteration);
  AsyncOp ideactivate(std::uint64_t iteration);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] rpc::Engine& engine() noexcept { return client_->engine(); }

 private:
  DistributedPipelineHandle(Client* client, std::string name,
                            std::vector<net::ProcId> view,
                            std::uint64_t hash);

  Status activate_impl(std::uint64_t iteration, int max_attempts,
                       bool recover);

  // One stage RPC to one copyset member, with the flow-control acquire /
  // Busy-retry loop wrapped around it when enabled.
  Status stage_copy(net::ProcId server, const StageMetadata& meta);
  // Blocks (bounded) until the AIMD window admits `bytes` more in flight.
  void window_reserve(std::uint64_t bytes);

  // Runs `fn(server)` concurrently for every server in `servers`; returns
  // the first non-ok status (all calls complete regardless). Fan-out fibers
  // inherit the calling fiber's ambient RPC deadline.
  Status parallel_over(const std::vector<net::ProcId>& servers,
                       const std::function<Status(net::ProcId)>& fn);
  AsyncOp async(std::string label, std::function<Status()> op);

  Client* client_ = nullptr;
  std::string name_;
  std::vector<net::ProcId> view_;
  std::uint64_t view_hash_ = 0;
  // Activation epoch: bumped for every commit attempt and shipped with the
  // commit RPC; servers key the pipeline's communicator context by
  // (pipeline, epoch), so each attempt collects in a fresh tag space.
  std::uint64_t epoch_ = 0;
  DistributionPolicy policy_;
  std::size_t replication_ = 2;
  FlowClientOptions flow_;
  flow::AimdWindow window_;
  net::ProcId viewer_tier_ = net::kInvalidProc;
};

}  // namespace colza
