// The Colza server daemon: one per staging-area process. Hosts a provider
// that manages pipelines, participates in SSG group membership, answers the
// client protocol (get_view / prepare / commit / abort / stage / execute /
// deactivate) and the admin protocol (create_pipeline / destroy_pipeline /
// leave / shutdown).
//
// Consistency (paper S II-E): SSG is only eventually consistent, so clients
// and servers run a two-phase commit at activate() time. prepare() carries
// the client's view hash; a server votes yes only if its own SSG view hash
// matches. commit() freezes the membership for the committing pipeline --
// SSG keeps gossiping underneath, but each pipeline's frozen view (and the
// MoNA communicator handed to its backend) only changes at that pipeline's
// own commits, so pipelines sharing the staging area never touch each
// other's collectives. Graceful leaves requested while any pipeline is
// frozen are deferred until the last active iteration deactivates.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "colza/backend.hpp"
#include "common/integrity.hpp"
#include "flow/flow.hpp"
#include "net/network.hpp"
#include "rpc/engine.hpp"
#include "ssg/ssg.hpp"
#include "viewer/viewer.hpp"

namespace colza {

struct ServerConfig {
  ssg::SwimConfig swim;
  net::Profile profile = net::Profile::mona();
  des::Duration rpc_timeout = des::seconds(5);
  // Modeled one-time daemon initialization cost (library loading, Mercury
  // init...) charged before the server becomes reachable.
  des::Duration init_cost = des::milliseconds(800);
  // Flow control / multi-tenant QoS (docs/flow.md). The default budget of 0
  // keeps admission wide open, byte-for-byte identical to a pre-flow server.
  flow::FlowConfig flow;
  // Background integrity scrubber cadence: how long the scrub daemon sleeps
  // between passes over everything staged on this server (backend slots and
  // buddy replicas). Each pass re-verifies stage-time CRCs and repairs
  // divergent copies from buddies. 0 disables the scrubber; detection then
  // rests entirely on the execute-time verify.
  des::Duration scrub_interval = des::seconds(2);
  // Viewer delivery tier (docs/viewer.md): every server hosts one; it is
  // inert (two parked daemon fibers) until an observer connects. Rendered
  // frames are published to it after each successful execute.
  viewer::ViewerConfig viewer;
};

// Counters of the server-side integrity machinery, one instance per daemon
// (see docs/PROTOCOL.md, integrity section).
struct IntegrityStats {
  std::uint64_t verifies = 0;           // blocks checked (execute + scrub)
  std::uint64_t mismatches = 0;         // checks that failed
  std::uint64_t repairs = 0;            // blocks restored from a buddy copy
  std::uint64_t repair_bytes = 0;       // bytes fetched for those repairs
  std::uint64_t restage_fallbacks = 0;  // blocks with no intact copy left
  std::uint64_t scrub_passes = 0;       // completed scrubber sweeps
};

class Server {
 public:
  // Founding construction: all initial servers are created with the same
  // member list. Must run inside a fiber of `proc` (use spawn_founding).
  Server(net::Process& proc, ServerConfig config,
         std::vector<net::ProcId> initial_group, ssg::Bootstrap* bootstrap);

  // Elastic join (paper S II-F a): reads contacts from the bootstrap
  // "connection file" and joins the running group. Must run inside a fiber.
  static Expected<std::unique_ptr<Server>> join(net::Process& proc,
                                                ServerConfig config,
                                                ssg::Bootstrap* bootstrap);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] net::ProcId address() const noexcept {
    return proc_->id();
  }
  [[nodiscard]] net::Process& process() noexcept { return *proc_; }
  [[nodiscard]] ssg::Group& group() noexcept { return *group_; }
  [[nodiscard]] rpc::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] bool alive() const noexcept {
    return !left_ && proc_->alive();
  }

  // Local pipeline management (also reachable via the admin RPCs).
  Status create_pipeline(const std::string& name, const std::string& type,
                         const std::string& json_config);
  Status destroy_pipeline(const std::string& name);
  [[nodiscard]] Backend* pipeline(const std::string& name);

  // Number of iterations currently active (committed but not deactivated)
  // on this server, summed over its pipelines. Exposed for the invariant
  // harness: when every client iteration has completed, this must be zero on
  // every survivor.
  [[nodiscard]] int active_iterations() const noexcept {
    std::size_t n = 0;
    for (const auto& [name, e] : pipelines_) n += e.active.size();
    return static_cast<int>(n);
  }

  // Buddy replicas currently held for (pipeline, iteration) in the
  // pipeline's replica store (test/diagnostic accessor; backends never see
  // replicas unless they are promoted).
  [[nodiscard]] std::size_t replica_count(const std::string& pipeline,
                                          std::uint64_t iteration) const;

  // Flow-control state (budget, grant queue, weights). Always present;
  // inert when the configured budget is 0.
  [[nodiscard]] flow::ServerFlow& flow() noexcept { return *flow_; }
  [[nodiscard]] const flow::ServerFlow& flow() const noexcept {
    return *flow_;
  }

  // Integrity counters (also served via the colza.admin.integrity RPC).
  [[nodiscard]] const IntegrityStats& integrity() const noexcept {
    return integrity_;
  }

  // The co-hosted viewer delivery tier (sessions, frame cache, steering).
  [[nodiscard]] viewer::ViewerTier& viewer() noexcept { return *viewer_; }

  // Leaves the group and stops serving (deferred while iterations are
  // active). The underlying simulated process is killed once out.
  void leave();

 private:
  Server(net::Process& proc, ServerConfig config, ssg::Bootstrap* bootstrap);

  void install_handlers();
  void finish_leave();

  // One loaded pipeline with its own 2PC / freeze state. Pipelines sharing
  // the staging area prepare, commit and freeze independently: a commit
  // rebuilds only its own pipeline's communicator.
  struct PipelineEntry {
    std::string type;
    // Shared, not unique: the viewer tier's producer holds a weak_ptr, so a
    // render already popped off the tier's queue when destroy_pipeline runs
    // observes the teardown instead of touching a freed backend.
    std::shared_ptr<Backend> backend;
    // The iteration a prepare voted yes for, until commit or abort.
    std::optional<std::uint64_t> prepared;
    // Active iterations are tracked as a set of ids so commit and
    // deactivate are idempotent: a client that re-commits an iteration
    // after losing the first commit's response must not leave the
    // membership frozen forever.
    std::set<std::uint64_t> active;
    // Last committed activation epoch per iteration (see the commit
    // handler's epoch fence).
    std::map<std::uint64_t, std::uint64_t> committed_epoch;
    // The view frozen by the last commit (sorted) and the communicator
    // built over it, under a context keyed by (pipeline, epoch).
    std::vector<net::ProcId> view;
    std::shared_ptr<mona::Communicator> comm;
    // Buddy copies of staged blocks (replica_rank > 0). They live here --
    // backends stay replica-agnostic -- in slots opened at each fresh
    // activation and closed at deactivate. The recorded copyset lets every
    // member of a recovery view decide locally, and identically, who
    // promotes a block: the first copyset member still in the frozen view.
    StagedBlockStore replicas;
  };

  // The record of pipeline `name`, or nullptr.
  [[nodiscard]] PipelineEntry* entry(const std::string& name);

  // Feeds every replica this server must promote (first live copyset member
  // == self) for `iteration` into the backend's staging slot. Idempotent:
  // backend staging is keyed, so re-promotion on an execute retry replaces
  // the same block.
  void promote_replicas(PipelineEntry& e, std::uint64_t iteration);

  // ---- integrity (docs/PROTOCOL.md, integrity section) --------------------
  // Scans the backend's stored blocks for `iteration` and repairs every
  // block whose bytes no longer hash to their stage-time CRC by fetching a
  // buddy's copy (colza.fetch_block), verifying it locally, and re-staging
  // it. Returns Corrupt (detail = block_id + 1) when some block has no
  // intact copy anywhere in its copyset -- the caller then falls back to a
  // client-driven targeted re-stage.
  Status verify_and_repair(const std::string& name, Backend* backend,
                           std::uint64_t iteration);
  // One repair attempt for a single invalid block; true when an intact copy
  // was verified and staged back.
  bool repair_block(const std::string& name, Backend* backend,
                    std::uint64_t iteration, const BlockInfo& info);
  // Asks the other members of `copyset`, in order, for their copy of the
  // block (colza.fetch_block) and verifies each reply locally -- a reply
  // that fails its own CRC strikes the member that served it. The first
  // intact copy of generation `checksum` goes to `install` (with the member
  // that served it); the search stops once `install` returns true. Returns
  // whether it did.
  bool fetch_intact_copy(
      const std::string& name, std::uint64_t iteration,
      std::uint64_t block_id, const std::string& field,
      const std::vector<net::ProcId>& copyset, std::uint32_t checksum,
      const std::function<bool(net::ProcId, std::vector<std::byte>)>&
          install);
  // Counts a stored or pulled copy that failed its CRC check (`where` tags
  // the trace event, e.g. ",\"replica\":1").
  void note_mismatch(std::uint64_t block_id, const std::string& where);
  // Counts a block restored from a buddy's copy of `bytes` bytes.
  void note_repair(std::uint64_t bytes);
  // One scrubber sweep over everything staged here: backend slots (via
  // verify_and_repair) and the buddy-replica stores (repaired in place by
  // fetching from other copyset members).
  void scrub_pass();
  // The chaos hook (common::integrity::Registry): rots one stored payload
  // picked deterministically by `pick` among everything staged on this
  // server. When nothing is staged at fire time the corruption is deferred
  // to the next payload this server stores (rot on write) -- staged windows
  // last milliseconds, so an instant-only rule would almost always miss.
  // Checksums are left untouched -- that is the point.
  common::integrity::CorruptResult corrupt_storage(
      common::integrity::CorruptMode mode, std::uint64_t pick);
  // Applies (and consumes) the oldest deferred corruption, if any, to a
  // payload that was just stored and verified.
  void apply_pending_corrupt(std::vector<std::byte>& data);

  net::Process* proc_;
  ServerConfig config_;
  ssg::Bootstrap* bootstrap_;
  std::unique_ptr<rpc::Engine> engine_;
  std::unique_ptr<mona::Instance> mona_;
  std::unique_ptr<flow::ServerFlow> flow_;
  std::unique_ptr<viewer::ViewerTier> viewer_;
  std::unique_ptr<ssg::Group> group_;
  std::map<std::string, PipelineEntry> pipelines_;
  IntegrityStats integrity_;
  // Corruptions injected while nothing was staged, waiting for the next
  // stored payload (FIFO).
  std::vector<std::pair<common::integrity::CorruptMode, std::uint64_t>>
      pending_corrupts_;
  bool leave_pending_ = false;
  bool left_ = false;
};

}  // namespace colza
