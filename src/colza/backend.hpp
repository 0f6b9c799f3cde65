// The user-facing pipeline abstraction (paper S II-B): a pipeline is a C++
// class inheriting from colza::Backend, instantiated on each server. The
// paper compiles pipelines into shared libraries loaded with dlopen; this
// reproduction uses a name-keyed factory registry with identical lifecycle
// semantics (create-by-name at run time, optional JSON configuration) --
// see DESIGN.md for the substitution rationale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "colza/types.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"

namespace colza {

namespace des {
class Simulation;
}
namespace render {
struct FrameBuffer;
}

// One stored block as the integrity layer sees it (Backend::integrity_scan).
struct BlockInfo {
  std::uint64_t block_id = 0;
  std::string field_name;
  std::uint32_t checksum = 0;  // the stage-time CRC32C on record
  std::size_t bytes = 0;       // stored size (may differ after truncation)
  bool valid = false;          // stored bytes still hash to `checksum`
  std::vector<net::ProcId> copyset;  // recorded placement ([0] = primary)
};

// The staged-block store: staged payloads of every open iteration, kept as
// the raw bytes the server pulled, alongside their stage-time CRC32C, sender
// and recorded copyset. Backends hold one for their primary copies (paper
// S II-B: staged data lives from activate to deactivate) and the server one
// per pipeline for buddy replicas.
//
// Storage is keyed by (block_id, field), so put() is idempotent: a
// retransmitted, duplicated or repair-driven stage replaces the earlier copy
// instead of counting the block twice. Every enumeration runs in sorted key
// order (iterations ascending, then block_id, then field), which keeps scans,
// repairs and chaos victim picks deterministic.
class StagedBlockStore {
 public:
  using Key = std::pair<std::uint64_t, std::string>;  // (block_id, field)
  struct Block {
    std::vector<std::byte> data;
    std::uint32_t checksum = 0;  // stage-time CRC32C of `data`
    net::ProcId sender = net::kInvalidProc;
    std::vector<net::ProcId> copyset;  // recorded placement ([0] = primary)
  };
  using Slot = std::map<Key, Block>;

  // Opens an empty slot for `iteration`, dropping whatever an earlier
  // activation of the same iteration left there.
  void open(std::uint64_t iteration);
  [[nodiscard]] bool is_open(std::uint64_t iteration) const;
  // Stores (or replaces) block.iteration's (block_id, field) entry.
  // FailedPrecondition when that iteration is not open.
  Status put(StagedBlock block);
  // Drops the slot and everything in it.
  void close(std::uint64_t iteration);

  // The blocks of `iteration`, or nullptr when it is not open.
  [[nodiscard]] const Slot* slot(std::uint64_t iteration) const;
  [[nodiscard]] Block* find(std::uint64_t iteration, std::uint64_t block_id,
                            const std::string& field);
  // Every block of `iteration`, re-verified against its checksum.
  [[nodiscard]] std::vector<BlockInfo> scan(std::uint64_t iteration) const;
  // Verify-then-use: for each block of `iteration`, checks the CRC and runs
  // `fn` on the bytes inside one sim.charge_scoped call, i.e. at one virtual
  // instant, so a corruption event cannot slip between a block's
  // verification and its use. Stops at the first mismatch with
  // Corrupt (detail = block_id + 1; that block is not charged) or at the
  // first non-ok status from `fn`. An exception from `fn` propagates
  // uncharged.
  Status for_each_verified(
      des::Simulation& sim, std::uint64_t iteration,
      const std::function<Status(const Key&, std::span<const std::byte>)>&
          fn);

  // Visits every stored block of every open iteration.
  template <typename Fn>  // void(std::uint64_t iteration, const Key&, Block&)
  void for_each(Fn&& fn) {
    for (auto& [iteration, blocks] : slots_) {
      for (auto& [key, block] : blocks) fn(iteration, key, block);
    }
  }

 private:
  std::map<std::uint64_t, Slot> slots_;
};

class Backend {
 public:
  // Everything a pipeline instance gets from its hosting provider.
  struct Context {
    net::Process* proc = nullptr;
    mona::Instance* mona = nullptr;
    json::Value config;  // the admin-supplied JSON configuration
  };

  explicit Backend(Context ctx) : ctx_(std::move(ctx)) {}
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // Lifecycle RPCs, in protocol order (paper S II-B):
  //   activate -> stage* -> execute -> deactivate
  // The defaults keep the staged blocks in staged_: activate opens a fresh
  // slot (the client re-stages every block after each activate, so blocks of
  // an earlier attempt whose deactivate was lost must not leak into this
  // one), stage stores the raw bytes, and deactivate drops them. Pipelines
  // normally write only execute, reading the blocks back through
  // staged_.for_each_verified.
  virtual Status activate(std::uint64_t iteration);
  virtual Status stage(StagedBlock block);
  virtual Status execute(std::uint64_t iteration) = 0;
  virtual Status deactivate(std::uint64_t iteration);

  // Called by the provider at each 2PC commit of this pipeline: `comm` spans
  // the servers of the newly frozen view, in sorted address order, in a
  // fresh context of its own. Pipelines use it for their parallel operations.
  virtual void update_comm(std::shared_ptr<mona::Communicator> comm) {
    comm_ = std::move(comm);
  }

  // Introspection: a JSON document describing the pipeline's state and
  // per-iteration statistics (what external monitors / autoscalers read via
  // the colza.admin.stats RPC). Default: empty object.
  [[nodiscard]] virtual json::Value stats() const { return json::Object{}; }

  // The most recently rendered framebuffer, for pipelines that produce one.
  // The viewer delivery tier (src/viewer) snapshots it to serve observer
  // fan-out; nullptr (the default) means this pipeline renders nothing and
  // viewers of it receive no frames.
  [[nodiscard]] virtual const render::FrameBuffer* rendered_frame() const {
    return nullptr;
  }

  // ---- data integrity (docs/PROTOCOL.md, integrity section) ---------------
  // The server's integrity layer reaches the staged payloads through these:
  // scans re-verify every stored block against its stage-time CRC32C,
  // repairs re-stage a verified copy fetched from a buddy (via the ordinary
  // keyed stage(), which replaces in place), and the chaos layer's corrupt
  // rules rot bytes through stored_payload. The defaults serve staged_.
  using BlockInfo = colza::BlockInfo;
  // Every stored block of `iteration`, re-verified, in (block_id, field)
  // order so scans are deterministic.
  [[nodiscard]] virtual std::vector<BlockInfo> integrity_scan(
      std::uint64_t iteration);
  // Copies the stored bytes and recorded checksum out (for serving a buddy's
  // repair fetch). Deliberately does NOT verify: a silently corrupt server
  // does not know its bytes rotted -- the requester verifies.
  [[nodiscard]] virtual bool fetch_block(std::uint64_t iteration,
                                         std::uint64_t block_id,
                                         const std::string& field,
                                         StagedBlock& out);
  // Mutable access to the stored payload under (iteration, block_id, field),
  // or nullptr when unknown. Only the chaos corruption hook uses this; the
  // protocol itself never mutates stored bytes in place.
  [[nodiscard]] virtual std::vector<std::byte>* stored_payload(
      std::uint64_t iteration, std::uint64_t block_id,
      const std::string& field);

  // ---- stateful pipelines (paper S VI, future-work item 3) ----------------
  // A stateful pipeline accumulates data across iterations (running
  // statistics, cinema databases, ...). When its server leaves the staging
  // area gracefully, the provider exports its state and ships it to a
  // surviving peer, which merges it via import_state.
  [[nodiscard]] virtual bool stateful() const { return false; }
  [[nodiscard]] virtual std::vector<std::byte> export_state() { return {}; }
  virtual Status import_state(std::span<const std::byte> /*state*/) {
    return Status::Ok();
  }

  [[nodiscard]] const Context& context() const noexcept { return ctx_; }
  [[nodiscard]] const std::shared_ptr<mona::Communicator>& comm()
      const noexcept {
    return comm_;
  }

 protected:
  Context ctx_;
  std::shared_ptr<mona::Communicator> comm_;
  StagedBlockStore staged_;
};

using BackendFactory =
    std::function<std::unique_ptr<Backend>(Backend::Context)>;

// The stand-in for the dlopen'd shared-library mechanism: pipelines register
// a factory under a type name; providers instantiate by name on demand.
class BackendRegistry {
 public:
  static void register_type(const std::string& type, BackendFactory factory);
  [[nodiscard]] static bool has(const std::string& type);
  [[nodiscard]] static Expected<std::unique_ptr<Backend>> create(
      const std::string& type, Backend::Context ctx);
  [[nodiscard]] static std::vector<std::string> types();
};

// Static registration helper:
//   COLZA_REGISTER_BACKEND("my-pipeline", MyPipeline);
#define COLZA_REGISTER_BACKEND(type_name, cls)                            \
  namespace {                                                             \
  const bool colza_registered_##cls = [] {                                \
    ::colza::BackendRegistry::register_type(                              \
        type_name, [](::colza::Backend::Context ctx) {                    \
          return std::make_unique<cls>(std::move(ctx));                   \
        });                                                               \
    return true;                                                          \
  }();                                                                    \
  }

}  // namespace colza
