#include "colza/server.hpp"

#include <algorithm>
#include <tuple>

#include "colza/placement.hpp"
#include "colza/supervisor.hpp"
#include "common/checksum.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace colza {

namespace {
// Mixer for deriving the corrupted bit position from the chaos pick:
// decorrelates it from the victim-block choice without a second RNG stream.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Damages `data` in place per the chaos mode, leaving its recorded checksum
// stale. Returns the number of bytes damaged.
std::size_t mangle_payload(std::vector<std::byte>& data,
                           common::integrity::CorruptMode mode,
                           std::uint64_t pick) {
  using common::integrity::CorruptMode;
  switch (mode) {
    case CorruptMode::bit_flip: {
      const std::uint64_t bit = splitmix64(pick) % (data.size() * 8);
      data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      return 1;
    }
    case CorruptMode::truncate: {
      const std::size_t keep = data.size() / 2;
      const std::size_t removed = data.size() - keep;
      data.resize(keep);
      return removed;
    }
    case CorruptMode::zero:
      std::fill(data.begin(), data.end(), std::byte{0});
      return data.size();
  }
  return 0;
}
}  // namespace

Server::Server(net::Process& proc, ServerConfig config,
               ssg::Bootstrap* bootstrap)
    : proc_(&proc),
      config_(std::move(config)),
      bootstrap_(bootstrap),
      engine_(std::make_unique<rpc::Engine>(
          proc, config_.profile, rpc::EngineConfig{config_.rpc_timeout})),
      mona_(std::make_unique<mona::Instance>(proc, config_.profile)),
      flow_(std::make_unique<flow::ServerFlow>(proc.sim(), proc.id(),
                                               config_.flow)),
      viewer_(std::make_unique<viewer::ViewerTier>(proc, *engine_,
                                                   config_.viewer)) {
  // Expose this daemon's stored bytes to the chaos layer's corrupt rules
  // (common/integrity.hpp explains why this goes through a registry).
  common::integrity::Registry::add(
      &proc.sim(), proc.id(),
      [this](common::integrity::CorruptMode mode, std::uint64_t pick) {
        return corrupt_storage(mode, pick);
      });
}

Server::Server(net::Process& proc, ServerConfig config,
               std::vector<net::ProcId> initial_group,
               ssg::Bootstrap* bootstrap)
    : Server(proc, std::move(config), bootstrap) {
  if (proc.sim().in_fiber()) proc.sim().charge(config_.init_cost);
  group_ = std::make_unique<ssg::Group>(*engine_, config_.swim,
                                        std::move(initial_group), bootstrap_);
  install_handlers();
}

Expected<std::unique_ptr<Server>> Server::join(net::Process& proc,
                                               ServerConfig config,
                                               ssg::Bootstrap* bootstrap) {
  auto server =
      std::unique_ptr<Server>(new Server(proc, std::move(config), bootstrap));
  if (proc.sim().in_fiber()) proc.sim().charge(server->config_.init_cost);
  auto contacts = bootstrap->contacts();
  auto g = ssg::Group::join(*server->engine_, server->config_.swim,
                            std::move(contacts), bootstrap);
  if (!g.has_value()) return g.status();
  server->group_ = std::move(*g);
  server->install_handlers();
  return server;
}

Server::~Server() {
  common::integrity::Registry::remove(&proc_->sim(), proc_->id());
}

// ---------------------------------------------------------------- pipelines

Status Server::create_pipeline(const std::string& name,
                               const std::string& type,
                               const std::string& json_config) {
  if (pipelines_.count(name) != 0)
    return Status::AlreadyExists("pipeline '" + name + "' already exists");
  Backend::Context ctx;
  ctx.proc = proc_;
  ctx.mona = mona_.get();
  try {
    ctx.config = json::parse(json_config);
  } catch (const std::exception& e) {
    return Status::InvalidArgument(std::string("bad pipeline config: ") +
                                   e.what());
  }
  auto backend = BackendRegistry::create(type, std::move(ctx));
  if (!backend.has_value()) return backend.status();
  std::shared_ptr<Backend> shared = std::move(backend.value());
  // The viewer tier snapshots this pipeline's framebuffer for fan-out. The
  // producer runs on the tier's render fiber right after publish; pipelines
  // that render nothing yield an empty image and viewers see no frames.
  // Captured weak: the render fiber pops the producer and then yields on its
  // modeled render charge, and destroy_pipeline can free the backend inside
  // that window -- an expired lock serves an empty image instead.
  viewer_->set_producer(
      name, [w = std::weak_ptr<Backend>(shared)](std::uint64_t, std::uint32_t,
                                                 double) {
        const std::shared_ptr<Backend> b = w.lock();
        const render::FrameBuffer* fb = b ? b->rendered_frame() : nullptr;
        return fb != nullptr ? viewer::FrameImage::from(*fb)
                             : viewer::FrameImage{};
      });
  PipelineEntry& e = pipelines_[name];
  e.type = type;
  e.backend = std::move(shared);
  // Loading a pipeline's shared library and constructing it is not free.
  if (proc_->sim().in_fiber()) proc_->sim().charge(des::milliseconds(150));
  return Status::Ok();
}

Status Server::destroy_pipeline(const std::string& name) {
  if (pipelines_.erase(name) == 0)
    return Status::NotFound("pipeline '" + name + "' does not exist");
  flow_->free_pipeline(name);  // its staged bytes no longer hold budget
  viewer_->remove_producer(name);  // its frames can no longer be rendered
  return Status::Ok();
}

Server::PipelineEntry* Server::entry(const std::string& name) {
  auto it = pipelines_.find(name);
  return it == pipelines_.end() ? nullptr : &it->second;
}

Backend* Server::pipeline(const std::string& name) {
  PipelineEntry* e = entry(name);
  return e == nullptr ? nullptr : e->backend.get();
}

// ---------------------------------------------------------------- replicas

std::size_t Server::replica_count(const std::string& pipeline,
                                  std::uint64_t iteration) const {
  auto it = pipelines_.find(pipeline);
  if (it == pipelines_.end()) return 0;
  const StagedBlockStore::Slot* slot = it->second.replicas.slot(iteration);
  return slot == nullptr ? 0 : slot->size();
}

void Server::promote_replicas(PipelineEntry& e, std::uint64_t iteration) {
  const StagedBlockStore::Slot* slot = e.replicas.slot(iteration);
  if (slot == nullptr) return;
  for (const auto& [key, rb] : *slot) {
    // Promote only when this server is the first recorded copyset member
    // still present in the frozen recovery view: every view member computes
    // the same answer, so exactly one copy of each block reaches a backend.
    if (placement::promoter(rb.copyset, e.view) != proc_->id()) {
      continue;
    }
    StagedBlock block;
    block.iteration = iteration;
    block.block_id = key.first;
    block.field_name = key.second;
    block.sender = rb.sender;
    block.data = rb.data;  // keep the replica: later crashes may need it
    block.checksum = rb.checksum;
    block.copyset = rb.copyset;
    Status s = e.backend->stage(std::move(block));
    if (!s.ok()) {
      COLZA_LOG_WARN("colza", "replica promotion of block %llu failed: %s",
                     static_cast<unsigned long long>(key.first),
                     s.to_string().c_str());
    }
  }
}

// ---------------------------------------------------------------- integrity

void Server::note_mismatch(std::uint64_t block_id, const std::string& where) {
  ++integrity_.mismatches;
  obs::MetricsRegistry::global().counter("integrity.mismatch").inc();
  obs::Tracer::global().instant(
      "integrity.mismatch", "integrity",
      "\"block\":" + std::to_string(block_id) + ",\"member\":" +
          std::to_string(proc_->id()) + where);
}

void Server::note_repair(std::uint64_t bytes) {
  auto& metrics = obs::MetricsRegistry::global();
  ++integrity_.repairs;
  integrity_.repair_bytes += bytes;
  metrics.counter("integrity.repair").inc();
  metrics.counter("integrity.repair_bytes").inc(bytes);
}

bool Server::fetch_intact_copy(
    const std::string& name, std::uint64_t iteration, std::uint64_t block_id,
    const std::string& field, const std::vector<net::ProcId>& copyset,
    std::uint32_t checksum,
    const std::function<bool(net::ProcId, std::vector<std::byte>)>& install) {
  for (net::ProcId buddy : copyset) {
    if (buddy == proc_->id()) continue;
    auto r = engine_->call_raw(buddy, "colza.fetch_block",
                               pack(name, iteration, block_id, field));
    if (!r.has_value()) continue;
    std::vector<std::byte> data;
    std::uint32_t served = 0;
    unpack(*r, data, served);
    // The buddy serves its copy unverified (it cannot know its own bytes
    // rotted); the requester is the arbiter.
    if (common::crc32c(data) != served) {
      Supervisor::report_bad_bytes(proc_->sim(), buddy);
      continue;
    }
    if (served != checksum) continue;  // different generation
    if (install(buddy, std::move(data))) return true;
  }
  return false;
}

bool Server::repair_block(const std::string& name, Backend* backend,
                          std::uint64_t iteration, const BlockInfo& info) {
  obs::SpanScope span("integrity.repair", "integrity");
  span.arg("block", info.block_id);
  return fetch_intact_copy(
      name, iteration, info.block_id, info.field_name, info.copyset,
      info.checksum, [&](net::ProcId buddy, std::vector<std::byte> data) {
        // Re-stage the verified copy: keyed backend staging replaces the
        // rotten bytes in place. The flow-control charge recorded at the
        // original stage still matches (repair restores the original size),
        // so no re-admission is needed.
        const std::uint64_t bytes = data.size();
        StagedBlock block;
        block.iteration = iteration;
        block.block_id = info.block_id;
        block.field_name = info.field_name;
        block.sender = buddy;
        block.data = std::move(data);
        block.checksum = info.checksum;
        block.copyset = info.copyset;
        if (!backend->stage(std::move(block)).ok()) return false;
        note_repair(bytes);
        span.arg("bytes", bytes);
        return true;
      });
}

Status Server::verify_and_repair(const std::string& name, Backend* backend,
                                 std::uint64_t iteration) {
  auto& metrics = obs::MetricsRegistry::global();
  const auto scan = backend->integrity_scan(iteration);
  integrity_.verifies += scan.size();
  if (!scan.empty()) {
    metrics.counter("integrity.verify").inc(scan.size());
  }
  Status result = Status::Ok();
  for (const auto& info : scan) {
    if (info.valid) continue;
    note_mismatch(info.block_id, "");
    // Our own storage rotted: strike ourselves, so a daemon on memory that
    // keeps corrupting data eventually gets its node quarantined.
    Supervisor::report_bad_bytes(proc_->sim(), proc_->id());
    if (repair_block(name, backend, iteration, info)) continue;
    ++integrity_.restage_fallbacks;
    metrics.counter("integrity.restage_fallback").inc();
    if (result.ok()) {
      result = Status::Corrupt(
          "no intact copy of block " + std::to_string(info.block_id) +
              " field '" + info.field_name + "' (iteration " +
              std::to_string(iteration) + ")",
          info.block_id + 1);
    }
  }
  return result;
}

void Server::scrub_pass() {
  auto& metrics = obs::MetricsRegistry::global();
  obs::SpanScope span("integrity.scrub", "integrity");
  // Snapshot the worklists first: repairs block on nested RPCs, and commit /
  // deactivate may mutate the maps while this fiber is parked.
  std::vector<std::pair<std::string, std::uint64_t>> slots;
  for (const auto& [name, e] : pipelines_) {
    for (std::uint64_t iteration : e.active) {
      slots.emplace_back(name, iteration);
    }
  }
  for (const auto& [name, iteration] : slots) {
    if (left_ || !proc_->alive()) return;
    PipelineEntry* e = entry(name);
    if (e == nullptr || e->active.count(iteration) == 0) continue;
    // An unrepairable block is NOT an error here: the execute path reports
    // it to the client (which re-stages); the scrubber's job is only to fix
    // what is fixable before anyone reads it.
    (void)verify_and_repair(name, e->backend.get(), iteration);
  }
  // The buddy-replica stores: same verify/repair cycle, repaired in place so
  // a later promotion hands the backend intact bytes.
  std::vector<std::tuple<std::string, std::uint64_t, StagedBlockStore::Key>>
      rkeys;
  for (auto& [name, e] : pipelines_) {
    e.replicas.for_each([&](std::uint64_t iteration,
                            const StagedBlockStore::Key& key,
                            const StagedBlockStore::Block&) {
      rkeys.emplace_back(name, iteration, key);
    });
  }
  for (const auto& [name, iteration, key] : rkeys) {
    if (left_ || !proc_->alive()) return;
    // Looked up afresh each time: the pipeline may be destroyed or the
    // iteration deactivated while this fiber is parked.
    auto live_replica = [&]() -> StagedBlockStore::Block* {
      PipelineEntry* e = entry(name);
      return e == nullptr ? nullptr
                          : e->replicas.find(iteration, key.first, key.second);
    };
    const auto* rb = live_replica();
    if (rb == nullptr) continue;  // deactivated while we were scrubbing
    ++integrity_.verifies;
    metrics.counter("integrity.verify").inc();
    if (common::crc32c(rb->data) == rb->checksum) continue;
    note_mismatch(key.first, ",\"replica\":1");
    Supervisor::report_bad_bytes(proc_->sim(), proc_->id());
    // Copied: rb may dangle across the fetch RPCs.
    const std::vector<net::ProcId> copyset = rb->copyset;
    fetch_intact_copy(
        name, iteration, key.first, key.second, copyset, rb->checksum,
        [&](net::ProcId, std::vector<std::byte> data) {
          auto* live = live_replica();
          if (live != nullptr) {  // else deactivated meanwhile: stop anyway
            note_repair(data.size());
            live->data = std::move(data);
          }
          return true;
        });
  }
  ++integrity_.scrub_passes;
  metrics.counter("integrity.scrub").inc();
}

common::integrity::CorruptResult Server::corrupt_storage(
    common::integrity::CorruptMode mode, std::uint64_t pick) {
  using common::integrity::CorruptMode;
  // Deterministic victim enumeration: pipelines in name order, iterations in
  // id order, blocks in scan (sorted-key) order, then the replica store in
  // its own sorted order. Identical state across replayed runs therefore
  // yields the identical victim for a given pick.
  std::vector<std::vector<std::byte>*> candidates;
  for (auto& [name, e] : pipelines_) {
    for (std::uint64_t iteration : e.active) {
      for (const auto& info : e.backend->integrity_scan(iteration)) {
        auto* data = e.backend->stored_payload(iteration, info.block_id,
                                               info.field_name);
        if (data != nullptr && !data->empty()) candidates.push_back(data);
      }
    }
  }
  for (auto& [name, e] : pipelines_) {
    e.replicas.for_each([&](std::uint64_t, const StagedBlockStore::Key&,
                            StagedBlockStore::Block& rb) {
      if (!rb.data.empty()) candidates.push_back(&rb.data);
    });
  }
  if (candidates.empty()) {
    // Staged windows last milliseconds; an instant-only rule would almost
    // always fire into an idle server. Defer to the next payload written
    // instead -- rot on write, like a failing memory controller.
    pending_corrupts_.emplace_back(mode, pick);
    common::integrity::CorruptResult result;
    result.deferred = true;
    return result;
  }
  std::vector<std::byte>& data = *candidates[pick % candidates.size()];
  common::integrity::CorruptResult result;
  result.blocks = 1;
  result.bytes = mangle_payload(data, mode, pick);
  return result;
}

void Server::apply_pending_corrupt(std::vector<std::byte>& data) {
  if (pending_corrupts_.empty() || data.empty()) return;
  const auto [mode, pick] = pending_corrupts_.front();
  pending_corrupts_.erase(pending_corrupts_.begin());
  mangle_payload(data, mode, pick);
}

// ---------------------------------------------------------------- leave

void Server::leave() {
  if (left_) return;
  if (active_iterations() != 0) {
    // Frozen: the paper defers removals until deactivate (S II-B).
    leave_pending_ = true;
    return;
  }
  finish_leave();
}

void Server::finish_leave() {
  left_ = true;
  proc_->spawn(
      "colza-shutdown",
      [this] {
        // Stateful pipelines migrate their accumulated state to a surviving
        // peer before this daemon disappears (paper S VI future-work item 3:
        // "state-full pipelines, for which shutting down a process requires
        // data migration").
        net::ProcId successor = net::kInvalidProc;
        for (net::ProcId p : group_->view()) {
          if (p != proc_->id()) {
            successor = p;
            break;
          }
        }
        if (successor != net::kInvalidProc) {
          for (auto& [name, entry] : pipelines_) {
            if (!entry.backend->stateful()) continue;
            auto state = entry.backend->export_state();
            auto r = engine_->call_raw(successor, "colza.migrate_state",
                                       pack(name, state));
            if (!r.has_value()) {
              COLZA_LOG_WARN("colza", "state migration of '%s' failed: %s",
                             name.c_str(), r.status().to_string().c_str());
            }
          }
        }
        group_->leave();
        // Allow the departure gossip to leave this process, then die.
        proc_->sim().sleep_for(des::milliseconds(50));
        engine_->shutdown();
        mona_->shutdown();
        proc_->kill();
      },
      des::SpawnOptions{.daemon = true});
}

// ---------------------------------------------------------------- handlers

void Server::install_handlers() {
  // ---- fault tolerance ----------------------------------------------------
  // When SSG reports a member failure, unblock any pipeline operation that
  // waits on the failed peer, and revoke the communicator of every pipeline
  // with an active iteration on a frozen view containing it (ULFM-style, the
  // extension path the paper's S V points to). Those pipelines then fail
  // their execute() cleanly, and the client re-runs the iteration on the
  // surviving view.
  group_->on_change([this](net::ProcId p, ssg::MemberEvent event) {
    if (event == ssg::MemberEvent::joined) return;
    mona_->fail_pending(p);
    for (auto& [name, e] : pipelines_) {
      if (!e.active.empty() && e.comm != nullptr &&
          std::find(e.view.begin(), e.view.end(), p) != e.view.end()) {
        e.comm->revoke();
      }
    }
  });

  // If the group evicts us (we were partitioned away long enough to be
  // declared dead, and the dead-declaration is tombstoned on every other
  // member), this daemon can never serve again: take the process down so
  // clients fail over instead of reaching a zombie with a stale view.
  group_->on_self_evicted([this] {
    if (left_) return;
    left_ = true;
    engine_->shutdown();
    mona_->shutdown();
    proc_->kill();
  });

  // ---- client protocol ---------------------------------------------------
  engine_->define("colza.get_view", [this](const rpc::RequestInfo&, InArchive&,
                                           OutArchive& out) {
    if (left_) return Status::ShuttingDown();
    out.save(group_->view());
    out.save(group_->view_hash());
    return Status::Ok();
  });

  engine_->define("colza.prepare", [this](const rpc::RequestInfo&,
                                          InArchive& in, OutArchive& out) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0, client_hash = 0;
    in.load(pipeline);
    in.load(iteration);
    in.load(client_hash);
    PipelineEntry* e = entry(pipeline);
    if (e == nullptr) return Status::NotFound("pipeline '" + pipeline + "'");
    if (client_hash != group_->view_hash()) {
      // Vote no; ship our view so the client can refresh in one round trip.
      out.save(group_->view());
      out.save(group_->view_hash());
      return Status::Aborted("view mismatch");
    }
    e->prepared = iteration;
    return Status::Ok();
  });

  engine_->define("colza.commit", [this](const rpc::RequestInfo&,
                                         InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0, epoch = 0;
    std::uint8_t recover = 0;
    in.load(pipeline);
    in.load(iteration);
    in.load(epoch);
    in.load(recover);
    PipelineEntry* e = entry(pipeline);
    if (e == nullptr) return Status::NotFound("pipeline '" + pipeline + "'");
    if (e->prepared != iteration)
      return Status::FailedPrecondition("commit without prepare");
    // Epoch fence: within a handle, retries of an iteration carry strictly
    // increasing epochs, so a commit at or below the last committed epoch
    // for this iteration is a stale retransmission. Rebuilding the
    // communicator for it would reset this member's collective sequence
    // numbers while its peers keep counting -- a permanent wedge.
    auto [fence, inserted] = e->committed_epoch.try_emplace(iteration, epoch);
    if (!inserted) {
      if (epoch <= fence->second)
        return Status::FailedPrecondition("stale commit epoch");
      fence->second = epoch;
    }
    e->prepared.reset();
    const bool resumed = e->active.count(iteration) != 0;
    e->active.insert(iteration);  // freeze membership application
    // Freeze the agreed view in a fresh tag space. Always rebuild, even when
    // the view is unchanged: every member of the frozen view runs this
    // commit with the same (pipeline, epoch) key, so everyone gets a
    // matching fresh context with collective sequence numbers reset to zero.
    // Reusing the previous communicator would let a peer still blocked in an
    // abandoned attempt's collective consume (or feed) this attempt's
    // messages -- the tag streams would be permanently misaligned.
    //
    // The superseded context is revoked outright (ULFM-style, like the
    // member-failure path): a commit declares every earlier attempt of this
    // pipeline abandoned, and a peer may still be parked in one of its
    // collectives -- e.g. waiting on a member that refused to enter the
    // reduction because a staged block failed its CRC. Revoking wakes those
    // fibers with Aborted so they unwind instead of blocking on the dead tag
    // space forever. Other pipelines' communicators are left alone.
    if (e->comm != nullptr) e->comm->revoke();
    e->view = group_->view();  // sorted
    e->comm = mona_->comm_create(
        e->view, common::fnv1a_word(common::fnv1a_str(pipeline), epoch));
    e->backend->update_comm(e->comm);
    if (recover != 0 && resumed) {
      // Recovery commit (reactivate): this survivor keeps its staged blocks
      // and buddy replicas; only the view/communicator changed. Re-running
      // the backend's activate would wipe its staging slot.
      return Status::Ok();
    }
    // Fresh activation: replicas of a previous incarnation of this
    // iteration are stale (the client re-stages everything), and so are
    // their flow-control charges.
    e->replicas.open(iteration);
    flow_->free_iteration(pipeline, iteration);
    return e->backend->activate(iteration);
  });

  engine_->define("colza.abort", [this](const rpc::RequestInfo&,
                                        InArchive& in, OutArchive&) {
    std::string pipeline;
    in.load(pipeline);
    if (PipelineEntry* e = entry(pipeline); e != nullptr) e->prepared.reset();
    return Status::Ok();
  });

  engine_->define("colza.stage", [this](const rpc::RequestInfo& info,
                                        InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    StageMetadata meta;
    in.load(meta);
    PipelineEntry* e = entry(meta.pipeline);
    if (e == nullptr)
      return Status::NotFound("pipeline '" + meta.pipeline + "'");
    // Admission before the RDMA pull: over-budget stages are shed (Busy)
    // before any bytes move. Consuming spends the grant lease; if the pull
    // then fails, the charge is rolled back below.
    Status admit =
        flow_->consume(meta.grant_id, meta.pipeline, meta.iteration,
                       meta.block_id, meta.field_name, meta.replica_rank,
                       meta.data.size);
    if (!admit.ok()) return admit;
    auto uncharge_on_failure = [&] {
      flow_->uncharge_block(meta.pipeline, meta.iteration, meta.block_id,
                            meta.field_name, meta.replica_rank);
    };
    // Verifies a freshly pulled payload against the client's stage-time CRC.
    // A mismatch here means the bytes rotted in transit (or the chaos layer
    // flipped them on the wire): drop them, uncharge, and return Corrupt so
    // the client -- which still holds the pristine copy -- retransmits. No
    // strike: the wire, not a server, is at fault.
    auto verify_pull = [&](const std::vector<std::byte>& data) {
      auto& metrics = obs::MetricsRegistry::global();
      ++integrity_.verifies;
      metrics.counter("integrity.verify").inc();
      if (common::crc32c(data) == meta.checksum) return Status::Ok();
      note_mismatch(meta.block_id, ",\"in_transit\":1");
      return Status::Corrupt("stage: block " + std::to_string(meta.block_id) +
                                 " failed checksum after RDMA pull",
                             meta.block_id + 1);
    };
    if (meta.replica_rank > 0 && e->active.count(meta.iteration) == 0) {
      uncharge_on_failure();
      return Status::FailedPrecondition("replica stage: iteration " +
                                        std::to_string(meta.iteration) +
                                        " not active");
    }
    // Pull the data from the simulation's memory via RDMA (paper S II-B).
    StagedBlock block;
    block.iteration = meta.iteration;
    block.block_id = meta.block_id;
    block.field_name = meta.field_name;
    block.sender = info.caller;
    block.checksum = meta.checksum;
    block.copyset = meta.copyset;
    block.data.resize(meta.data.size);
    Status s = engine_->rdma_pull(meta.data, 0, block.data);
    if (s.ok()) s = verify_pull(block.data);
    // Looked up again: destroy_pipeline may have run during the pull.
    e = entry(meta.pipeline);
    if (s.ok() && e == nullptr)
      s = Status::NotFound("pipeline '" + meta.pipeline + "'");
    if (!s.ok()) {
      uncharge_on_failure();
      return s;
    }
    obs::MetricsRegistry::global()
        .counter(meta.replica_rank > 0 ? "colza.server.replica_bytes_pulled"
                                       : "colza.server.bytes_pulled")
        .inc(meta.data.size);
    // Rot-on-write: a deferred chaos corruption lands on the verified bytes
    // after the pull check, so it stays silent until the next read.
    apply_pending_corrupt(block.data);
    // A buddy copy goes to the pipeline's replica store, invisible to the
    // backend unless promoted during a recovery execute.
    s = meta.replica_rank > 0 ? e->replicas.put(std::move(block))
                              : e->backend->stage(std::move(block));
    if (!s.ok()) uncharge_on_failure();
    return s;
  });

  engine_->define("colza.execute", [this](const rpc::RequestInfo&,
                                          InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0;
    in.load(pipeline);
    in.load(iteration);
    PipelineEntry* e = entry(pipeline);
    if (e == nullptr) return Status::NotFound("pipeline '" + pipeline + "'");
    Backend* p = e->backend.get();
    // Recovery path: feed any replicas this member must stand in for (their
    // primary fell out of the frozen view) into the backend first.
    promote_replicas(*e, iteration);
    // Verify every stored block (repairing from buddies) before the backend
    // reads it. The backend re-checks each block right before parsing it, so
    // rot that lands *during* execute -- after this pass -- still cannot be
    // rendered; it surfaces as Corrupt, and a bounded number of repair +
    // retry rounds absorbs it. Unrepairable corruption falls through to the
    // client, which re-stages the one bad block (fault.cpp).
    Status s;
    for (int round = 0; round < 3; ++round) {
      s = verify_and_repair(pipeline, p, iteration);
      if (!s.ok()) return s;
      s = p->execute(iteration);
      if (s.code() != StatusCode::corrupt) break;
    }
    // Fan the rendered result out to observers. publish() only appends and
    // signals the tier's render fiber -- constant work, no charge, no
    // blocking -- so viewers never perturb the execute path's timing.
    if (s.ok()) viewer_->publish(pipeline, iteration);
    return s;
  });

  // Integrity repair fetch: a copyset member asks for our copy of a staged
  // block (backend slot first, then the buddy-replica store). The bytes are
  // served as-is, unverified -- a server with rotting memory does not know
  // its bytes are bad; the requester verifies and reports us if they fail.
  engine_->define("colza.fetch_block", [this](const rpc::RequestInfo&,
                                              InArchive& in, OutArchive& out) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0, block_id = 0;
    std::string field;
    in.load(pipeline);
    in.load(iteration);
    in.load(block_id);
    in.load(field);
    StagedBlock block;
    PipelineEntry* e = entry(pipeline);
    bool found =
        e != nullptr && e->backend->fetch_block(iteration, block_id, field,
                                                block);
    if (!found && e != nullptr) {
      if (const auto* rb = e->replicas.find(iteration, block_id, field);
          rb != nullptr) {
        block.data = rb->data;
        block.checksum = rb->checksum;
        found = true;
      }
    }
    if (!found)
      return Status::NotFound("fetch_block: no copy of block " +
                              std::to_string(block_id) + " field '" + field +
                              "'");
    out.save(block.data);
    out.save(block.checksum);
    return Status::Ok();
  });

  engine_->define("colza.deactivate", [this](const rpc::RequestInfo&,
                                             InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0;
    in.load(pipeline);
    in.load(iteration);
    PipelineEntry* e = entry(pipeline);
    if (e == nullptr) return Status::NotFound("pipeline '" + pipeline + "'");
    Status s = e->backend->deactivate(iteration);
    e->active.erase(iteration);
    e->replicas.close(iteration);
    flow_->free_iteration(pipeline, iteration);
    if (leave_pending_ && active_iterations() == 0) finish_leave();
    return s;
  });

  // ---- flow control (docs/flow.md) ---------------------------------------
  // Credit acquisition: the client asks for a byte lease before shipping a
  // stage handle. Blocks in the DRR grant queue when the budget is full;
  // sheds with Busy + retry-after hint when waiting is pointless. The
  // caller's RPC deadline doubles as the grant-wait deadline.
  engine_->define("colza.flow.acquire", [this](const rpc::RequestInfo& info,
                                               InArchive& in, OutArchive& out) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t bytes = 0;
    in.load(pipeline);
    in.load(bytes);
    flow::AcquireResult r = flow_->acquire(pipeline, bytes, info.deadline);
    if (!r.status.ok()) return r.status;
    out.save(r.grant_id);
    return Status::Ok();
  });

  engine_->define("colza.flow.release", [this](const rpc::RequestInfo&,
                                               InArchive& in, OutArchive&) {
    std::uint64_t grant_id = 0;
    in.load(grant_id);
    flow_->release(grant_id);
    return Status::Ok();
  });

  // ---- admin protocol (paper S II-B: a separate library of RPCs) ---------
  engine_->define("colza.admin.create_pipeline",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    if (left_) return Status::ShuttingDown();
                    std::string name, type, cfg;
                    in.load(name);
                    in.load(type);
                    in.load(cfg);
                    return create_pipeline(name, type, cfg);
                  });

  engine_->define("colza.admin.destroy_pipeline",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    std::string name;
                    in.load(name);
                    return destroy_pipeline(name);
                  });

  engine_->define("colza.admin.leave", [this](const rpc::RequestInfo&,
                                              InArchive&, OutArchive&) {
    leave();
    return Status::Ok();
  });

  engine_->define("colza.migrate_state", [this](const rpc::RequestInfo&,
                                                InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    std::string name;
    std::vector<std::byte> state;
    in.load(name);
    in.load(state);
    Backend* p = this->pipeline(name);
    if (p == nullptr) return Status::NotFound("pipeline '" + name + "'");
    return p->import_state(state);
  });

  engine_->define("colza.admin.stats", [this](const rpc::RequestInfo&,
                                              InArchive& in, OutArchive& out) {
    std::string name;
    in.load(name);
    Backend* p = this->pipeline(name);
    if (p == nullptr) return Status::NotFound("pipeline '" + name + "'");
    out.save(p->stats().dump());
    return Status::Ok();
  });

  engine_->define("colza.admin.set_weight",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    std::string pipeline;
                    std::uint32_t weight = 0;
                    in.load(pipeline);
                    in.load(weight);
                    if (weight == 0)
                      return Status::InvalidArgument("weight must be >= 1");
                    flow_->set_weight(pipeline, weight);
                    return Status::Ok();
                  });

  engine_->define("colza.admin.quota", [this](const rpc::RequestInfo&,
                                              InArchive&, OutArchive& out) {
    out.save(flow_->quota_json().dump());
    return Status::Ok();
  });

  engine_->define("colza.admin.integrity",
                  [this](const rpc::RequestInfo&, InArchive&, OutArchive& out) {
                    json::Object doc;
                    doc.emplace("verifies",
                                static_cast<double>(integrity_.verifies));
                    doc.emplace("mismatches",
                                static_cast<double>(integrity_.mismatches));
                    doc.emplace("repairs",
                                static_cast<double>(integrity_.repairs));
                    doc.emplace("repair_bytes",
                                static_cast<double>(integrity_.repair_bytes));
                    doc.emplace(
                        "restage_fallbacks",
                        static_cast<double>(integrity_.restage_fallbacks));
                    doc.emplace("scrub_passes",
                                static_cast<double>(integrity_.scrub_passes));
                    out.save(json::Value(std::move(doc)).dump());
                    return Status::Ok();
                  });

  engine_->define("colza.admin.viewers",
                  [this](const rpc::RequestInfo&, InArchive&, OutArchive& out) {
                    out.save(viewer_->stats_json().dump());
                    return Status::Ok();
                  });

  engine_->define("colza.admin.list_pipelines",
                  [this](const rpc::RequestInfo&, InArchive&, OutArchive& out) {
                    std::vector<std::string> names;
                    for (const auto& [name, e] : pipelines_)
                      names.push_back(name);
                    out.save(names);
                    return Status::Ok();
                  });

  // ---- background scrubber ------------------------------------------------
  // Walks everything staged on this daemon at a fixed cadence, re-verifying
  // stage-time CRCs and repairing rotted copies from buddies while the data
  // plane is idle -- so most corruption is healed before an execute (or a
  // promotion after a crash) would ever observe it. CRC passes are free in
  // virtual time; only actual repairs (nested fetch RPCs) appear on the
  // timeline.
  if (config_.scrub_interval != 0) {
    proc_->spawn(
        "colza-scrub",
        [this] {
          while (!left_ && proc_->alive()) {
            proc_->sim().sleep_for(config_.scrub_interval);
            if (left_ || !proc_->alive()) return;
            scrub_pass();
          }
        },
        des::SpawnOptions{.daemon = true});
  }
}

}  // namespace colza
