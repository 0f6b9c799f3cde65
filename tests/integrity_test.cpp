// End-to-end data-integrity tests: stage-time CRC32C checksums carried to
// every copy, execute-time verification, repair from buddy replicas, the
// background scrubber, targeted client re-stage when no intact copy is left,
// deferred (rot-on-write) chaos corruption, supervisor quarantine of repeat
// offenders, and the admin integrity endpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "colza/admin.hpp"
#include "colza/catalyst_backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "colza/fault.hpp"
#include "colza/histogram_backend.hpp"
#include "colza/server.hpp"
#include "colza/supervisor.hpp"
#include "common/buffer_pool.hpp"
#include "common/hash.hpp"
#include "common/integrity.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "vis/data.hpp"

namespace colza {
namespace {

using common::integrity::CorruptMode;
using common::integrity::Registry;
using des::milliseconds;
using des::seconds;

// The pipeline types the integrity layer is exercised over: both built-in
// backends keep their staged blocks in the shared StagedBlockStore.
constexpr const char* kCatalyst = "catalyst";
constexpr const char* kHistogram = "histogram";

// Staging area with n servers running a `type` pipeline named "render", one
// client, and pre-serialized mandelbulb blocks. fixed_scoped_charge pins the
// wall-clock coupled charge sites so integrity counters are exactly
// reproducible.
class IntegrityWorld {
 public:
  IntegrityWorld(int n, std::uint32_t nblocks, des::Duration scrub,
                 std::uint64_t seed = 21, const std::string& type = kCatalyst)
      : sim(des::SimConfig{.seed = seed,
                           .fixed_scoped_charge = milliseconds(2)}),
        net(sim) {
    ServerConfig cfg;
    cfg.init_cost = milliseconds(50);
    cfg.scrub_interval = scrub;
    LaunchModel instant{milliseconds(10), 0.0, milliseconds(10)};
    area = std::make_unique<StagingArea>(net, cfg, instant, seed);
    area->launch_initial(n, /*base_node=*/100);
    sim.run_until(seconds(2));  // daemons up and converged
    for (auto& s : area->servers()) {
      s->create_pipeline(
           "render", type,
           type == kCatalyst
               ? R"({"preset":"mandelbulb","width":32,"height":32})"
               : R"({"field":"iterations","bins":16,"range_lo":0,"range_hi":32})")
          .check();
    }
    apps::MandelbulbParams mb;
    mb.nx = mb.ny = mb.nz = 10;
    mb.total_blocks = nblocks;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      blocks.emplace_back(b, vis::serialize_dataset(vis::DataSet{
                                 apps::mandelbulb_block(mb, b)}));
    }
    client_proc = &net.create_process(0);
    client = std::make_unique<Client>(*client_proc);
  }

  // Runs `fn` in a client fiber and drives the simulation to completion.
  template <typename Fn>
  void run(Fn fn) {
    client_proc->spawn("test-app", std::move(fn));
    sim.run();
  }

  Expected<DistributedPipelineHandle> lookup() {
    return DistributedPipelineHandle::lookup(
        *client, area->bootstrap().contacts(), "render");
  }

  Server* server(net::ProcId id) {
    for (auto& s : area->servers())
      if (s->address() == id) return s.get();
    return nullptr;
  }

  // The first alive server holding at least one backend (primary) block for
  // `iteration`; null if none.
  Server* first_primary_holder(std::uint64_t iteration) {
    for (auto& s : area->servers()) {
      if (!s->alive()) continue;
      Backend* b = s->pipeline("render");
      if (b != nullptr && !b->integrity_scan(iteration).empty()) return s.get();
    }
    return nullptr;
  }

  // The pipeline's result for `iteration` as one hash (0 if none): the
  // compositing root's image hash, or a hash of the global histogram.
  std::uint64_t hash_of(std::uint64_t iteration) {
    for (auto& s : area->servers()) {
      Backend* b = s->pipeline("render");
      if (auto* cat = dynamic_cast<CatalystBackend*>(b); cat != nullptr) {
        for (const auto& rec : cat->records()) {
          if (rec.iteration == iteration && rec.image_hash != 0)
            return rec.image_hash;
        }
      } else if (auto* hist = dynamic_cast<HistogramBackend*>(b);
                 hist != nullptr) {
        for (const auto& r : hist->results()) {
          if (r.iteration != iteration) continue;
          std::uint64_t h = common::fnv1a_word(common::kFnvOffsetBasis,
                                               r.total_values);
          for (std::uint64_t c : r.counts) h = common::fnv1a_word(h, c);
          return h;
        }
      }
    }
    return 0;
  }

  // Stages every block of `iteration` through `h` (field name default).
  void stage_all(DistributedPipelineHandle& h, std::uint64_t iteration) {
    for (const auto& [id, data] : blocks) {
      ASSERT_TRUE(h.stage(iteration, id, std::span<const std::byte>(data)).ok());
    }
  }

  des::Simulation sim;
  net::Network net;
  std::unique_ptr<StagingArea> area;
  std::vector<IterationBlock> blocks;
  net::Process* client_proc = nullptr;
  std::unique_ptr<Client> client;
};

// The stage-time checksum travels with every copy: the backend slot and the
// server-level replica store both carry the client-computed CRC32C, and the
// integrity scan reports every block as valid right after staging.
TEST(Integrity, ChecksumsTravelWithEveryCopy) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);

    std::size_t primaries = 0;
    std::size_t replicas = 0;
    for (auto& s : w.area->servers()) {
      Backend* b = s->pipeline("render");
      ASSERT_NE(b, nullptr);
      for (const auto& info : b->integrity_scan(1)) {
        EXPECT_TRUE(info.valid) << "block " << info.block_id
                                << " invalid right after staging";
        EXPECT_NE(info.checksum, 0u);
        EXPECT_EQ(info.copyset.size(), 2u);
        ++primaries;
      }
      replicas += s->replica_count("render", 1);
    }
    EXPECT_EQ(primaries, w.blocks.size());
    EXPECT_EQ(replicas, w.blocks.size());  // R=2: one buddy copy per block

    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  EXPECT_NE(w.hash_of(1), 0u);
}

// A bit flipped in a primary backend slot is caught by the execute-time
// verify and silently repaired from the buddy replica: the client sees a
// clean execute and the rendered image matches the corruption-free one.
void execute_repairs_primary_rot_from_buddy_replica(const std::string& type) {
  IntegrityWorld w(3, 4, /*scrub=*/0, /*seed=*/21, type);
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);

    // Clean reference iteration.
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    ASSERT_TRUE(h->activate(2).ok());
    w.stage_all(*h, 2);
    Server* s = w.first_primary_holder(2);
    ASSERT_NE(s, nullptr);
    victim = s->address();
    // pick = 0 deterministically rots the first backend (primary) block.
    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, 0);
    EXPECT_EQ(res.blocks, 1u);
    EXPECT_EQ(res.bytes, 1u);
    EXPECT_FALSE(res.deferred);

    ASSERT_TRUE(h->execute(2).ok());
    ASSERT_TRUE(h->deactivate(2).ok());
  });
  Server* s = w.server(victim);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->integrity().mismatches, 1u);
  EXPECT_EQ(s->integrity().repairs, 1u);
  EXPECT_GT(s->integrity().repair_bytes, 0u);
  EXPECT_EQ(s->integrity().restage_fallbacks, 0u);
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

TEST(Integrity, ExecuteRepairsPrimaryRotFromBuddyReplica) {
  execute_repairs_primary_rot_from_buddy_replica(kCatalyst);
}

TEST(Integrity, ExecuteRepairsPrimaryRotFromBuddyReplicaHistogram) {
  execute_repairs_primary_rot_from_buddy_replica(kHistogram);
}

// Truncation and zeroing (the other two corruption modes) are equally
// caught and repaired -- the checksum does not care how the bytes rotted.
TEST(Integrity, RepairsTruncatedAndZeroedPayloads) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    Server* s = w.first_primary_holder(1);
    ASSERT_NE(s, nullptr);
    victim = s->address();

    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::truncate, 0);
    EXPECT_EQ(res.blocks, 1u);
    EXPECT_GT(res.bytes, 0u);
    ASSERT_TRUE(h->execute(1).ok());

    res = Registry::corrupt(&w.sim, victim, CorruptMode::zero, 0);
    EXPECT_EQ(res.blocks, 1u);
    EXPECT_GT(res.bytes, 0u);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  Server* s = w.server(victim);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->integrity().mismatches, 2u);
  EXPECT_EQ(s->integrity().repairs, 2u);
  EXPECT_NE(w.hash_of(1), 0u);
}

// The background scrubber finds rot in the replica store -- bytes nothing
// has read yet -- and repairs it in place from the primary before any
// promotion could hand the backend damaged data.
void scrubber_repairs_replica_rot_at_rest(const std::string& type) {
  IntegrityWorld w(3, 4, /*scrub=*/milliseconds(50), /*seed=*/21, type);
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);

    Server* s = nullptr;
    for (auto& cand : w.area->servers()) {
      if (cand->replica_count("render", 1) > 0) {
        s = cand.get();
        break;
      }
    }
    ASSERT_NE(s, nullptr);
    victim = s->address();
    // Candidates enumerate backend blocks first, then the replica store:
    // pick = scan size hits the first replica.
    const std::uint64_t pick =
        s->pipeline("render")->integrity_scan(1).size();
    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, pick);
    EXPECT_EQ(res.blocks, 1u);

    w.sim.sleep_for(milliseconds(300));  // several scrub periods

    EXPECT_GE(s->integrity().scrub_passes, 2u);
    EXPECT_EQ(s->integrity().mismatches, 1u);
    EXPECT_EQ(s->integrity().repairs, 1u);

    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  EXPECT_NE(w.hash_of(1), 0u);
}

TEST(Integrity, ScrubberRepairsReplicaRotAtRest) {
  scrubber_repairs_replica_rot_at_rest(kCatalyst);
}

TEST(Integrity, ScrubberRepairsReplicaRotAtRestHistogram) {
  scrubber_repairs_replica_rot_at_rest(kHistogram);
}

// Unreplicated staging (R=1): a rotted block has no buddy to repair from, so
// execute reports Corrupt with the block id in the status detail and the
// client re-stages exactly that block from its pristine copy.
void no_intact_copy_reports_block_for_targeted_restage(
    const std::string& type) {
  IntegrityWorld w(3, 4, /*scrub=*/0, /*seed=*/21, type);
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(1);

    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    ASSERT_TRUE(h->activate(2).ok());
    w.stage_all(*h, 2);
    Server* s = w.first_primary_holder(2);
    ASSERT_NE(s, nullptr);
    victim = s->address();
    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, 0);
    ASSERT_EQ(res.blocks, 1u);

    Status st = h->execute(2);
    ASSERT_EQ(st.code(), StatusCode::corrupt);
    ASSERT_NE(st.detail(), 0u);
    const std::uint64_t bad = st.detail() - 1;
    ASSERT_LT(bad, w.blocks.size());
    // Mirror the resilient loop's recovery protocol: the peers that entered
    // the aborted execute are parked in the old collective tag space, so a
    // recovery commit (fresh communicator epoch, staged blocks kept) must
    // precede the targeted re-stage and the retry.
    ASSERT_TRUE(h->reactivate(2).ok());
    ASSERT_TRUE(h->stage(2, bad,
                         std::span<const std::byte>(w.blocks[bad].second))
                    .ok());
    ASSERT_TRUE(h->execute(2).ok());
    ASSERT_TRUE(h->deactivate(2).ok());
  });
  Server* s = w.server(victim);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->integrity().mismatches, 1u);
  EXPECT_EQ(s->integrity().repairs, 0u);
  EXPECT_EQ(s->integrity().restage_fallbacks, 1u);
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

TEST(Integrity, NoIntactCopyReportsBlockForTargetedRestage) {
  no_intact_copy_reports_block_for_targeted_restage(kCatalyst);
}

TEST(Integrity, NoIntactCopyReportsBlockForTargetedRestageHistogram) {
  no_intact_copy_reports_block_for_targeted_restage(kHistogram);
}

// Double fault: every copy of every block rots (2 servers, so each copyset
// is {A, B} and both are hit). Repair has nowhere to turn; the client heals
// the iteration block by block through the Corrupt detail hints.
TEST(Integrity, ClientHealsIterationWhenAllCopiesRot) {
  IntegrityWorld w(2, 3, /*scrub=*/0);
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);

    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    ASSERT_TRUE(h->activate(2).ok());
    w.stage_all(*h, 2);
    for (auto& s : w.area->servers()) {
      const std::size_t total =
          s->pipeline("render")->integrity_scan(2).size() +
          s->replica_count("render", 2);
      for (std::size_t pick = 0; pick < total; ++pick) {
        auto res = Registry::corrupt(&w.sim, s->address(),
                                     CorruptMode::bit_flip, pick);
        ASSERT_EQ(res.blocks, 1u);
      }
    }

    Status st;
    int rounds = 0;
    for (; rounds < 8; ++rounds) {
      st = h->execute(2);
      if (st.ok()) break;
      ASSERT_EQ(st.code(), StatusCode::corrupt);
      ASSERT_NE(st.detail(), 0u);
      const std::uint64_t bad = st.detail() - 1;
      ASSERT_LT(bad, w.blocks.size());
      // Fresh epoch before the targeted re-stage, like the resilient loop:
      // the survivors of the aborted execute wait in the old tag space.
      ASSERT_TRUE(h->reactivate(2).ok());
      ASSERT_TRUE(h->stage(2, bad,
                           std::span<const std::byte>(w.blocks[bad].second))
                      .ok());
    }
    ASSERT_TRUE(st.ok());
    EXPECT_LE(rounds, 3);  // one restage round per block at worst
    ASSERT_TRUE(h->deactivate(2).ok());
  });
  std::uint64_t mismatches = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t repairs = 0;
  for (auto& s : w.area->servers()) {
    mismatches += s->integrity().mismatches;
    fallbacks += s->integrity().restage_fallbacks;
    repairs += s->integrity().repairs;
  }
  EXPECT_GE(mismatches, w.blocks.size());
  EXPECT_GE(fallbacks, w.blocks.size());
  EXPECT_EQ(repairs, 0u);  // no intact copy anywhere until the re-stages
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

// Fails or rots every RDMA pull while armed.
class PullFault final : public net::FaultInjector {
 public:
  enum class Mode { none, flip, drop };
  Mode mode = Mode::none;

  net::FaultVerdict on_message(const net::Process&, const net::Process&,
                               const std::string&, std::uint64_t,
                               std::size_t, des::Duration) override {
    return {};
  }
  net::FaultVerdict on_rdma(const net::Process&, net::ProcId, std::size_t,
                            des::Duration) override {
    net::FaultVerdict v;
    v.drop = mode == Mode::drop;
    if (mode == Mode::flip) {
      v.corrupt_xor = 0x20;
      v.corrupt_offset = 1234;
    }
    return v;
  }
};

// `size` bytes that differ for each seed.
std::vector<std::byte> payload_of(std::size_t size, std::uint8_t seed) {
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; ++i)
    out[i] = static_cast<std::byte>((i * 131 + seed * 7) ^ (i >> 8));
  return out;
}

// Staged blocks are pulled into storage that earlier blocks gave back. Each
// stored block still holds exactly its own payload -- shorter or longer than
// the storage's last one, across deactivate/activate or replacing a block --
// and every integrity check holds for it: in-flight rot is refused, a failed
// pull stages nothing, and rot at rest is found.
TEST(Integrity, RecycledStagedStorageHoldsExactlyTheNewPayload) {
  common::BufferPool::global().trim();
  IntegrityWorld w(1, 0, /*scrub=*/0);
  PullFault fault;
  w.net.set_fault_injector(&fault);
  Server* server = w.area->servers().front().get();
  Backend* backend = server->pipeline("render");
  auto stored = [&](std::uint64_t iteration) {
    return backend->stored_payload(iteration, 0, "");
  };
  constexpr std::size_t n = 64 * 1024;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    auto stage = [&](std::uint64_t iteration,
                     const std::vector<std::byte>& data) {
      return h->stage(iteration, 0, std::span<const std::byte>(data));
    };
    const auto first = payload_of(n, 1);
    ASSERT_TRUE(h->activate(1).ok());
    ASSERT_TRUE(stage(1, first).ok());
    ASSERT_NE(stored(1), nullptr);
    EXPECT_EQ(*stored(1), first);
    const std::byte* storage = stored(1)->data();
    ASSERT_TRUE(h->deactivate(1).ok());

    // Shorter, in the next iteration: the same storage, the new bytes.
    const auto shorter = payload_of(n - 7, 2);
    ASSERT_TRUE(h->activate(2).ok());
    ASSERT_TRUE(stage(2, shorter).ok());
    EXPECT_EQ(stored(2)->data(), storage);
    EXPECT_EQ(*stored(2), shorter);
    // Longer, retransmitted over it, then the original size again.
    const auto longer = payload_of(n + 13, 3);
    ASSERT_TRUE(stage(2, longer).ok());
    EXPECT_EQ(*stored(2), longer);
    const auto again = payload_of(n, 4);
    ASSERT_TRUE(stage(2, again).ok());
    EXPECT_EQ(stored(2)->data(), storage);
    EXPECT_EQ(*stored(2), again);
    ASSERT_TRUE(h->deactivate(2).ok());

    ASSERT_TRUE(h->activate(3).ok());
    // Rot in flight: every retransmit fails its CRC, nothing is staged.
    fault.mode = PullFault::Mode::flip;
    EXPECT_EQ(stage(3, first).code(), StatusCode::corrupt);
    EXPECT_EQ(stored(3), nullptr);
    // A pull that fails outright stages nothing either.
    fault.mode = PullFault::Mode::drop;
    EXPECT_EQ(stage(3, first).code(), StatusCode::unreachable);
    EXPECT_EQ(stored(3), nullptr);
    fault.mode = PullFault::Mode::none;
    ASSERT_TRUE(stage(3, first).ok());
    EXPECT_EQ(stored(3)->data(), storage);  // failed pulls gave it back
    EXPECT_EQ(*stored(3), first);

    // Rot at rest, through stored_payload, is found by the scan and fails
    // the execute (no buddy copy to repair from).
    const auto res =
        Registry::corrupt(&w.sim, server->address(), CorruptMode::bit_flip, 0);
    EXPECT_EQ(res.blocks, 1u);
    const auto scan = backend->integrity_scan(3);
    ASSERT_EQ(scan.size(), 1u);
    EXPECT_FALSE(scan[0].valid);
    EXPECT_EQ(h->execute(3).code(), StatusCode::corrupt);
    ASSERT_TRUE(h->deactivate(3).ok());
  });
  w.net.set_fault_injector(nullptr);
  // Four flipped pulls (the first send and three retransmits), one rot.
  EXPECT_EQ(server->integrity().mismatches, 5u);
}

// A corruption aimed at an idle server defers to its next stored payload
// (rot on write). With both copies of the single block poisoned this way,
// run_resilient_iteration recovers through a partial recovery + targeted
// re-stage -- never a full scratch re-stage -- and the image is unharmed.
TEST(Integrity, ResilientLoopAbsorbsDeferredDoubleCorruption) {
  IntegrityWorld w(2, 1, /*scrub=*/0);
  ResilientStats st;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ResilientOptions opts;
    opts.stats = &st;
    opts.backoff.base = milliseconds(200);
    ASSERT_TRUE(run_resilient_iteration(*h, 1, w.blocks, opts).ok());

    // Nothing staged now: both corruptions arm against the next write, so
    // iteration 2's primary AND replica rot the moment they land.
    for (auto& s : w.area->servers()) {
      auto res = Registry::corrupt(&w.sim, s->address(),
                                   CorruptMode::bit_flip, 7);
      EXPECT_EQ(res.blocks, 0u);
      EXPECT_TRUE(res.deferred);
    }
    ASSERT_TRUE(run_resilient_iteration(*h, 2, w.blocks, opts).ok());
  });
  EXPECT_GE(st.attempts, 2);
  EXPECT_GE(st.partial_recoveries, 1);
  EXPECT_GE(st.targeted_restages, 1);
  EXPECT_EQ(st.full_restages, 0);
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

// Same deferred double fault without replication: partial recovery is off
// the table, so the resilient loop falls back to a full scratch re-stage.
TEST(Integrity, UnreplicatedDeferredCorruptionForcesFullRestage) {
  IntegrityWorld w(2, 2, /*scrub=*/0);
  ResilientStats st;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(1);
    ResilientOptions opts;
    opts.stats = &st;
    opts.backoff.base = milliseconds(200);
    ASSERT_TRUE(run_resilient_iteration(*h, 1, w.blocks, opts).ok());

    // Aim at block 0's primary: the same view re-stages the same placement,
    // so this server is guaranteed to store a payload next iteration.
    auto res = Registry::corrupt(&w.sim, h->copyset_for(0)[0],
                                 CorruptMode::zero, 3);
    EXPECT_TRUE(res.deferred);
    ASSERT_TRUE(run_resilient_iteration(*h, 2, w.blocks, opts).ok());
  });
  EXPECT_GE(st.full_restages, 1);
  EXPECT_EQ(st.targeted_restages, 0);
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

// Every detection strikes the server that held the bad bytes; three strikes
// and the supervisor quarantines its node, exactly like a flapping daemon.
// Detection and repair already contained the damage, so the server is left
// running -- quarantine only stops re-homing future daemons there.
TEST(Integrity, SupervisorQuarantinesRepeatOffender) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  Supervisor sup(w.sim, *w.area, SupervisorConfig{});
  sup.start();
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    Server* s = w.first_primary_holder(1);
    ASSERT_NE(s, nullptr);
    victim = s->address();
    for (int i = 0; i < 3; ++i) {
      auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, 0);
      ASSERT_EQ(res.blocks, 1u);
      ASSERT_TRUE(h->execute(1).ok());  // detected + repaired every time
    }
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  sup.stop();
  EXPECT_EQ(sup.stats().integrity_strikes, 3);
  EXPECT_EQ(sup.stats().integrity_quarantines, 1);
  Server* s = w.server(victim);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->alive());  // quarantined, not killed
  EXPECT_EQ(s->integrity().repairs, 3u);
}

// The admin integrity endpoint mirrors the server-side counters.
TEST(Integrity, AdminEndpointReportsCounters) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    Server* s = w.first_primary_holder(1);
    ASSERT_NE(s, nullptr);
    victim = s->address();
    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, 0);
    ASSERT_EQ(res.blocks, 1u);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    Admin admin(w.client->engine());
    auto doc = admin.get_integrity(victim);
    ASSERT_TRUE(doc.has_value());
    const auto& obj = doc->as_object();
    EXPECT_EQ(static_cast<std::uint64_t>(obj.at("mismatches").as_number()),
              w.server(victim)->integrity().mismatches);
    EXPECT_EQ(static_cast<std::uint64_t>(obj.at("repairs").as_number()),
              w.server(victim)->integrity().repairs);
    EXPECT_GT(obj.at("verifies").as_number(), 0.0);
    EXPECT_EQ(obj.at("restage_fallbacks").as_number(), 0.0);
  });
}

}  // namespace
}  // namespace colza
