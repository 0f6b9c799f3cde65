// MoNA: collective communications for elastic services (the paper's own
// communication library, S II-C), reimplemented from scratch.
//
// Key properties reproduced from the paper:
//   * No world communicator. A Communicator is built from an explicit list
//     of process addresses (obtained from SSG snapshots); new communicators
//     can be created at any time as processes join and leave.
//   * Progress is fiber-friendly: blocking operations yield to other fibers
//     (pipeline execution, control RPCs) instead of spinning a core.
//   * MPI-style matching: receives match on (source, tag), FIFO per pair.
//   * Tree-based collective algorithms in the spirit of MPICH: binomial
//     bcast/reduce/gather/scatter, recursive-doubling allreduce,
//     dissemination barrier, ring allgather, pairwise alltoall.
//   * Non-blocking variants returning Request objects.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "des/sync.hpp"
#include "net/network.hpp"
#include "net/profile.hpp"

namespace colza::mona {

using Tag = std::uint32_t;

class Communicator;

// A mona_instance_t: the per-process progress state.
class Instance {
 public:
  explicit Instance(net::Process& proc,
                    net::Profile profile = net::Profile::mona());
  ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  [[nodiscard]] net::Process& process() noexcept { return *proc_; }
  [[nodiscard]] net::ProcId self() const noexcept { return proc_->id(); }
  [[nodiscard]] des::Simulation& sim() noexcept { return proc_->sim(); }
  [[nodiscard]] const net::Profile& profile() const noexcept {
    return profile_;
  }

  // ---- address-level p2p (mona_send / mona_recv) -------------------------
  Status send(std::span<const std::byte> data, net::ProcId dest,
              std::uint64_t tag);
  // Blocks until a matching message arrives. Fails with invalid_argument on
  // truncation (message larger than `out`), unreachable if the instance shut
  // down. `received` (optional) gets the actual message size.
  Status recv(std::span<std::byte> out, net::ProcId source, std::uint64_t tag,
              std::size_t* received = nullptr);
  // ANY_SOURCE receive: matches the first message with `tag` from any peer;
  // `source` (optional) reports who sent it.
  Status recv_any(std::span<std::byte> out, std::uint64_t tag,
                  net::ProcId* source = nullptr,
                  std::size_t* received = nullptr);

  // Builds a communicator from an explicit address list; every member must
  // call this with the same list (and create communicators for the same
  // group in the same order). Returns nullptr if self is not in the list.
  std::shared_ptr<Communicator> comm_create(std::vector<net::ProcId> addrs);

  // Epoch variant: derives the context from (members, epoch) instead of the
  // local creation counter, so members that agreed on an epoch out of band
  // (Colza's 2PC commit) get matching contexts without having created the
  // same number of communicators. Each epoch is a fresh tag space: stragglers
  // from an earlier epoch's collectives can never match the new one.
  std::shared_ptr<Communicator> comm_create(std::vector<net::ProcId> addrs,
                                            std::uint64_t epoch);

  // ---- failure handling (the ULFM-inspired path the paper points to) -----
  // Fails every posted receive whose source is `dead` with `unreachable`.
  // Colza servers call this from their SSG death callback so collectives
  // blocked on a crashed peer terminate instead of hanging.
  void fail_pending(net::ProcId dead);
  // Locally revokes a communicator context (MPI_Comm_revoke semantics):
  // pending and future operations on communicators with this context fail
  // with `aborted`. Every member revokes locally when it learns of the
  // failure; gossip guarantees everyone eventually does.
  void revoke_context(std::uint64_t context);
  [[nodiscard]] bool is_revoked(std::uint64_t context) const {
    return revoked_.count(context) != 0;
  }

  void shutdown();

  // Test introspection: (total entries, live entries) of the per-tag
  // ANY_SOURCE arrival index. Total > live means stale entries awaiting
  // compaction; (0, 0) once the index is dropped. Lets tests pin down the
  // compaction trigger without peeking at private state.
  [[nodiscard]] std::pair<std::size_t, std::size_t> arrival_index_stats(
      std::uint64_t tag) const;

 private:
  friend class Communicator;

  struct PostedRecv {
    net::ProcId source;  // kInvalidProc = ANY_SOURCE
    std::uint64_t tag;
    std::span<std::byte> out;
    std::size_t received = 0;
    net::ProcId matched_source = net::kInvalidProc;
    Status status;
    bool done = false;
    std::uint64_t fiber = 0;  // to wake
    std::uint64_t seq = 0;    // posting order (shared counter with arrivals)
  };

  // Matching is indexed by (source, tag) so neither the demux loop nor
  // recv_impl ever scans unrelated pending traffic. Every queue is FIFO and
  // posts/arrivals share one sequence counter, which lets the index
  // reproduce the exact matching order of the original linear scans:
  //   * an arriving message goes to the lowest-seq matching post (the
  //     specific (source, tag) post vs. the ANY_SOURCE post for the tag);
  //   * a wildcard receive takes the lowest-seq stored message for its tag,
  //     via the per-tag arrival index (entries turned stale by a specific
  //     receive are skipped lazily).
  struct MatchKey {
    net::ProcId source;
    std::uint64_t tag;
    bool operator==(const MatchKey&) const = default;
  };
  struct MatchKeyHash {
    std::size_t operator()(const MatchKey& k) const noexcept {
      std::uint64_t h = k.tag * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<std::uint64_t>(k.source) + 0x517cc1b727220a95ULL +
           (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  struct StoredMsg {
    net::Message msg;
    std::uint64_t seq;  // arrival order
  };

  void demux_loop();
  void dispatch(net::Message msg);
  void deliver(PostedRecv& p, net::Message& m);
  // Bookkeeping after a specific-source receive consumed a stored message
  // for `tag`: decrement the tag's live count and compact or drop the
  // arrival index when it is mostly stale.
  void note_specific_consume(std::uint64_t tag);
  // Removes every post satisfying `pred` from the index and returns them
  // sorted by posting order (so completion wakes fibers in the same order
  // the original posting-order scan did).
  std::vector<PostedRecv*> extract_posts(
      const std::function<bool(const PostedRecv&)>& pred);
  Status recv_impl(std::span<std::byte> out, net::ProcId source,
                   std::uint64_t tag, net::ProcId* matched,
                   std::size_t* received);

  net::Process* proc_;
  net::Profile profile_;
  // Stored (unexpected) messages per (source, tag), FIFO by arrival.
  std::unordered_map<MatchKey, std::deque<StoredMsg>, MatchKeyHash>
      unexpected_by_key_;
  // Per-tag arrival index for ANY_SOURCE receives: (arrival seq, source).
  // Entries whose message was consumed by a specific receive are stale and
  // skipped when their seq no longer matches the per-key queue front. `live`
  // counts non-stale entries; when stale entries outnumber live ones the
  // index is compacted, so a tag served only by specific receives cannot
  // accumulate an unbounded trail of stale entries.
  struct ArrivalIndex {
    std::deque<std::pair<std::uint64_t, net::ProcId>> order;
    std::size_t live = 0;
  };
  std::unordered_map<std::uint64_t, ArrivalIndex> unexpected_by_tag_;
  // Posted receives with a specific source, FIFO by posting order.
  std::unordered_map<MatchKey, std::deque<PostedRecv*>, MatchKeyHash>
      posted_by_key_;
  // Posted ANY_SOURCE receives per tag, FIFO by posting order.
  std::unordered_map<std::uint64_t, std::deque<PostedRecv*>> posted_any_;
  std::uint64_t match_seq_ = 0;  // stamps posts and arrivals alike
  std::shared_ptr<Communicator> make_comm(std::vector<net::ProcId> addrs,
                                          std::uint64_t context);

  std::map<std::uint64_t, std::uint32_t> comm_counter_;  // group hash -> count
  std::set<std::uint64_t> revoked_;  // revoked communicator contexts
  bool stopped_ = false;
};

// Reduction operator: combines `count` elements of `in` into `inout`.
struct ReduceOp {
  std::size_t elem_size = 0;
  std::function<void(const std::byte* in, std::byte* inout, std::size_t count)>
      fn;
};

// Preset element-wise operators. The buffers are never aliased (reduction
// inputs are distinct receive buffers), so the loops carry __restrict to let
// the compiler vectorize them.
template <typename T>
ReduceOp op_sum() {
  return {sizeof(T), [](const std::byte* in, std::byte* inout, std::size_t n) {
            const T* __restrict a = reinterpret_cast<const T*>(in);
            T* __restrict b = reinterpret_cast<T*>(inout);
            for (std::size_t i = 0; i < n; ++i) b[i] += a[i];
          }};
}

template <typename T>
ReduceOp op_max() {
  return {sizeof(T), [](const std::byte* in, std::byte* inout, std::size_t n) {
            const T* __restrict a = reinterpret_cast<const T*>(in);
            T* __restrict b = reinterpret_cast<T*>(inout);
            for (std::size_t i = 0; i < n; ++i) b[i] = a[i] > b[i] ? a[i] : b[i];
          }};
}

template <typename T>
ReduceOp op_min() {
  return {sizeof(T), [](const std::byte* in, std::byte* inout, std::size_t n) {
            const T* __restrict a = reinterpret_cast<const T*>(in);
            T* __restrict b = reinterpret_cast<T*>(inout);
            for (std::size_t i = 0; i < n; ++i) b[i] = a[i] < b[i] ? a[i] : b[i];
          }};
}

// Binary XOR -- the operation benchmarked in the paper's Table II.
template <typename T>
ReduceOp op_bxor() {
  return {sizeof(T), [](const std::byte* in, std::byte* inout, std::size_t n) {
            const T* __restrict a = reinterpret_cast<const T*>(in);
            T* __restrict b = reinterpret_cast<T*>(inout);
            for (std::size_t i = 0; i < n; ++i) b[i] ^= a[i];
          }};
}

// Handle for a non-blocking operation; wait() blocks the calling fiber.
class Request {
 public:
  Request() = default;

  Status wait();
  [[nodiscard]] bool test() const;

  static Status wait_all(std::span<Request> reqs);

 private:
  friend class Communicator;
  friend class Instance;
  struct State {
    Status status;
    bool done = false;
  };
  Request(des::Simulation* sim, des::FiberHandle fiber,
          std::shared_ptr<State> state)
      : sim_(sim), fiber_(fiber), state_(std::move(state)) {}

  des::Simulation* sim_ = nullptr;
  des::FiberHandle fiber_;
  std::shared_ptr<State> state_;
};

// Collective algorithm selection (simmpi reuses the same communicator code
// with `linear_fallback` to model OpenMPI's tuned-module bailout).
struct CollectivePolicy {
  bool linear_fallback = false;          // reduce/bcast go linear above...
  std::uint64_t linear_threshold = 8192;  // ...this payload size (bytes)
  // Modeled per-byte cost of applying a reduction operator (memory-bound).
  double reduce_ns_per_byte = 0.25;
};

class Communicator : public std::enable_shared_from_this<Communicator> {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(members_.size());
  }
  [[nodiscard]] const std::vector<net::ProcId>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] net::ProcId address_of(int rank) const {
    return members_.at(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] Instance& instance() noexcept { return *inst_; }

  // ---- point-to-point (rank-addressed) -----------------------------------
  Status send(std::span<const std::byte> data, int dest, Tag tag);
  Status recv(std::span<std::byte> out, int source, Tag tag,
              std::size_t* received = nullptr);
  Request isend(std::span<const std::byte> data, int dest, Tag tag);
  Request irecv(std::span<std::byte> out, int source, Tag tag,
                std::size_t* received = nullptr);

  // ---- collectives ---------------------------------------------------------
  Status barrier();
  Status bcast(std::span<std::byte> data, int root);
  Status reduce(std::span<const std::byte> send, std::span<std::byte> recv,
                std::size_t count, const ReduceOp& op, int root);
  Status allreduce(std::span<const std::byte> send, std::span<std::byte> recv,
                   std::size_t count, const ReduceOp& op);
  Status gather(std::span<const std::byte> send, std::span<std::byte> recv,
                int root);
  Status gatherv(std::span<const std::byte> send, std::span<std::byte> recv,
                 std::span<const std::size_t> counts, int root);
  Status scatter(std::span<const std::byte> send, std::span<std::byte> recv,
                 int root);
  Status allgather(std::span<const std::byte> send, std::span<std::byte> recv);
  Status alltoall(std::span<const std::byte> send, std::span<std::byte> recv,
                  std::size_t block_bytes);
  Status scan(std::span<const std::byte> send, std::span<std::byte> recv,
              std::size_t count, const ReduceOp& op);
  // Exclusive scan: rank r receives the combination of ranks [0, r); rank
  // 0's buffer is zero-filled.
  Status exscan(std::span<const std::byte> send, std::span<std::byte> recv,
                std::size_t count, const ReduceOp& op);
  // Variable-size allgather: `counts` are per-rank byte counts; rank r's
  // contribution lands at offset sum(counts[0..r)) in `recv` on every rank.
  Status allgatherv(std::span<const std::byte> send, std::span<std::byte> recv,
                    std::span<const std::size_t> counts);
  // Reduce then scatter equal blocks: every rank receives its own
  // `count_per_rank`-element block of the element-wise reduction.
  Status reduce_scatter_block(std::span<const std::byte> send,
                              std::span<std::byte> recv,
                              std::size_t count_per_rank, const ReduceOp& op);
  // Combined send + receive (deadlock-free: the send is buffered).
  Status sendrecv(std::span<const std::byte> senddata, int dest, Tag sendtag,
                  std::span<std::byte> recvbuf, int source, Tag recvtag,
                  std::size_t* received = nullptr);

  // ---- non-blocking collectives --------------------------------------------
  Request ibarrier();
  Request iallreduce(std::span<const std::byte> send,
                     std::span<std::byte> recv, std::size_t count,
                     const ReduceOp& op);

  // ---- failure handling ---------------------------------------------------
  // Locally revokes this communicator (MPI_Comm_revoke): every pending and
  // future operation on it fails with `aborted`. Idempotent.
  void revoke();
  [[nodiscard]] bool revoked() const;
  [[nodiscard]] std::uint64_t context() const noexcept { return context_; }

  // Duplicate (fresh collective context, same members).
  std::shared_ptr<Communicator> dup();
  // Sub-communicator from a subset of ranks (must be called by all listed
  // ranks); returns nullptr on ranks not in the subset.
  std::shared_ptr<Communicator> subset(const std::vector<int>& ranks);

  CollectivePolicy policy;  // adjustable per-communicator

 private:
  friend class Instance;
  Communicator(Instance& inst, std::vector<net::ProcId> members, int rank,
               std::uint64_t context);

  // Internal tagged p2p used by collective algorithms.
  Status csend(std::span<const std::byte> d, int dest, std::uint64_t ctag);
  Status crecv(std::span<std::byte> d, int src, std::uint64_t ctag,
               std::size_t* received = nullptr);
  // ANY_SOURCE receive on a collective tag; `src` reports the sender's rank.
  Status crecv_any(std::span<std::byte> d, std::uint64_t ctag, int* src,
                   std::size_t* received = nullptr);
  [[nodiscard]] std::uint64_t coll_tag(std::uint32_t kind);
  void charge_reduce(std::size_t bytes);

  Request async(std::string name, std::function<Status()> op);

  Instance* inst_;
  std::vector<net::ProcId> members_;
  int rank_;
  std::uint64_t context_;
  std::uint64_t coll_seq_ = 0;
};

}  // namespace colza::mona
