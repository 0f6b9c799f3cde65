// Collective algorithms for MoNA communicators, following the classic MPICH
// designs the paper says MoNA took inspiration from (S II-C): binomial trees
// for bcast/reduce/gather/scatter, recursive doubling for allreduce, a
// dissemination barrier, ring allgather, and pairwise-exchange alltoall.
//
// All operators are assumed commutative (true for every op in this codebase,
// including the compositing operator in icet).
#include <algorithm>
#include <cstring>

#include "common/buffer_pool.hpp"
#include "mona/mona.hpp"
#include "obs/trace.hpp"
#include "mona/tags.hpp"

namespace colza::mona {

namespace {

enum CollKind : std::uint32_t {
  kBarrier = 1,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kGatherv,
  kScatter,
  kAllgather,
  kAlltoall,
  kScan,
  kExscan,
  kAllgatherv,
  kReduceScatter,
};

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

int ceil_pow2(int n) {
  int p = 1;
  while (p < n) p *= 2;
  return p;
}

}  // namespace

Communicator::Communicator(Instance& inst, std::vector<net::ProcId> members,
                           int rank, std::uint64_t context)
    : inst_(&inst), members_(std::move(members)), rank_(rank),
      context_(context) {}

std::uint64_t Communicator::coll_tag(std::uint32_t kind) {
  return tags::coll_tag(context_, coll_seq_++, kind);
}

void Communicator::revoke() { inst_->revoke_context(context_); }

bool Communicator::revoked() const { return inst_->is_revoked(context_); }

void Communicator::charge_reduce(std::size_t bytes) {
  inst_->sim().charge(static_cast<des::Duration>(
      static_cast<double>(bytes) * policy.reduce_ns_per_byte));
}

Status Communicator::csend(std::span<const std::byte> d, int dest,
                           std::uint64_t ctag) {
  if (revoked()) return Status::Aborted("mona: communicator revoked");
  return inst_->send(d, address_of(dest), ctag);
}

Status Communicator::crecv(std::span<std::byte> d, int src, std::uint64_t ctag,
                           std::size_t* received) {
  if (revoked()) return Status::Aborted("mona: communicator revoked");
  return inst_->recv(d, address_of(src), ctag, received);
}

Status Communicator::crecv_any(std::span<std::byte> d, std::uint64_t ctag,
                               int* src, std::size_t* received) {
  if (revoked()) return Status::Aborted("mona: communicator revoked");
  net::ProcId from = net::kInvalidProc;
  Status s = inst_->recv_any(d, ctag, &from, received);
  if (!s.ok()) return s;
  if (src != nullptr) {
    *src = -1;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i] == from) {
        *src = static_cast<int>(i);
        break;
      }
    }
    if (*src < 0)
      return Status::InvalidArgument("mona: message from non-member");
  }
  return Status::Ok();
}

// ------------------------------------------------------------- p2p

Status Communicator::send(std::span<const std::byte> data, int dest, Tag tag) {
  if (dest < 0 || dest >= size())
    return Status::InvalidArgument("mona::send: bad rank");
  return csend(data, dest, tags::p2p_tag(context_, tag));
}

Status Communicator::recv(std::span<std::byte> out, int source, Tag tag,
                          std::size_t* received) {
  if (source < 0 || source >= size())
    return Status::InvalidArgument("mona::recv: bad rank");
  return crecv(out, source, tags::p2p_tag(context_, tag), received);
}

Request Communicator::async(std::string name, std::function<Status()> op) {
  auto state = std::make_shared<Request::State>();
  auto fiber = inst_->process().spawn(
      std::move(name),
      [state, op = std::move(op)] {
        state->status = op();
        state->done = true;
      },
      des::SpawnOptions{.daemon = true});
  return Request(&inst_->sim(), fiber, state);
}

Request Communicator::isend(std::span<const std::byte> data, int dest,
                            Tag tag) {
  return async("mona-isend",
               [this, data, dest, tag] { return send(data, dest, tag); });
}

Request Communicator::irecv(std::span<std::byte> out, int source, Tag tag,
                            std::size_t* received) {
  return async("mona-irecv", [this, out, source, tag, received] {
    return recv(out, source, tag, received);
  });
}

// ------------------------------------------------------------- barrier

Status Communicator::barrier() {
  obs::SpanScope obs_span("mona.barrier", "mona");
  const std::uint64_t tag = coll_tag(kBarrier);
  const int n = size();
  std::byte token{};
  for (int k = 1; k < n; k <<= 1) {
    const int dst = (rank_ + k) % n;
    const int src = (rank_ - k + n) % n;
    Status s = csend({&token, 1}, dst, tag);
    if (!s.ok()) return s;
    s = crecv({&token, 1}, src, tag);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// ------------------------------------------------------------- bcast

Status Communicator::bcast(std::span<std::byte> data, int root) {
  obs::SpanScope obs_span("mona.bcast", "mona");
  obs_span.arg("bytes", static_cast<std::uint64_t>(data.size()));
  const std::uint64_t tag = coll_tag(kBcast);
  const int n = size();
  if (root < 0 || root >= n)
    return Status::InvalidArgument("bcast: bad root");
  if (n == 1) return Status::Ok();
  const int relrank = (rank_ - root + n) % n;

  // Receive from parent.
  int mask = 1;
  while (mask < n) {
    if ((relrank & mask) != 0) {
      const int src = (relrank - mask + root) % n;
      Status s = crecv(data, src, tag);
      if (!s.ok()) return s;
      break;
    }
    mask <<= 1;
  }
  // Forward to children.
  mask >>= 1;
  while (mask > 0) {
    if (relrank + mask < n) {
      const int dst = (relrank + mask + root) % n;
      Status s = csend(data, dst, tag);
      if (!s.ok()) return s;
    }
    mask >>= 1;
  }
  return Status::Ok();
}

// ------------------------------------------------------------- reduce

Status Communicator::reduce(std::span<const std::byte> send,
                            std::span<std::byte> recv, std::size_t count,
                            const ReduceOp& op, int root) {
  obs::SpanScope obs_span("mona.reduce", "mona");
  const std::uint64_t tag = coll_tag(kReduce);
  const int n = size();
  const std::size_t bytes = count * op.elem_size;
  if (send.size() < bytes)
    return Status::InvalidArgument("reduce: send buffer too small");
  if (rank_ == root && recv.size() < bytes)
    return Status::InvalidArgument("reduce: recv buffer too small");

  std::vector<std::byte> acc(send.begin(), send.begin() + bytes);
  std::vector<std::byte> partial(bytes);

  if (policy.linear_fallback && bytes > policy.linear_threshold) {
    // Linear algorithm: every non-root rank sends to root; root combines
    // sequentially. Models OpenMPI's tuned-module bailout (Table II).
    if (rank_ != root) {
      Status s = csend(acc, root, tag);
      if (!s.ok()) return s;
    } else {
      for (int r = 0; r < n; ++r) {
        if (r == root) continue;
        Status s = crecv(partial, r, tag);
        if (!s.ok()) return s;
        op.fn(partial.data(), acc.data(), count);
        charge_reduce(bytes);
      }
      std::memcpy(recv.data(), acc.data(), bytes);
    }
    return Status::Ok();
  }

  // Binomial tree (commutative operator).
  const int relrank = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((relrank & mask) == 0) {
      const int src_rel = relrank | mask;
      if (src_rel < n) {
        const int src = (src_rel + root) % n;
        Status s = crecv(partial, src, tag);
        if (!s.ok()) return s;
        op.fn(partial.data(), acc.data(), count);
        charge_reduce(bytes);
      }
    } else {
      const int dst = ((relrank & ~mask) + root) % n;
      Status s = csend(acc, dst, tag);
      if (!s.ok()) return s;
      break;
    }
    mask <<= 1;
  }
  if (rank_ == root) std::memcpy(recv.data(), acc.data(), bytes);
  return Status::Ok();
}

// ------------------------------------------------------------- allreduce

Status Communicator::allreduce(std::span<const std::byte> send,
                               std::span<std::byte> recv, std::size_t count,
                               const ReduceOp& op) {
  obs::SpanScope obs_span("mona.allreduce", "mona");
  const std::uint64_t tag = coll_tag(kAllreduce);
  const int n = size();
  const std::size_t bytes = count * op.elem_size;
  if (send.size() < bytes || recv.size() < bytes)
    return Status::InvalidArgument("allreduce: buffer too small");

  std::vector<std::byte> acc(send.begin(), send.begin() + bytes);
  std::vector<std::byte> partial(bytes);

  // Recursive doubling with the standard non-power-of-two pre/post phase.
  const int pof2 = floor_pow2(n);
  const int rem = n - pof2;
  int newrank;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      Status s = csend(acc, rank_ + 1, tag);
      if (!s.ok()) return s;
      newrank = -1;
    } else {
      Status s = crecv(partial, rank_ - 1, tag);
      if (!s.ok()) return s;
      op.fn(partial.data(), acc.data(), count);
      charge_reduce(bytes);
      newrank = rank_ / 2;
    }
  } else {
    newrank = rank_ - rem;
  }

  if (newrank != -1) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner =
          partner_new < rem ? partner_new * 2 + 1 : partner_new + rem;
      Status s = csend(acc, partner, tag);
      if (!s.ok()) return s;
      s = crecv(partial, partner, tag);
      if (!s.ok()) return s;
      op.fn(partial.data(), acc.data(), count);
      charge_reduce(bytes);
    }
  }

  if (rank_ < 2 * rem) {
    if (rank_ % 2 != 0) {
      Status s = csend(acc, rank_ - 1, tag);
      if (!s.ok()) return s;
    } else {
      Status s = crecv(acc, rank_ + 1, tag);
      if (!s.ok()) return s;
    }
  }
  std::memcpy(recv.data(), acc.data(), bytes);
  return Status::Ok();
}

// ------------------------------------------------------------- gather

Status Communicator::gather(std::span<const std::byte> send,
                            std::span<std::byte> recv, int root) {
  obs::SpanScope obs_span("mona.gather", "mona");
  const std::uint64_t tag = coll_tag(kGather);
  const int n = size();
  const std::size_t blk = send.size();
  if (rank_ == root && recv.size() < blk * static_cast<std::size_t>(n))
    return Status::InvalidArgument("gather: recv buffer too small");
  const int relrank = (rank_ - root + n) % n;

  // Subtree accumulation buffer: blocks [relrank, relrank + extent).
  const auto extent = [n](int rel, int mask) {
    return std::min(mask, n - rel);
  };
  std::vector<std::byte> buf(blk * static_cast<std::size_t>(
                                       extent(relrank, ceil_pow2(n))));
  std::memcpy(buf.data(), send.data(), blk);

  int mask = 1;
  while (mask < n) {
    if ((relrank & mask) == 0) {
      const int src_rel = relrank | mask;
      if (src_rel < n) {
        const std::size_t cnt =
            static_cast<std::size_t>(extent(src_rel, mask)) * blk;
        Status s = crecv({buf.data() + static_cast<std::size_t>(mask) * blk,
                          cnt},
                         (src_rel + root) % n, tag);
        if (!s.ok()) return s;
      }
    } else {
      const int dst_rel = relrank & ~mask;
      const std::size_t cnt =
          static_cast<std::size_t>(extent(relrank, mask)) * blk;
      Status s = csend({buf.data(), cnt}, (dst_rel + root) % n, tag);
      if (!s.ok()) return s;
      break;
    }
    mask <<= 1;
  }

  if (rank_ == root) {
    // buf holds blocks in relative order; rotate into absolute rank order.
    for (int rel = 0; rel < n; ++rel) {
      const int abs_rank = (rel + root) % n;
      std::memcpy(recv.data() + static_cast<std::size_t>(abs_rank) * blk,
                  buf.data() + static_cast<std::size_t>(rel) * blk, blk);
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------------- gatherv

Status Communicator::gatherv(std::span<const std::byte> send,
                             std::span<std::byte> recv,
                             std::span<const std::size_t> counts, int root) {
  obs::SpanScope obs_span("mona.gatherv", "mona");
  const std::uint64_t tag = coll_tag(kGatherv);
  const int n = size();
  if (counts.size() != static_cast<std::size_t>(n))
    return Status::InvalidArgument("gatherv: counts size != comm size");
  if (send.size() < counts[static_cast<std::size_t>(rank_)])
    return Status::InvalidArgument("gatherv: send buffer too small");

  if (rank_ != root) {
    return csend(send.subspan(0, counts[static_cast<std::size_t>(rank_)]),
                 root, tag);
  }
  std::size_t total = 0;
  std::size_t max_cnt = 0;
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    offsets[static_cast<std::size_t>(r)] = total;
    total += counts[static_cast<std::size_t>(r)];
    max_cnt = std::max(max_cnt, counts[static_cast<std::size_t>(r)]);
  }
  if (recv.size() < total)
    return Status::InvalidArgument("gatherv: recv buffer too small");
  std::memcpy(recv.data() + offsets[static_cast<std::size_t>(rank_)],
              send.data(), counts[static_cast<std::size_t>(rank_)]);
  // Accept contributions in arrival order instead of rank order: with
  // variable-size contributions the slowest early rank no longer serializes
  // everything behind it at the root.
  common::Buffer tmp = common::BufferPool::global().acquire(max_cnt);
  for (int got = 1; got < n; ++got) {
    int from = -1;
    std::size_t len = 0;
    Status s = crecv_any(tmp.span(), tag, &from, &len);
    if (!s.ok()) return s;
    if (len != counts[static_cast<std::size_t>(from)])
      return Status::InvalidArgument("gatherv: contribution size mismatch");
    std::memcpy(recv.data() + offsets[static_cast<std::size_t>(from)],
                tmp.data(), len);
  }
  return Status::Ok();
}

// ------------------------------------------------------------- scatter

Status Communicator::scatter(std::span<const std::byte> send,
                             std::span<std::byte> recv, int root) {
  obs::SpanScope obs_span("mona.scatter", "mona");
  const std::uint64_t tag = coll_tag(kScatter);
  const int n = size();
  const std::size_t blk = recv.size();
  if (rank_ == root && send.size() < blk * static_cast<std::size_t>(n))
    return Status::InvalidArgument("scatter: send buffer too small");
  const int relrank = (rank_ - root + n) % n;

  // Binomial: each process receives its subtree's blocks from its parent,
  // then peels off halves for its children.
  const int lowbit = relrank == 0 ? ceil_pow2(n) : (relrank & -relrank);
  std::vector<std::byte> buf;
  int range_end;  // exclusive, in relative blocks

  if (relrank == 0) {
    range_end = n;
    buf.resize(blk * static_cast<std::size_t>(n));
    for (int rel = 0; rel < n; ++rel) {
      const int abs_rank = (rel + root) % n;
      std::memcpy(buf.data() + static_cast<std::size_t>(rel) * blk,
                  send.data() + static_cast<std::size_t>(abs_rank) * blk, blk);
    }
  } else {
    range_end = std::min(relrank + lowbit, n);
    buf.resize(blk * static_cast<std::size_t>(range_end - relrank));
    const int parent_rel = relrank - lowbit;
    Status s = crecv(buf, (parent_rel + root) % n, tag);
    if (!s.ok()) return s;
  }

  for (int mask = lowbit >> 1; mask >= 1; mask >>= 1) {
    const int child = relrank + mask;
    if (child < range_end) {
      const std::size_t off = static_cast<std::size_t>(child - relrank) * blk;
      const std::size_t cnt =
          static_cast<std::size_t>(range_end - child) * blk;
      Status s = csend({buf.data() + off, cnt}, (child + root) % n, tag);
      if (!s.ok()) return s;
      range_end = child;
    }
  }
  std::memcpy(recv.data(), buf.data(), blk);
  return Status::Ok();
}

// ------------------------------------------------------------- allgather

Status Communicator::allgather(std::span<const std::byte> send,
                               std::span<std::byte> recv) {
  obs::SpanScope obs_span("mona.allgather", "mona");
  const std::uint64_t tag = coll_tag(kAllgather);
  const int n = size();
  const std::size_t blk = send.size();
  if (recv.size() < blk * static_cast<std::size_t>(n))
    return Status::InvalidArgument("allgather: recv buffer too small");

  std::memcpy(recv.data() + static_cast<std::size_t>(rank_) * blk,
              send.data(), blk);
  const int right = (rank_ + 1) % n;
  const int left = (rank_ - 1 + n) % n;
  for (int step = 0; step < n - 1; ++step) {
    const int send_block = (rank_ - step + n) % n;
    const int recv_block = (rank_ - step - 1 + n) % n;
    Status s = csend({recv.data() + static_cast<std::size_t>(send_block) * blk,
                      blk},
                     right, tag);
    if (!s.ok()) return s;
    s = crecv({recv.data() + static_cast<std::size_t>(recv_block) * blk, blk},
              left, tag);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// ------------------------------------------------------------- alltoall

Status Communicator::alltoall(std::span<const std::byte> send,
                              std::span<std::byte> recv,
                              std::size_t block_bytes) {
  obs::SpanScope obs_span("mona.alltoall", "mona");
  const std::uint64_t tag = coll_tag(kAlltoall);
  const int n = size();
  if (send.size() < block_bytes * static_cast<std::size_t>(n) ||
      recv.size() < block_bytes * static_cast<std::size_t>(n))
    return Status::InvalidArgument("alltoall: buffer too small");

  std::memcpy(recv.data() + static_cast<std::size_t>(rank_) * block_bytes,
              send.data() + static_cast<std::size_t>(rank_) * block_bytes,
              block_bytes);
  for (int round = 1; round < n; ++round) {
    const int dst = (rank_ + round) % n;
    const int src = (rank_ - round + n) % n;
    Status s = csend(
        {send.data() + static_cast<std::size_t>(dst) * block_bytes,
         block_bytes},
        dst, tag);
    if (!s.ok()) return s;
    s = crecv({recv.data() + static_cast<std::size_t>(src) * block_bytes,
               block_bytes},
              src, tag);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// ------------------------------------------------------------- scan

Status Communicator::scan(std::span<const std::byte> send,
                          std::span<std::byte> recv, std::size_t count,
                          const ReduceOp& op) {
  const std::uint64_t tag = coll_tag(kScan);
  const int n = size();
  const std::size_t bytes = count * op.elem_size;
  if (send.size() < bytes || recv.size() < bytes)
    return Status::InvalidArgument("scan: buffer too small");

  std::vector<std::byte> acc(send.begin(), send.begin() + bytes);
  if (rank_ > 0) {
    std::vector<std::byte> partial(bytes);
    Status s = crecv(partial, rank_ - 1, tag);
    if (!s.ok()) return s;
    op.fn(partial.data(), acc.data(), count);
    charge_reduce(bytes);
  }
  if (rank_ < n - 1) {
    Status s = csend(acc, rank_ + 1, tag);
    if (!s.ok()) return s;
  }
  std::memcpy(recv.data(), acc.data(), bytes);
  return Status::Ok();
}

// ------------------------------------------------------------- exscan

Status Communicator::exscan(std::span<const std::byte> send,
                            std::span<std::byte> recv, std::size_t count,
                            const ReduceOp& op) {
  const std::uint64_t tag = coll_tag(kExscan);
  const int n = size();
  const std::size_t bytes = count * op.elem_size;
  if (send.size() < bytes || recv.size() < bytes)
    return Status::InvalidArgument("exscan: buffer too small");

  // Chain: rank r receives the prefix over [0, r), forwards prefix over
  // [0, r] to rank r+1. Rank 0's result is zero-filled.
  std::vector<std::byte> prefix(bytes, std::byte{0});
  if (rank_ > 0) {
    Status s = crecv(prefix, rank_ - 1, tag);
    if (!s.ok()) return s;
  }
  if (rank_ < n - 1) {
    std::vector<std::byte> forward(send.begin(), send.begin() + bytes);
    if (rank_ > 0) {
      op.fn(prefix.data(), forward.data(), count);
      charge_reduce(bytes);
    }
    Status s = csend(forward, rank_ + 1, tag);
    if (!s.ok()) return s;
  }
  std::memcpy(recv.data(), prefix.data(), bytes);
  return Status::Ok();
}

// ------------------------------------------------------------- allgatherv

Status Communicator::allgatherv(std::span<const std::byte> send,
                                std::span<std::byte> recv,
                                std::span<const std::size_t> counts) {
  obs::SpanScope obs_span("mona.allgatherv", "mona");
  const std::uint64_t tag = coll_tag(kAllgatherv);
  const int n = size();
  if (counts.size() != static_cast<std::size_t>(n))
    return Status::InvalidArgument("allgatherv: counts size != comm size");
  std::size_t total = 0;
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    offsets[static_cast<std::size_t>(r)] = total;
    total += counts[static_cast<std::size_t>(r)];
  }
  if (recv.size() < total)
    return Status::InvalidArgument("allgatherv: recv buffer too small");
  const std::size_t mine = counts[static_cast<std::size_t>(rank_)];
  if (send.size() < mine)
    return Status::InvalidArgument("allgatherv: send buffer too small");

  // Ring with variable block sizes: step s passes block (rank - s) around.
  std::memcpy(recv.data() + offsets[static_cast<std::size_t>(rank_)],
              send.data(), mine);
  const int right = (rank_ + 1) % n;
  const int left = (rank_ - 1 + n) % n;
  for (int step = 0; step < n - 1; ++step) {
    const auto send_block = static_cast<std::size_t>((rank_ - step + n) % n);
    const auto recv_block =
        static_cast<std::size_t>((rank_ - step - 1 + n) % n);
    Status s = csend(
        {recv.data() + offsets[send_block], counts[send_block]}, right, tag);
    if (!s.ok()) return s;
    s = crecv({recv.data() + offsets[recv_block], counts[recv_block]}, left,
              tag);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// -------------------------------------------------------- reduce_scatter

Status Communicator::reduce_scatter_block(std::span<const std::byte> send,
                                          std::span<std::byte> recv,
                                          std::size_t count_per_rank,
                                          const ReduceOp& op) {
  obs::SpanScope obs_span("mona.reduce_scatter_block", "mona");
  const std::uint64_t tag = coll_tag(kReduceScatter);
  const int n = size();
  const std::size_t block = count_per_rank * op.elem_size;
  if (send.size() < block * static_cast<std::size_t>(n))
    return Status::InvalidArgument("reduce_scatter: send buffer too small");
  if (recv.size() < block)
    return Status::InvalidArgument("reduce_scatter: recv buffer too small");
  if (n == 1) {
    std::memcpy(recv.data(), send.data(), block);
    return Status::Ok();
  }

  // MPICH recursive halving (commutative operator): each round exchanges
  // half of the remaining result range with the partner and reduces the
  // received half, so total traffic is O(n/2 + n/4 + ...) blocks per rank
  // instead of the full vector funneling through rank 0.
  const std::size_t total = block * static_cast<std::size_t>(n);
  std::vector<std::byte> acc(send.begin(), send.begin() + total);
  std::vector<std::byte> partial(total);

  const int pof2 = floor_pow2(n);
  const int rem = n - pof2;
  // Non-power-of-two pre-phase: the first 2*rem ranks fold pairwise; even
  // ranks drop out of the halving loop and get their block back at the end.
  int newrank;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      Status s = csend(acc, rank_ + 1, tag);
      if (!s.ok()) return s;
      newrank = -1;
    } else {
      Status s = crecv(partial, rank_ - 1, tag);
      if (!s.ok()) return s;
      op.fn(partial.data(), acc.data(),
            count_per_rank * static_cast<std::size_t>(n));
      charge_reduce(total);
      newrank = rank_ / 2;
    }
  } else {
    newrank = rank_ - rem;
  }

  if (newrank != -1) {
    // New rank i is responsible for the old blocks of itself and (for the
    // folded pairs) its dead even partner; the ranges are contiguous.
    std::vector<int> newcnts(static_cast<std::size_t>(pof2));
    std::vector<int> newdisps(static_cast<std::size_t>(pof2));
    for (int i = 0; i < pof2; ++i) {
      const int old_i = i < rem ? 2 * i + 1 : i + rem;
      newcnts[static_cast<std::size_t>(i)] = old_i < 2 * rem ? 2 : 1;
      newdisps[static_cast<std::size_t>(i)] = i < rem ? 2 * i : i + rem;
    }

    // Count of old blocks covered by the new-rank index range [a, b).
    const auto blocks_in = [&newcnts](int a, int b) {
      int c = 0;
      for (int i = a; i < b; ++i) c += newcnts[static_cast<std::size_t>(i)];
      return c;
    };
    // Invariant: this rank is responsible for new-rank range [low, high),
    // with high - low == 2 * mask entering each round; each round keeps the
    // half containing newrank and ships the other half to the partner.
    int low = 0;
    int high = pof2;
    for (int mask = pof2 >> 1; mask > 0; mask >>= 1) {
      const int newdst = newrank ^ mask;
      const int dst = newdst < rem ? newdst * 2 + 1 : newdst + rem;
      const int mid = low + mask;
      const bool keep_low = newrank < mid;
      const int send_lo = keep_low ? mid : low;
      const int send_hi = keep_low ? high : mid;
      const int recv_lo = keep_low ? low : mid;
      const int recv_hi = keep_low ? mid : high;
      const auto send_blocks = static_cast<std::size_t>(
          blocks_in(send_lo, send_hi));
      const auto recv_blocks = static_cast<std::size_t>(
          blocks_in(recv_lo, recv_hi));
      const auto send_off = static_cast<std::size_t>(
                                newdisps[static_cast<std::size_t>(send_lo)]) *
                            block;
      const auto recv_off = static_cast<std::size_t>(
                                newdisps[static_cast<std::size_t>(recv_lo)]) *
                            block;
      Status s = csend({acc.data() + send_off, send_blocks * block}, dst, tag);
      if (!s.ok()) return s;
      s = crecv({partial.data() + recv_off, recv_blocks * block}, dst, tag);
      if (!s.ok()) return s;
      op.fn(partial.data() + recv_off, acc.data() + recv_off,
            recv_blocks * count_per_rank);
      charge_reduce(recv_blocks * block);
      if (keep_low) {
        high = mid;
      } else {
        low = mid;
      }
    }
    std::memcpy(recv.data(),
                acc.data() + static_cast<std::size_t>(rank_) * block, block);
  }

  // Post-phase: odd survivors return the folded even partner's result block.
  if (rank_ < 2 * rem) {
    if (rank_ % 2 != 0) {
      Status s = csend(
          {acc.data() + static_cast<std::size_t>(rank_ - 1) * block, block},
          rank_ - 1, tag);
      if (!s.ok()) return s;
    } else {
      Status s = crecv(recv.subspan(0, block), rank_ + 1, tag);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------------- sendrecv

Status Communicator::sendrecv(std::span<const std::byte> senddata, int dest,
                              Tag sendtag, std::span<std::byte> recvbuf,
                              int source, Tag recvtag, std::size_t* received) {
  Status s = send(senddata, dest, sendtag);
  if (!s.ok()) return s;
  return recv(recvbuf, source, recvtag, received);
}

// ----------------------------------------------------- non-blocking

Request Communicator::ibarrier() {
  return async("mona-ibarrier", [this] { return barrier(); });
}

Request Communicator::iallreduce(std::span<const std::byte> send,
                                 std::span<std::byte> recv, std::size_t count,
                                 const ReduceOp& op) {
  return async("mona-iallreduce", [this, send, recv, count, op] {
    return allreduce(send, recv, count, op);
  });
}

// ----------------------------------------------------- derived comms

std::shared_ptr<Communicator> Communicator::dup() {
  return inst_->comm_create(members_);
}

std::shared_ptr<Communicator> Communicator::subset(
    const std::vector<int>& ranks) {
  std::vector<net::ProcId> sub;
  sub.reserve(ranks.size());
  for (int r : ranks) sub.push_back(address_of(r));
  auto comm = inst_->comm_create(std::move(sub));
  if (comm != nullptr) comm->policy = policy;
  return comm;
}

}  // namespace colza::mona
