// Pooled, move-only byte buffers for the message fabric.
//
// Every simulated message used to heap-allocate a fresh std::vector for its
// payload and free it after delivery; at millions of messages per benchmark
// that allocator traffic dominates the runtime. A BufferPool keeps freed
// storage in power-of-two size-class freelists, so a steady-state message
// flood performs zero allocations: acquire() pops a warm block, the Buffer
// travels by move through Network::transmit -> Mailbox -> demux, and its
// destructor pushes the block back.
//
// The same pool recycles the storage of staged blocks (take_storage /
// give_storage): exact-size vectors that a server fills by RDMA pull and
// keeps until deactivate. They are not power-of-two classed -- a 1 MiB block
// must not pin a 2 MiB buffer -- but kept whole, so the next pull of a block
// of the same size lands in pages that are already mapped, and nothing is
// zero-filled before the pull overwrites it.
//
// The DES is single-OS-thread by design (see des/simulation.hpp), so the
// pool is deliberately lock-free-by-construction: plain containers, no
// atomics. Pooling never affects simulation results -- it only changes which
// host addresses back a payload, never event order or virtual time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

namespace colza::common {

class BufferPool;

// A byte buffer whose storage returns to its pool on destruction. Move-only;
// adopting a plain std::vector (pool == nullptr) is also supported so
// call sites that already own a vector can hand it over without copying.
class Buffer {
 public:
  Buffer() = default;
  // Adopt an existing vector (not pooled; freed normally on destruction).
  Buffer(std::vector<std::byte> v)  // NOLINT(google-explicit-constructor)
      : storage_(std::move(v)), size_(storage_.size()) {}
  ~Buffer() { release(); }

  Buffer(Buffer&& other) noexcept
      : storage_(std::move(other.storage_)),
        size_(other.size_),
        pool_(other.pool_) {
    other.size_ = 0;
    other.pool_ = nullptr;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release();
      storage_ = std::move(other.storage_);
      size_ = other.size_;
      pool_ = other.pool_;
      other.size_ = 0;
      other.pool_ = nullptr;
    }
    return *this;
  }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  [[nodiscard]] std::byte* data() noexcept { return storage_.data(); }
  [[nodiscard]] const std::byte* data() const noexcept {
    return storage_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::span<std::byte> span() noexcept {
    return {storage_.data(), size_};
  }
  [[nodiscard]] std::span<const std::byte> span() const noexcept {
    return {storage_.data(), size_};
  }
  operator std::span<const std::byte>() const noexcept {  // NOLINT
    return span();
  }

 private:
  friend class BufferPool;
  Buffer(std::vector<std::byte> storage, std::size_t size, BufferPool* pool)
      : storage_(std::move(storage)), size_(size), pool_(pool) {}

  void release() noexcept;

  // storage_.size() is the size-class capacity; size_ is the logical length.
  // Keeping them separate means reuse never pays vector's value-initializing
  // resize.
  std::vector<std::byte> storage_;
  std::size_t size_ = 0;
  BufferPool* pool_ = nullptr;
};

class BufferPool {
 public:
  // Largest pooled class: 1 << kMaxClass bytes. Bigger requests fall back to
  // exact, unpooled allocations.
  static constexpr std::size_t kMinClassLog2 = 6;   // 64 B
  static constexpr std::size_t kMaxClassLog2 = 24;  // 16 MiB
  static constexpr std::size_t kMaxPerClass = 64;   // freelist depth cap
  // Cap on the bytes of staged-block storage kept for reuse. It holds one
  // iteration of 64 staged 1 MiB blocks (32 primaries and their buddy
  // replicas) with room to spare: a cap just below a workload's staged set
  // frees and reallocates a block every iteration, and allocator
  // fragmentation then grows the resident set by a block per iteration.
  static constexpr std::size_t kMaxIdleStorageBytes = std::size_t{80} << 20;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // The process-wide pool used by the message fabric. The runtime is
  // single-threaded; the pool outlives every Simulation so warm buffers
  // carry across benchmark iterations.
  static BufferPool& global();

  // A buffer of logical length `n` (uninitialized contents beyond what the
  // recycled block held).
  [[nodiscard]] Buffer acquire(std::size_t n) {
    const std::size_t cls = class_of(n);
    if (cls > kMaxClassLog2) {
      ++misses_;
      return Buffer(std::vector<std::byte>(n), n, nullptr);
    }
    auto& list = free_[cls - kMinClassLog2];
    if (!list.empty()) {
      ++hits_;
      std::vector<std::byte> block = std::move(list.back());
      list.pop_back();
      return Buffer(std::move(block), n, this);
    }
    ++misses_;
    return Buffer(std::vector<std::byte>(std::size_t{1} << cls), n, this);
  }

  // A buffer holding a copy of `data`.
  [[nodiscard]] Buffer copy_of(std::span<const std::byte> data) {
    Buffer b = acquire(data.size());
    if (!data.empty()) std::copy(data.begin(), data.end(), b.data());
    return b;
  }

  // A vector of size `n` for a staged block, to be overwritten whole. It
  // reuses idle storage of capacity n..2n when there is some (the smallest),
  // zero-filling only the bytes beyond what that storage last held -- none
  // when it last held a block of at least n bytes. Otherwise it is a fresh,
  // zero-filled vector.
  [[nodiscard]] std::vector<std::byte> take_storage(std::size_t n);
  // Keeps `v`'s storage for take_storage, unless that would put more than
  // kMaxIdleStorageBytes in the pool; then `v` is freed.
  void give_storage(std::vector<std::byte> v);
  [[nodiscard]] std::size_t idle_storage_bytes() const noexcept {
    return idle_storage_bytes_;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t idle_buffers() const noexcept {
    std::size_t n = 0;
    for (const auto& l : free_) n += l.size();
    return n;
  }
  void trim() {
    for (auto& l : free_) {
      l.clear();
      l.shrink_to_fit();
    }
    storage_.clear();
    idle_storage_bytes_ = 0;
  }

 private:
  friend class Buffer;

  static std::size_t class_of(std::size_t n) noexcept {
    std::size_t cls = kMinClassLog2;
    while ((std::size_t{1} << cls) < n) ++cls;
    return cls;
  }

  void recycle(std::vector<std::byte> block) noexcept {
    const std::size_t cap = block.size();
    // Only blocks we handed out (exact class sizes) come back here.
    std::size_t cls = kMinClassLog2;
    while ((std::size_t{1} << cls) < cap) ++cls;
    if ((std::size_t{1} << cls) != cap || cls > kMaxClassLog2) return;
    auto& list = free_[cls - kMinClassLog2];
    if (list.size() < kMaxPerClass) list.push_back(std::move(block));
  }

  using FreeList = std::vector<std::vector<std::byte>>;
  std::vector<FreeList> free_ =
      std::vector<FreeList>(kMaxClassLog2 - kMinClassLog2 + 1);
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  // Idle staged-block storage, keyed by capacity.
  std::multimap<std::size_t, std::vector<std::byte>> storage_;
  std::size_t idle_storage_bytes_ = 0;
};

inline void Buffer::release() noexcept {
  if (pool_ != nullptr && !storage_.empty()) {
    pool_->recycle(std::move(storage_));
  }
  storage_.clear();
  size_ = 0;
  pool_ = nullptr;
}

}  // namespace colza::common
