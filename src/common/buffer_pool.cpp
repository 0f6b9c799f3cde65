#include "common/buffer_pool.hpp"

namespace colza::common {

BufferPool& BufferPool::global() {
  static BufferPool pool;
  return pool;
}

std::vector<std::byte> BufferPool::take_storage(std::size_t n) {
  auto it = storage_.lower_bound(n);
  if (it == storage_.end() || it->first - n > n) {
    return std::vector<std::byte>(n);
  }
  std::vector<std::byte> v = std::move(it->second);
  idle_storage_bytes_ -= it->first;
  storage_.erase(it);
  v.resize(n);
  return v;
}

void BufferPool::give_storage(std::vector<std::byte> v) {
  const std::size_t cap = v.capacity();
  if (cap == 0 || idle_storage_bytes_ + cap > kMaxIdleStorageBytes) return;
  idle_storage_bytes_ += cap;
  storage_.emplace(cap, std::move(v));
}

}  // namespace colza::common
