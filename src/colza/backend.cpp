#include "colza/backend.hpp"

#include <map>

#include "common/buffer_pool.hpp"
#include "common/checksum.hpp"
#include "des/simulation.hpp"

namespace colza {

// ---------------------------------------------------------- StagedBlockStore

namespace {
// Hands the storage of every block in `slot` to the pool, for the next pull.
void recycle(StagedBlockStore::Slot& slot) {
  auto& pool = common::BufferPool::global();
  for (auto& [key, block] : slot) pool.give_storage(std::move(block.data));
  slot.clear();
}
}  // namespace

void StagedBlockStore::open(std::uint64_t iteration) {
  recycle(slots_[iteration]);
}

bool StagedBlockStore::is_open(std::uint64_t iteration) const {
  return slots_.count(iteration) != 0;
}

Status StagedBlockStore::put(StagedBlock block) {
  auto it = slots_.find(block.iteration);
  if (it == slots_.end())
    return Status::FailedPrecondition(
        "stage: iteration " + std::to_string(block.iteration) +
        " is not active");
  Block stored;
  stored.data = std::move(block.data);
  stored.checksum = block.checksum;
  stored.sender = block.sender;
  stored.copyset = std::move(block.copyset);
  auto [pos, fresh] = it->second.try_emplace(
      Key{block.block_id, std::move(block.field_name)});
  if (!fresh) {
    common::BufferPool::global().give_storage(std::move(pos->second.data));
  }
  pos->second = std::move(stored);
  return Status::Ok();
}

void StagedBlockStore::close(std::uint64_t iteration) {
  auto it = slots_.find(iteration);
  if (it == slots_.end()) return;
  recycle(it->second);
  slots_.erase(it);
}

const StagedBlockStore::Slot* StagedBlockStore::slot(
    std::uint64_t iteration) const {
  auto it = slots_.find(iteration);
  return it == slots_.end() ? nullptr : &it->second;
}

StagedBlockStore::Block* StagedBlockStore::find(std::uint64_t iteration,
                                                std::uint64_t block_id,
                                                const std::string& field) {
  auto it = slots_.find(iteration);
  if (it == slots_.end()) return nullptr;
  auto b = it->second.find(Key{block_id, field});
  return b == it->second.end() ? nullptr : &b->second;
}

std::vector<BlockInfo> StagedBlockStore::scan(std::uint64_t iteration) const {
  std::vector<BlockInfo> out;
  const Slot* blocks = slot(iteration);
  if (blocks == nullptr) return out;
  out.reserve(blocks->size());
  for (const auto& [key, stored] : *blocks) {
    BlockInfo info;
    info.block_id = key.first;
    info.field_name = key.second;
    info.checksum = stored.checksum;
    info.bytes = stored.data.size();
    info.valid = common::crc32c(stored.data) == stored.checksum;
    info.copyset = stored.copyset;
    out.push_back(std::move(info));
  }
  return out;
}

Status StagedBlockStore::for_each_verified(
    des::Simulation& sim, std::uint64_t iteration,
    const std::function<Status(const Key&, std::span<const std::byte>)>& fn) {
  // Thrown (and caught below) inside the charged lambda, so a mismatch
  // aborts the scoped charge instead of billing work that never ran.
  struct CorruptBlock {};
  auto it = slots_.find(iteration);
  if (it == slots_.end())
    return Status::FailedPrecondition(
        "iteration " + std::to_string(iteration) + " is not active");
  for (const auto& [key, stored] : it->second) {
    auto verify_then_use = [&]() -> Status {
      if (common::crc32c(stored.data) != stored.checksum) throw CorruptBlock{};
      return fn(key, stored.data);
    };
    Status s;
    try {
      s = sim.charge_scoped(verify_then_use);
    } catch (const CorruptBlock&) {
      return Status::Corrupt("block " + std::to_string(key.first) +
                                 " field '" + key.second +
                                 "' failed checksum verification",
                             key.first + 1);
    }
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// ------------------------------------------------------------------- Backend

Status Backend::activate(std::uint64_t iteration) {
  staged_.open(iteration);
  return Status::Ok();
}

Status Backend::stage(StagedBlock block) {
  return staged_.put(std::move(block));
}

Status Backend::deactivate(std::uint64_t iteration) {
  staged_.close(iteration);  // staged data can now be cleaned up (S II-B)
  return Status::Ok();
}

std::vector<BlockInfo> Backend::integrity_scan(std::uint64_t iteration) {
  return staged_.scan(iteration);
}

bool Backend::fetch_block(std::uint64_t iteration, std::uint64_t block_id,
                          const std::string& field, StagedBlock& out) {
  const StagedBlockStore::Block* stored =
      staged_.find(iteration, block_id, field);
  if (stored == nullptr) return false;
  out.iteration = iteration;
  out.block_id = block_id;
  out.field_name = field;
  out.sender = stored->sender;
  out.data = stored->data;  // served as-is; the requester verifies
  out.checksum = stored->checksum;
  out.copyset = stored->copyset;
  return true;
}

std::vector<std::byte>* Backend::stored_payload(std::uint64_t iteration,
                                                std::uint64_t block_id,
                                                const std::string& field) {
  StagedBlockStore::Block* stored = staged_.find(iteration, block_id, field);
  return stored == nullptr ? nullptr : &stored->data;
}

// ------------------------------------------------------------------ registry

namespace detail {
// Defined in catalyst_backend.cpp. Referencing it here forces the linker to
// pull that object file out of the static archive, so the built-in pipeline
// types are registered even in binaries that never name them directly.
void register_builtins();
}  // namespace detail

namespace {
std::map<std::string, BackendFactory>& registry() {
  static std::map<std::string, BackendFactory> r;
  return r;
}

void ensure_builtins() {
  static bool done = false;
  if (!done) {
    done = true;  // set first: register_builtins() re-enters register_type
    detail::register_builtins();
  }
}
}  // namespace

void BackendRegistry::register_type(const std::string& type,
                                    BackendFactory factory) {
  registry()[type] = std::move(factory);
}

bool BackendRegistry::has(const std::string& type) {
  ensure_builtins();
  return registry().count(type) != 0;
}

Expected<std::unique_ptr<Backend>> BackendRegistry::create(
    const std::string& type, Backend::Context ctx) {
  ensure_builtins();
  auto it = registry().find(type);
  if (it == registry().end())
    return Status::NotFound("no pipeline type '" + type +
                            "' in the registry");
  return it->second(std::move(ctx));
}

std::vector<std::string> BackendRegistry::types() {
  ensure_builtins();
  std::vector<std::string> out;
  for (const auto& [name, f] : registry()) out.push_back(name);
  return out;
}

}  // namespace colza
