#include "traced_backend.hpp"

#include <stdexcept>

#include "spans.hpp"

namespace perfbench {

using colza::Backend;
using colza::Status;

namespace {
std::int64_t actor_of(const Backend::Context& ctx) {
  return static_cast<std::int64_t>(ctx.proc->id());
}
}  // namespace

TracedBackend::TracedBackend(Context ctx, std::unique_ptr<Backend> inner)
    : Backend(std::move(ctx)), inner_(std::move(inner)) {}

Status TracedBackend::activate(std::uint64_t iteration) {
  return inner_->activate(iteration);
}

Status TracedBackend::stage(colza::StagedBlock block) {
  ScopedSpan span("server.stage", actor_of(ctx_));
  return inner_->stage(std::move(block));
}

Status TracedBackend::execute(std::uint64_t iteration) {
  ScopedSpan span("server.execute", actor_of(ctx_));
  return inner_->execute(iteration);
}

Status TracedBackend::deactivate(std::uint64_t iteration) {
  return inner_->deactivate(iteration);
}

void TracedBackend::update_comm(
    std::shared_ptr<colza::mona::Communicator> comm) {
  inner_->update_comm(comm);
  Backend::update_comm(std::move(comm));
}

colza::json::Value TracedBackend::stats() const { return inner_->stats(); }

const colza::render::FrameBuffer* TracedBackend::rendered_frame() const {
  return inner_->rendered_frame();
}

std::vector<Backend::BlockInfo> TracedBackend::integrity_scan(
    std::uint64_t iteration) {
  return inner_->integrity_scan(iteration);
}

bool TracedBackend::fetch_block(std::uint64_t iteration,
                                std::uint64_t block_id,
                                const std::string& field,
                                colza::StagedBlock& out) {
  return inner_->fetch_block(iteration, block_id, field, out);
}

std::vector<std::byte>* TracedBackend::stored_payload(
    std::uint64_t iteration, std::uint64_t block_id,
    const std::string& field) {
  return inner_->stored_payload(iteration, block_id, field);
}

bool TracedBackend::stateful() const { return inner_->stateful(); }

std::vector<std::byte> TracedBackend::export_state() {
  return inner_->export_state();
}

Status TracedBackend::import_state(std::span<const std::byte> state) {
  return inner_->import_state(state);
}

void register_traced_backends() {
  for (const char* type : {"catalyst", "histogram"}) {
    colza::BackendRegistry::register_type(
        std::string("traced-") + type, [type](Backend::Context ctx) {
          auto inner = colza::BackendRegistry::create(type, ctx);
          if (!inner.has_value())
            throw std::runtime_error(inner.status().to_string());
          return std::unique_ptr<Backend>(std::make_unique<TracedBackend>(
              std::move(ctx), std::move(inner.value())));
        });
  }
}

}  // namespace perfbench
