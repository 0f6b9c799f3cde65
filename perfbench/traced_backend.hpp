// A forwarding colza::Backend that records server-side host spans around
// the real pipeline's stage and execute calls. The benchmark registers it
// only in the traced run (register_traced_backends), under "traced-<type>",
// and creates its pipelines under that name; every Backend virtual is
// forwarded to the real instance created by type name, so the pipeline's
// behaviour and virtual timeline are the untraced one's.
#pragma once

#include <memory>
#include <string>

#include "colza/backend.hpp"

namespace perfbench {

class TracedBackend final : public colza::Backend {
 public:
  TracedBackend(Context ctx, std::unique_ptr<colza::Backend> inner);

  colza::Status activate(std::uint64_t iteration) override;
  colza::Status stage(colza::StagedBlock block) override;
  colza::Status execute(std::uint64_t iteration) override;
  colza::Status deactivate(std::uint64_t iteration) override;
  void update_comm(std::shared_ptr<colza::mona::Communicator> comm) override;
  [[nodiscard]] colza::json::Value stats() const override;
  [[nodiscard]] const colza::render::FrameBuffer* rendered_frame()
      const override;
  [[nodiscard]] std::vector<BlockInfo> integrity_scan(
      std::uint64_t iteration) override;
  [[nodiscard]] bool fetch_block(std::uint64_t iteration,
                                 std::uint64_t block_id,
                                 const std::string& field,
                                 colza::StagedBlock& out) override;
  [[nodiscard]] std::vector<std::byte>* stored_payload(
      std::uint64_t iteration, std::uint64_t block_id,
      const std::string& field) override;
  [[nodiscard]] bool stateful() const override;
  [[nodiscard]] std::vector<std::byte> export_state() override;
  colza::Status import_state(std::span<const std::byte> state) override;

 private:
  std::unique_ptr<colza::Backend> inner_;
};

// Registers "traced-catalyst" and "traced-histogram". Idempotent.
void register_traced_backends();

}  // namespace perfbench
