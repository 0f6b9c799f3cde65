// The communication abstraction of the visualization stack -- the equivalent
// of vtkMultiProcessController/vtkCommunicator. Filters and compositors are
// written against this interface; which concrete transport backs it is a
// deployment decision:
//
//   * MpiCommunicator  (the vtkMPIController of the paper) wraps a static
//     simmpi world communicator;
//   * MonaCommunicator (the paper's contributed vtkMonaController) wraps a
//     MoNA communicator built from an SSG view snapshot, and can therefore
//     be swapped for a wider/narrower one between iterations.
//
// This is exactly the dependency-injection seam Colza exploits (S II-D):
// neither the filters nor the compositor below know which one they run on.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "common/status.hpp"
#include "mona/mona.hpp"

namespace colza::vis {

class Communicator {
 public:
  virtual ~Communicator() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;

  virtual Status send(std::span<const std::byte> data, int dest, int tag) = 0;
  virtual Status recv(std::span<std::byte> out, int source, int tag,
                      std::size_t* received) = 0;
  virtual Status barrier() = 0;
  virtual Status bcast(std::span<std::byte> data, int root) = 0;
  virtual Status reduce(std::span<const std::byte> send,
                        std::span<std::byte> recv, std::size_t count,
                        const mona::ReduceOp& op, int root) = 0;
  virtual Status allreduce(std::span<const std::byte> send,
                           std::span<std::byte> recv, std::size_t count,
                           const mona::ReduceOp& op) = 0;
  virtual Status gatherv(std::span<const std::byte> send,
                         std::span<std::byte> recv,
                         std::span<const std::size_t> counts, int root) = 0;
};

// Shared implementation: both concrete controllers delegate to a
// mona::Communicator (simmpi's worlds are mona::Communicator instances with
// a vendor profile -- see simmpi/simmpi.hpp).
class MonaCommunicator final : public Communicator {
 public:
  explicit MonaCommunicator(std::shared_ptr<mona::Communicator> comm)
      : comm_(std::move(comm)) {}

  [[nodiscard]] int rank() const override { return comm_->rank(); }
  [[nodiscard]] int size() const override { return comm_->size(); }

  Status send(std::span<const std::byte> data, int dest, int tag) override {
    return comm_->send(data, dest, static_cast<mona::Tag>(tag));
  }
  Status recv(std::span<std::byte> out, int source, int tag,
              std::size_t* received) override {
    return comm_->recv(out, source, static_cast<mona::Tag>(tag), received);
  }
  Status barrier() override { return comm_->barrier(); }
  Status bcast(std::span<std::byte> data, int root) override {
    return comm_->bcast(data, root);
  }
  Status reduce(std::span<const std::byte> send, std::span<std::byte> recv,
                std::size_t count, const mona::ReduceOp& op,
                int root) override {
    return comm_->reduce(send, recv, count, op, root);
  }
  Status allreduce(std::span<const std::byte> send, std::span<std::byte> recv,
                   std::size_t count, const mona::ReduceOp& op) override {
    return comm_->allreduce(send, recv, count, op);
  }
  Status gatherv(std::span<const std::byte> send, std::span<std::byte> recv,
                 std::span<const std::size_t> counts, int root) override {
    return comm_->gatherv(send, recv, counts, root);
  }

  [[nodiscard]] mona::Communicator& underlying() noexcept { return *comm_; }

 private:
  std::shared_ptr<mona::Communicator> comm_;
};

// The MPI-backed controller: same mechanics, but constructed from a static
// simmpi world (non-owning -- the MpiJob owns the world).
class MpiCommunicator final : public Communicator {
 public:
  explicit MpiCommunicator(mona::Communicator& world) : world_(&world) {}

  [[nodiscard]] int rank() const override { return world_->rank(); }
  [[nodiscard]] int size() const override { return world_->size(); }

  Status send(std::span<const std::byte> data, int dest, int tag) override {
    return world_->send(data, dest, static_cast<mona::Tag>(tag));
  }
  Status recv(std::span<std::byte> out, int source, int tag,
              std::size_t* received) override {
    return world_->recv(out, source, static_cast<mona::Tag>(tag), received);
  }
  Status barrier() override { return world_->barrier(); }
  Status bcast(std::span<std::byte> data, int root) override {
    return world_->bcast(data, root);
  }
  Status reduce(std::span<const std::byte> send, std::span<std::byte> recv,
                std::size_t count, const mona::ReduceOp& op,
                int root) override {
    return world_->reduce(send, recv, count, op, root);
  }
  Status allreduce(std::span<const std::byte> send, std::span<std::byte> recv,
                   std::size_t count, const mona::ReduceOp& op) override {
    return world_->allreduce(send, recv, count, op);
  }
  Status gatherv(std::span<const std::byte> send, std::span<std::byte> recv,
                 std::span<const std::size_t> counts, int root) override {
    return world_->gatherv(send, recv, counts, root);
  }

 private:
  mona::Communicator* world_;
};

}  // namespace colza::vis
