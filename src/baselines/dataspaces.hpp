// Mini-DataSpaces: the staging baseline of Fig 8 closest to Colza's own
// architecture. The paper notes DataSpaces "was recently refactored to make
// use of Margo", so its data path is RPC + RDMA pull, like Colza's -- but
// its analysis pipeline runs over a STATIC MPI world across the staging
// servers (no elasticity), and data goes through the tuple-space shared
// store first (one extra staging copy).
//
// Client API follows the dspaces_put / trigger style: versions (iterations)
// of named variables are put into the space; a separate exec() call runs
// the analysis over every block of a version.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalyst/catalyst.hpp"
#include "rpc/engine.hpp"
#include "simmpi/simmpi.hpp"
#include "vis/data.hpp"

namespace colza::baselines {

class DataSpaces {
 public:
  struct Config {
    int servers = 2;
    int procs_per_node = 4;
    simmpi::Vendor vendor = simmpi::Vendor::cray_mpich;  // pipeline transport
    catalyst::PipelineScript script;
  };

  struct Record {
    std::uint64_t version = 0;
    des::Duration exec_time = 0;
    std::size_t blocks = 0;
  };

  DataSpaces(net::Network& net, Config config, net::NodeId base_node = 0);

  [[nodiscard]] std::vector<net::ProcId> server_addresses() const;

  // ---- client-side API (call from a client fiber) -------------------------
  // dspaces_put: exposes the serialized block and sends its handle to the
  // server selected by block id; the server pulls it via RDMA and copies it
  // into the in-memory space.
  Status put(rpc::Engine& client, const std::string& var,
             std::uint64_t version, std::uint64_t block_id,
             std::span<const std::byte> data);

  // Triggers the analysis of `version` on every server (single trigger, like
  // Colza's execute); servers run the pipeline over their static MPI world.
  Status exec(rpc::Engine& client, const std::string& var,
              std::uint64_t version);

  // Drops a version from the space.
  Status drop(rpc::Engine& client, const std::string& var,
              std::uint64_t version);

  [[nodiscard]] const std::vector<std::vector<Record>>& records()
      const noexcept {
    return records_;
  }

 private:
  struct ServerState {
    std::unique_ptr<rpc::Engine> engine;
    // The space stores raw serialized objects (var -> version -> blobs);
    // the analysis "gets" and decodes them at execution time, which is the
    // extra data hop DataSpaces pays relative to Colza's pipelines.
    std::map<std::string,
             std::map<std::uint64_t, std::vector<std::vector<std::byte>>>>
        space;
    std::shared_ptr<mona::Communicator> world;
    render::FrameBuffer fb;
  };

  net::Network* net_;
  Config config_;
  std::unique_ptr<simmpi::MpiJob> job_;
  std::vector<std::unique_ptr<ServerState>> states_;
  std::vector<std::vector<Record>> records_;
};

}  // namespace colza::baselines
