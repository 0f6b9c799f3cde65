// Mini-Damaris: the dedicated-resources staging baseline of Fig 8.
//
// Architectural properties reproduced from the paper (S III-D):
//   * clients and servers live in ONE static MPI job: Damaris splits
//     MPI_COMM_WORLD to dedicate some ranks to data processing, and "must be
//     deployed at the same time as the application";
//   * the number of dedicated processes must divide the number of client
//     processes (enforced here);
//   * data reaches servers as plain MPI messages (no RDMA pull);
//   * the plugin is triggered independently per client signal: a server
//     whose clients signal early enters the plugin early and stalls at the
//     first collective waiting for other servers -- the skew the paper
//     blames for Damaris' slower Fig 8 times.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "catalyst/catalyst.hpp"
#include "des/time.hpp"
#include "simmpi/simmpi.hpp"
#include "vis/data.hpp"

namespace colza::baselines {

class Damaris {
 public:
  struct Config {
    int clients = 4;
    int servers = 2;  // dedicated ranks, placed after the client ranks
    int procs_per_node = 4;
    simmpi::Vendor vendor = simmpi::Vendor::cray_mpich;
    catalyst::PipelineScript script;
  };

  struct Record {
    std::uint64_t iteration = 0;
    des::Duration plugin_time = 0;  // entering the plugin -> image done
    des::Time entered_at = 0;       // when this server entered the plugin
  };

  Damaris(net::Network& net, Config config, net::NodeId base_node = 0);

  [[nodiscard]] int world_size() const noexcept {
    return config_.clients + config_.servers;
  }
  [[nodiscard]] int server_of_client(int client_rank) const noexcept {
    const int per = config_.clients / config_.servers;
    return config_.clients + client_rank / per;
  }

  // ---- client-side API (call from the client's rank fiber) ---------------
  // damaris_write: ships one serialized block to this client's server.
  Status write(int client_rank, std::uint64_t iteration,
               const vis::DataSet& block);
  // damaris_signal: tells the server this client's iteration is complete
  // (`blocks_written` of them were shipped); when ALL of a server's clients
  // have signaled, that server independently enters the plugin.
  Status signal(int client_rank, std::uint64_t iteration,
                std::uint64_t blocks_written);

  // Spawns the server loops (each runs `iterations` plugin rounds) and the
  // client main functions.
  void run(int iterations,
           std::function<void(int client_rank, std::uint64_t iteration)>
               client_body);

  [[nodiscard]] const std::vector<std::vector<Record>>& records()
      const noexcept {
    return records_;  // indexed by server (0..servers-1)
  }

 private:
  void server_loop(int server_index, int iterations);

  net::Network* net_;
  Config config_;
  std::unique_ptr<simmpi::MpiJob> job_;
  std::vector<std::shared_ptr<mona::Communicator>> server_comms_;
  std::vector<std::vector<Record>> records_;
};

}  // namespace colza::baselines
