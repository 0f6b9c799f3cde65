#include "baselines/damaris.hpp"

#include <stdexcept>

#include "des/simulation.hpp"

namespace colza::baselines {

namespace {
constexpr mona::Tag kDataTag = 500;
constexpr mona::Tag kSignalTag = 501;
}  // namespace

Damaris::Damaris(net::Network& net, Config config, net::NodeId base_node)
    : net_(&net), config_(std::move(config)) {
  if (config_.servers <= 0 || config_.clients <= 0)
    throw std::invalid_argument("Damaris: sizes must be positive");
  if (config_.clients % config_.servers != 0)
    throw std::invalid_argument(
        "Damaris imposes that the number of dedicated processes divides the "
        "number of client processes (paper S III-D)");
  job_ = std::make_unique<simmpi::MpiJob>(net, world_size(),
                                          config_.procs_per_node,
                                          config_.vendor, base_node);
  // The dedicated ranks' sub-communicator, split from the world.
  std::vector<int> server_ranks;
  for (int s = 0; s < config_.servers; ++s)
    server_ranks.push_back(config_.clients + s);
  server_comms_.resize(static_cast<std::size_t>(config_.servers));
  for (int s = 0; s < config_.servers; ++s) {
    server_comms_[static_cast<std::size_t>(s)] =
        job_->world(config_.clients + s).subset(server_ranks);
  }
  records_.resize(static_cast<std::size_t>(config_.servers));
}

Status Damaris::write(int client_rank, std::uint64_t iteration,
                      const vis::DataSet& block) {
  auto& sim = net_->sim();
  auto bytes =
      sim.charge_scoped([&] { return vis::serialize_dataset(block); });
  (void)iteration;
  // Plain MPI message carrying the full payload (no RDMA pull).
  return job_->world(client_rank).send(bytes, server_of_client(client_rank),
                                       kDataTag);
}

Status Damaris::signal(int client_rank, std::uint64_t iteration,
                       std::uint64_t blocks_written) {
  const std::uint64_t payload[2] = {iteration, blocks_written};
  return job_->world(client_rank)
      .send({reinterpret_cast<const std::byte*>(payload), sizeof(payload)},
            server_of_client(client_rank), kSignalTag);
}

void Damaris::server_loop(int server_index, int iterations) {
  const int rank = config_.clients + server_index;
  auto& world = job_->world(rank);
  auto& sim = net_->sim();
  const int per = config_.clients / config_.servers;
  const int first_client = server_index * per;

  mona::Communicator& plugin_comm =
      *server_comms_[static_cast<std::size_t>(server_index)];
  render::FrameBuffer fb;

  std::vector<std::byte> buf(16 * 1024 * 1024);
  for (int iter = 1; iter <= iterations; ++iter) {
    // Wait for each of my clients' signal (tag matching lets us take the
    // signal even if data messages arrived first), then drain the announced
    // number of data messages.
    std::vector<vis::DataSet> blocks;
    for (int c = 0; c < per; ++c) {
      const int client = first_client + c;
      std::uint64_t sig[2] = {0, 0};
      std::span<std::byte> sig_span{reinterpret_cast<std::byte*>(sig),
                                    sizeof(sig)};
      if (!world.recv(sig_span, client, kSignalTag).ok()) return;
      for (std::uint64_t b = 0; b < sig[1]; ++b) {
        std::size_t got = 0;
        if (!world.recv(buf, client, kDataTag, &got).ok()) return;
        blocks.push_back(sim.charge_scoped([&] {
          return vis::deserialize_dataset(
              std::span<const std::byte>(buf.data(), got));
        }));
      }
    }

    // This server enters the plugin NOW, independently of its peers: the
    // first collective inside the pipeline makes early servers wait for
    // late ones (the paper's explanation of Damaris' overhead).
    Record rec;
    rec.iteration = static_cast<std::uint64_t>(iter);
    rec.entered_at = sim.now();
    auto r = catalyst::execute(config_.script, blocks, plugin_comm, fb,
                               static_cast<std::uint64_t>(iter));
    if (!r.has_value()) return;
    rec.plugin_time = sim.now() - rec.entered_at;
    records_[static_cast<std::size_t>(server_index)].push_back(rec);
  }
}

void Damaris::run(int iterations,
                  std::function<void(int, std::uint64_t)> client_body) {
  for (int s = 0; s < config_.servers; ++s) {
    job_->process(config_.clients + s)
        .spawn("damaris-server",
               [this, s, iterations] { server_loop(s, iterations); });
  }
  for (int c = 0; c < config_.clients; ++c) {
    job_->process(c).spawn("damaris-client", [c, iterations, client_body] {
      for (int iter = 1; iter <= iterations; ++iter) {
        client_body(c, static_cast<std::uint64_t>(iter));
      }
    });
  }
}

}  // namespace colza::baselines
