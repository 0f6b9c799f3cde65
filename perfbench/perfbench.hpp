// The benchmark's workloads. Each run repeats *episodes* of one workload --
// a fresh deployment (set-up) followed by a fixed number of in situ
// iterations -- until its time is up. Every episode of a seed runs the same
// virtual timeline, so counts and output hashes must repeat exactly across
// episodes; the driver in main.cpp checks that.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Episode {
  // Host seconds from the start of the deployment to the end of the warm-up
  // iteration (iteration 1), i.e. to the first measured iteration.
  double setup_s = 0;
  // Host milliseconds of each measured iteration (client rank 0, barrier to
  // barrier; for the viewer, one publish until every session is served).
  std::vector<double> iter_ms;
  // Host milliseconds of the reference kernel (host_speed.hpp), run once
  // after every iteration, warm-up included, outside every timed window.
  std::vector<double> kernel_ms;
  // Host seconds (without the reference kernel's runs) and payload bytes
  // over the measured iterations: bytes handed to stage() (pipeline
  // workloads) or encoded frame bytes delivered to sessions (viewer).
  double measured_s = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t frames = 0;  // viewer: frames delivered, measured window
  // viewer: encoded bytes delivered per session over the whole episode (a
  // deterministic count).
  double bytes_per_session = 0;

  // Operations: every pipeline call and every retry of one is an attempt;
  // viewer deliveries count as attempts, skipped ones as failures.
  std::uint64_t calls = 0;
  std::uint64_t failed_calls = 0;
  std::uint64_t aborted_activates = 0;
  // Iterations (publishes) attempted, and those that did not complete even
  // after bounded retries.
  std::uint64_t iterations = 0;
  std::uint64_t failed_iterations = 0;

  // Fingerprint: identical for every episode of one seed.
  std::uint64_t des_events = 0;
  std::int64_t virtual_ns = 0;
  std::uint64_t output_hash = 0;

  // Per-layer metrics (traced episodes only), by the names that
  // BENCHMARK.json declares under "per_layer".
  std::map<std::string, double> layers;

  // Empty when the episode ran and passed its output checks.
  std::string error;
};

// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

// Runs one episode of `workload` (a name from workload_names()) at `seed`.
// With `traced`, spans are recorded and Episode::layers is filled.
[[nodiscard]] Episode run_episode(const std::string& workload,
                                  std::uint64_t seed, bool traced);

}  // namespace perfbench
