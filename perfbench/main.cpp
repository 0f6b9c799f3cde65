// perfbench: the repository benchmark driver.
//
//   perfbench --workload <render|stage|elastic|viewer> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Repeats episodes of the workload (a fresh deployment plus a fixed number
// of iterations) until `seconds` have passed, checks every episode's outputs
// and that every episode of the seed reproduced the same virtual timeline,
// and prints the metrics that BENCHMARK.json declares. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, with every timing
// at the speed of the reference host (host_speed.hpp); --trace 1 alternates
// untraced and traced episodes and reports the per-layer metrics from the
// traced ones.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "metrics.hpp"
#include "perfbench.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse(int argc, char** argv, Args& a) {
  bool seed_set = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      seed_set = end != v && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') return false;
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] - '0';
    } else {
      return false;
    }
  }
  const auto& names = workload_names();
  return argc % 2 == 1 && seed_set && a.seconds > 0 && a.trace >= 0 &&
         std::find(names.begin(), names.end(), a.workload) != names.end();
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

// The resident set now, not its peak.
double rss_mb() {
  long pages = 0, resident = 0;
  std::ifstream statm("/proc/self/statm");
  if (!(statm >> pages >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

// The traced run measures resident-set growth from the end of episode 2,
// the first traced one (so the span store is already allocated), to the
// end of this one: a fixed count, so the figure does not depend on how many
// episodes the host's speed fits into the run.
constexpr std::size_t kRssEpisodes = 6;

std::vector<Metric> load_declared(bool traced) {
  std::ifstream in(PERFBENCH_JSON);
  if (!in) throw std::runtime_error("cannot read " PERFBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  return declared_metrics(text.str(), traced ? "per_layer" : "end_to_end");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <render|stage|elastic|viewer> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const bool traced = args.trace == 1;
  std::vector<Metric> declared;
  try {
    declared = load_declared(traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const Ns deadline =
      host_ns() + static_cast<Ns>(args.seconds * 1e9);

  // A run needs two episodes so that the repeat checks apply, and an untraced
  // run enough iterations to have ten beyond p75. The traced run alternates
  // untraced (even) and traced (odd) episodes, so that both sides of the
  // tracing overhead see the same host, and runs at least kRssEpisodes.
  //
  // Timings of every episode at the reference host's speed: each scaled by
  // kReferenceMs over the median reference kernel time of its episode. The
  // raw_ ones are the host times as measured.
  std::vector<Episode> episodes;
  std::vector<double> setup_s, traced_iter_ms, untraced_iter_ms;
  std::vector<double> raw_setup_s, raw_iter_ms, kernel_ms;
  double measured_s = 0, raw_measured_s = 0;
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> rss_after;
  std::string error;
  std::uint64_t attempted = 0, failed = 0;
  // Later episodes can only raise the process's peak resident set, also
  // through allocator fragmentation that depends on how many episodes fit
  // into the run; the metric is the peak at the end of the first one. The
  // traced run reports the growth over a fixed number of episodes.
  double first_episode_rss_mb = 0;
  Ns episode_start = host_ns();
  for (int e = 0;; ++e) {
    const bool trace_this = traced && e % 2 == 1;
    Episode ep = run_episode(args.workload, args.seed, trace_this);
    rss_after.push_back(rss_mb());
    const double kernel = median(ep.kernel_ms);
    std::printf(
        "episode %d%s: setup %.3f s, %zu iterations, median %.3f ms, "
        "reference kernel %.4f ms, events %llu, virtual %.6f s, output "
        "%016llx, rss %.1f MB (peak %.1f MB)\n",
        e, trace_this ? " (traced)" : "", ep.setup_s, ep.iter_ms.size(),
        median(ep.iter_ms), kernel,
        static_cast<unsigned long long>(ep.des_events),
        static_cast<double>(ep.virtual_ns) / 1e9,
        static_cast<unsigned long long>(ep.output_hash), rss_after.back(),
        peak_rss_mb());
    if (!ep.error.empty()) {
      error = "episode " + std::to_string(e) + ": " + ep.error;
    } else if (!episodes.empty() &&
               (ep.des_events != episodes[0].des_events ||
                ep.virtual_ns != episodes[0].virtual_ns ||
                ep.output_hash != episodes[0].output_hash)) {
      error = "episode " + std::to_string(e) +
              " did not repeat episode 0's timeline and outputs";
    }
    if ((ep.iter_ms.empty() || !(kernel > 0)) && error.empty())
      error = "no measured iterations";
    attempted += ep.iterations;
    failed += ep.failed_iterations;
    setup_s.push_back(at_reference_speed(ep.setup_s, kernel));
    raw_setup_s.push_back(ep.setup_s);
    auto& samples = trace_this ? traced_iter_ms : untraced_iter_ms;
    for (double ms : ep.iter_ms)
      samples.push_back(at_reference_speed(ms, kernel));
    if (!trace_this) {
      raw_iter_ms.insert(raw_iter_ms.end(), ep.iter_ms.begin(),
                         ep.iter_ms.end());
      measured_s += at_reference_speed(ep.measured_s, kernel);
      raw_measured_s += ep.measured_s;
    }
    kernel_ms.insert(kernel_ms.end(), ep.kernel_ms.begin(), ep.kernel_ms.end());
    for (const auto& [name, v] : ep.layers) layers[name].push_back(v);
    episodes.push_back(std::move(ep));
    if (episodes.size() == 1) first_episode_rss_mb = peak_rss_mb();
    if (!error.empty()) break;
    // Start another episode only while at least half of it fits before the
    // deadline, so a run lasts `seconds` give or take half an episode.
    const Ns now = host_ns();
    const bool enough =
        traced ? episodes.size() >= kRssEpisodes
               : episodes.size() >= 2 &&
                     samples_beyond(untraced_iter_ms.size(), 0.75) >= 10;
    if (enough && now + (now - episode_start) / 2 >= deadline) break;
    episode_start = now;
  }
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    attempted, 1)),
                static_cast<unsigned long long>(failed));
    return 1;
  }

  const Episode& first = episodes.front();
  std::printf("fingerprint %s seed %llu: des.events %llu, des.virtual_s "
              "%.9f, output %016llx (every episode identical)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(first.des_events),
              static_cast<double>(first.virtual_ns) / 1e9,
              static_cast<unsigned long long>(first.output_hash));

  std::map<std::string, double> out;
  if (!traced) {
    const std::vector<double>& iter_ms = untraced_iter_ms;
    double bytes = 0, frames = 0;
    std::uint64_t calls = 0, bad = 0, aborted = 0, iterations = 0;
    for (const Episode& ep : episodes) {
      bytes += static_cast<double>(ep.payload_bytes);
      frames += static_cast<double>(ep.frames);
      calls += ep.calls;
      bad += ep.failed_calls;
      aborted += ep.aborted_activates;
      iterations += ep.iterations;
    }
    out["iter_ms_p50"] = quantile(iter_ms, 0.5);
    out["iter_ms_p75"] = quantile(iter_ms, 0.75);
    out["payload_mb_per_s"] = bytes / 1e6 / measured_s;
    // Every failed attempt, retried or not, adds 1/iterations to the 1 a
    // failure-free run has.
    out["tries_per_iter"] = static_cast<double>(iterations + bad) /
                            static_cast<double>(iterations);
    out["setup_s"] = median(setup_s);
    out["peak_rss_mb"] = first_episode_rss_mb;
    std::printf("samples: %zu measured iterations over %zu episodes "
                "(%zu beyond p75), %zu set-ups\n",
                iter_ms.size(), episodes.size(),
                samples_beyond(iter_ms.size(), 0.75), setup_s.size());
    std::printf("host speed: reference kernel median %.4f ms over %zu runs, "
                "%.4f ms on the reference host; as measured on this host: "
                "iter_ms_p50 %.4f ms, iter_ms_p75 %.4f ms, payload_mb_per_s "
                "%.4f MB/s, setup_s %.6f s\n",
                median(kernel_ms), kernel_ms.size(), kReferenceMs,
                quantile(raw_iter_ms, 0.5), quantile(raw_iter_ms, 0.75),
                bytes / 1e6 / raw_measured_s, median(raw_setup_s));
    std::printf("operations: %llu calls, %llu failed or retried "
                "(op_fail_ratio %.6f), %llu aborted activates in %zu "
                "episodes\n",
                static_cast<unsigned long long>(calls),
                static_cast<unsigned long long>(bad),
                calls ? static_cast<double>(bad) / static_cast<double>(calls)
                      : 0.0,
                static_cast<unsigned long long>(aborted), episodes.size());
    if (args.workload == "viewer") {
      std::printf("viewer_frames_per_s %.1f frames/s, "
                  "viewer_bytes_per_session %.0f B\n",
                  frames / measured_s, first.bytes_per_session);
    } else {
      std::printf("stage_mb_per_s %.3f MB/s\n", bytes / 1e6 / measured_s);
    }
  } else {
    for (const auto& [name, v] : layers) out[name] = median(v);
    out["trace.overhead_ms"] =
        median(traced_iter_ms) - median(untraced_iter_ms);
    out["mem.rss_growth_mb"] = rss_after[kRssEpisodes - 1] - rss_after[1];
    std::printf("samples: %zu traced and %zu untraced iterations over %zu "
                "episodes\n",
                traced_iter_ms.size(), untraced_iter_ms.size(),
                episodes.size());
    if (!recorder().spans().empty()) {
      const std::string path = ".bench_build/spans-" + args.workload + ".jsonl";
      if (!recorder().write(path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      else
        std::printf("spans of the last traced episode: %s\n", path.c_str());
    }
  }

  // Every declared metric of the mode, in declaration order, by name and
  // unit; a layer the workload does not run prints 0.
  std::vector<std::pair<Metric, double>> printed;
  error = match_metrics(declared, out, traced, printed);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::string json = "{";
  for (const auto& [m, v] : printed) {
    std::printf("metric %-36s %.10g %s\n", m.name.c_str(), v, m.unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    if (json.size() > 1) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}";
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return 0;
}
