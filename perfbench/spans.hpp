// Host-clock spans and the statistics the benchmark reports from them.
//
// The benchmark records a span around each of its own calls into a module
// (apps generation, vis serialization, the colza client calls, and, through
// TracedBackend, the server-side backend calls). Spans stay in memory and
// are written out when the run ends; the per-layer metrics are computed
// from them. Everything here is single-threaded, like the simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Ns = std::int64_t;

// steady_clock nanoseconds.
[[nodiscard]] Ns host_ns() noexcept;

struct Interval {
  Ns start = 0;
  Ns end = 0;
};

// Length of the union of `intervals`: overlapping parts count once.
[[nodiscard]] Ns union_length(std::vector<Interval> intervals);
// Length of the union of `intervals` clipped to `window`.
[[nodiscard]] Ns covered_within(std::vector<Interval> intervals,
                                Interval window);

// Linear-interpolated quantile (q in [0, 1]) of `samples`, the "inclusive"
// method of Python's statistics.quantiles. Empty input yields 0.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
// How many of `n` samples lie strictly beyond the q-quantile's rank. A tail
// percentile is only reported when at least ten samples lie beyond it.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

struct Span {
  const char* name = "";  // a string literal
  Ns start = 0;
  Ns end = 0;
  std::int64_t parent = -1;  // index into the recorder's spans; -1 = root
  std::uint64_t iteration = 0;
  std::int64_t actor = -1;  // client rank or server process id; -1 = driver
};

// Self time of every span: its duration minus the part of it that its
// children cover (children may overlap each other; their union counts).
[[nodiscard]] std::vector<Ns> self_times(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void enable(bool on) noexcept { enabled_ = on; }
  void clear();

  // A span on the driver path (client rank 0's iteration and its phases).
  // Driver spans nest: every span opened until this one closes is its child.
  std::size_t open_path(const char* name, std::uint64_t iteration);
  void close_path(std::size_t id);

  // A span of another actor (a client's generation or serialization, a
  // server's backend call). Its parent is the innermost open driver span.
  std::size_t open(const char* name, std::int64_t actor);
  void close(std::size_t id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  // One JSON object per line: name, start_ns, end_ns, parent, iteration,
  // actor. Returns false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> path_;
  std::uint64_t iteration_ = 0;
};

// The process-wide recorder (the traced backend has no other way to it).
[[nodiscard]] SpanRecorder& recorder() noexcept;

// Records one span of `actor` for the lifetime of the guard, if tracing is
// on; otherwise does nothing.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::int64_t actor) {
    if (recorder().enabled()) id_ = recorder().open(name, actor);
  }
  ~ScopedSpan() {
    if (id_ != kNone) recorder().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t id_ = kNone;
};

// The same for a driver-path span (SpanRecorder::open_path).
class PathSpan {
 public:
  PathSpan(const char* name, std::uint64_t iteration) {
    if (recorder().enabled()) id_ = recorder().open_path(name, iteration);
  }
  ~PathSpan() {
    if (id_ != kNone) recorder().close_path(id_);
  }
  PathSpan(const PathSpan&) = delete;
  PathSpan& operator=(const PathSpan&) = delete;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t id_ = kNone;
};

}  // namespace perfbench
