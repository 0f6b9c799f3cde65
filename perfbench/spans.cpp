#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

Ns host_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Ns union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  Ns total = 0;
  Ns cur_start = 0, cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

Ns covered_within(std::vector<Interval> intervals, Interval window) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, window.start);
    iv.end = std::min(iv.end, window.end);
  }
  return union_length(std::move(intervals));
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto at = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > at ? n - at : 0;
}

std::vector<Ns> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  }
  std::vector<Ns> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out[i] = (s.end - s.start) -
             covered_within(std::move(children[i]), {s.start, s.end});
  }
  return out;
}

void SpanRecorder::clear() {
  spans_.clear();
  path_.clear();
  iteration_ = 0;
}

std::size_t SpanRecorder::open_path(const char* name, std::uint64_t iteration) {
  iteration_ = iteration;
  const std::int64_t parent =
      path_.empty() ? -1 : static_cast<std::int64_t>(path_.back());
  spans_.push_back(Span{name, host_ns(), 0, parent, iteration, -1});
  path_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close_path(std::size_t id) {
  spans_[id].end = host_ns();
  // Driver spans close innermost first; tolerate a guard closing out of
  // order by dropping everything above it.
  while (!path_.empty()) {
    const std::size_t top = path_.back();
    path_.pop_back();
    if (top == id) break;
  }
}

std::size_t SpanRecorder::open(const char* name, std::int64_t actor) {
  const std::int64_t parent =
      path_.empty() ? -1 : static_cast<std::int64_t>(path_.back());
  spans_.push_back(Span{name, host_ns(), 0, parent, iteration_, actor});
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t id) { spans_[id].end = host_ns(); }

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"iteration\":%llu,\"actor\":%lld}\n",
                 s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.iteration),
                 static_cast<long long>(s.actor));
  }
  return std::fclose(f) == 0;
}

SpanRecorder& recorder() noexcept {
  static SpanRecorder r;
  return r;
}

}  // namespace perfbench
