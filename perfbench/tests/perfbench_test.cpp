// Tests of the benchmark's own code: the statistics helpers, span self time
// and unions, the recorder's parent links, the matching of computed metrics
// to the names BENCHMARK.json declares, and the host-speed scaling.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "host_speed.hpp"
#include "metrics.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(Quantile, MatchesPythonInclusiveQuartiles) {
  // statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
  // == [1.75, 2.5, 3.25]
  const std::vector<double> v{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.75), 7.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Quantile, SampleCountBeyondTheTailPercentile) {
  // p75 may be reported from 40 samples on: ten lie beyond it.
  EXPECT_EQ(samples_beyond(40, 0.75), 10u);
  EXPECT_EQ(samples_beyond(39, 0.75), 9u);
  EXPECT_EQ(samples_beyond(41, 0.75), 10u);
  EXPECT_EQ(samples_beyond(100, 0.5), 50u);
  EXPECT_EQ(samples_beyond(0, 0.75), 0u);
}

TEST(Intervals, UnionCountsOverlapOnce) {
  EXPECT_EQ(union_length({{0, 10}, {5, 15}, {20, 30}, {30, 35}}), 30);
  EXPECT_EQ(union_length({{20, 30}, {0, 100}}), 100);
  EXPECT_EQ(union_length({{5, 5}, {7, 3}}), 0);  // empty and inverted
  EXPECT_EQ(union_length({}), 0);
  // Server spans of one execute overlap as fibers interleave; the union
  // clipped to the client's span is what the backend covers of it.
  EXPECT_EQ(covered_within({{0, 40}, {30, 60}, {90, 200}}, {10, 100}), 60);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren) {
  std::vector<Span> spans{
      {"root", 0, 100, -1, 2, -1},
      {"a", 10, 30, 0, 2, 1},
      {"b", 20, 50, 0, 2, 2},   // overlaps a
      {"c", 90, 120, 0, 2, 3},  // runs past the parent's end
      {"a.child", 15, 20, 1, 2, 1},
  };
  const std::vector<Ns> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - (40 + 10));
  EXPECT_EQ(self[1], 20 - 5);  // a minus its own child only
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
}

TEST(Spans, RecorderParentsSpansToTheInnermostDriverSpan) {
  SpanRecorder r;
  const std::size_t it = r.open_path("iteration", 3);
  const std::size_t gen = r.open("apps.gen", 5);
  r.close(gen);
  const std::size_t exec = r.open_path("colza.execute", 3);
  const std::size_t server = r.open("server.execute", 1000);
  r.close(server);
  r.close_path(exec);
  const std::size_t after = r.open("apps.gen", 6);
  r.close(after);
  r.close_path(it);
  const auto& s = r.spans();
  EXPECT_EQ(s[gen].parent, static_cast<std::int64_t>(it));
  EXPECT_EQ(s[exec].parent, static_cast<std::int64_t>(it));
  EXPECT_EQ(s[server].parent, static_cast<std::int64_t>(exec));
  EXPECT_EQ(s[after].parent, static_cast<std::int64_t>(it));
  EXPECT_EQ(s[server].iteration, 3u);
  EXPECT_EQ(s[server].actor, 1000);
  for (const Span& span : s) EXPECT_LE(span.start, span.end);
}

std::string benchmark_json() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Metrics, BenchmarkJsonDeclaresBothSections) {
  const std::string text = benchmark_json();
  ASSERT_FALSE(text.empty()) << PERFBENCH_JSON;
  const auto e2e = declared_metrics(text, "end_to_end");
  const auto layers = declared_metrics(text, "per_layer");
  EXPECT_EQ(e2e.front().name, "iter_ms_p50");
  EXPECT_TRUE(std::any_of(e2e.begin(), e2e.end(), [](const Metric& m) {
    return m.name == "setup_s" && m.unit == "s";
  }));
  EXPECT_FALSE(layers.empty());
  EXPECT_THROW((void)declared_metrics(text, "no_such_section"),
               std::runtime_error);
  EXPECT_THROW((void)declared_metrics("{\"end_to_end\": [{\"name\": \"x\"}]}",
                                      "end_to_end"),
               std::runtime_error);
}

TEST(Metrics, OnlyDeclaredNamesArePrintedInDeclaredOrder) {
  const std::vector<Metric> declared{{"b", "ms"}, {"a", "count"}};
  std::vector<std::pair<Metric, double>> out;
  EXPECT_EQ(match_metrics(declared, {{"a", 1.0}, {"b", 2.0}}, false, out), "");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first.name, "b");
  EXPECT_EQ(out[0].first.unit, "ms");
  EXPECT_EQ(out[0].second, 2.0);
  EXPECT_EQ(out[1].second, 1.0);
  // A computed value with no declared name is refused.
  EXPECT_NE(match_metrics(declared, {{"a", 1}, {"b", 2}, {"c", 3}}, false, out),
            "");
  EXPECT_NE(match_metrics(declared, {{"a", 1}, {"c", 3}}, true, out), "");
  // A declared name without a value: an error end to end, 0 per layer.
  EXPECT_NE(match_metrics(declared, {{"a", 1}}, false, out), "");
  EXPECT_EQ(match_metrics(declared, {{"a", 1}}, true, out), "");
  EXPECT_EQ(out[0].second, 0.0);
}

TEST(HostSpeed, ScalingKeepsRatiosBetweenTimings) {
  // On a host where the kernel takes twice its reference time, every timing
  // reads half, and a change that halves a timing still halves its reading.
  EXPECT_DOUBLE_EQ(at_reference_speed(100.0, 2 * kReferenceMs), 50.0);
  EXPECT_DOUBLE_EQ(at_reference_speed(50.0, 2 * kReferenceMs), 25.0);
  EXPECT_DOUBLE_EQ(at_reference_speed(7.0, kReferenceMs), 7.0);
}

TEST(HostSpeed, KernelTimeIsCountedOutOfHostWindows) {
  const Ns before = reference_kernel_total_ns();
  const Ns start = host_ns();
  const double ms = reference_kernel_ms();
  const Ns took = host_ns() - start;
  const Ns counted = reference_kernel_total_ns() - before;
  EXPECT_GT(ms, 0.0);
  EXPECT_GT(counted, 0);
  EXPECT_LE(counted, took);
}

}  // namespace
}  // namespace perfbench
