// The metrics a run prints. BENCHMARK.json at the repository root declares
// them (name and unit, in order); the driver reads that declaration at
// start-up and prints the values it computed in the declared order, so the
// lists exist in one place only.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
};

// The `section` ("end_to_end" or "per_layer") of the BENCHMARK.json text
// `json_text`. Throws std::runtime_error when the text does not parse or
// the section is missing, empty or has an entry without a name or unit.
[[nodiscard]] std::vector<Metric> declared_metrics(
    const std::string& json_text, const std::string& section);

// Pairs each declared metric with its computed value, in declaration
// order, into `out`. A computed value without a declared name is an error.
// A declared name without a value is an error unless `missing_is_zero`
// (per-layer metrics of a layer the workload does not run), and is then
// printed as 0. Returns the error, or an empty string.
[[nodiscard]] std::string match_metrics(
    const std::vector<Metric>& declared,
    const std::map<std::string, double>& values, bool missing_is_zero,
    std::vector<std::pair<Metric, double>>& out);

}  // namespace perfbench
