#include "metrics.hpp"

#include <set>
#include <stdexcept>

#include "common/json.hpp"

namespace perfbench {

std::vector<Metric> declared_metrics(const std::string& json_text,
                                     const std::string& section) {
  const colza::json::Value doc = colza::json::parse(json_text);
  const colza::json::Value* list = doc.is_object() ? doc.find(section) : nullptr;
  if (list == nullptr || !list->is_array() || list->as_array().empty())
    throw std::runtime_error("BENCHMARK.json declares no " + section);
  std::vector<Metric> out;
  for (const colza::json::Value& m : list->as_array()) {
    Metric metric{m.is_object() ? m.string_or("name", "") : "",
                  m.is_object() ? m.string_or("unit", "") : ""};
    if (metric.name.empty() || metric.unit.empty())
      throw std::runtime_error("BENCHMARK.json: a " + section +
                               " entry lacks a name or unit");
    out.push_back(std::move(metric));
  }
  return out;
}

std::string match_metrics(const std::vector<Metric>& declared,
                          const std::map<std::string, double>& values,
                          bool missing_is_zero,
                          std::vector<std::pair<Metric, double>>& out) {
  out.clear();
  std::set<std::string> names;
  for (const Metric& m : declared) {
    names.insert(m.name);
    const auto it = values.find(m.name);
    if (it == values.end() && !missing_is_zero)
      return "metric " + m.name + " is declared but was not computed";
    out.emplace_back(m, it == values.end() ? 0.0 : it->second);
  }
  for (const auto& [name, v] : values) {
    if (names.count(name) == 0)
      return "metric " + name + " was computed but is not declared";
  }
  return {};
}

}  // namespace perfbench
