// HistogramBackend: a non-visualization analysis pipeline -- computes a
// global histogram of one field across all staged blocks every iteration,
// using a MoNA allreduce across the staging area. Demonstrates that Colza
// pipelines are arbitrary C++ analysis code (paper S II-B: "they can include
// any type of processing"), not only ParaView rendering.
//
// Registered under the type name "histogram". JSON configuration:
//   { "field": "v", "bins": 32, "range_lo": 0.0, "range_hi": 1.0 }
//
// The backend is stateful: its per-iteration results migrate to a surviving
// peer when its server leaves (Backend::export_state/import_state).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "colza/backend.hpp"

namespace colza {

class HistogramBackend final : public Backend {
 public:
  explicit HistogramBackend(Context ctx);

  // Validates the block (it must parse and carry the configured field as
  // f32 values), then stores it through Backend::stage. Nothing is binned
  // here: execute() bins every stored block once.
  Status stage(StagedBlock block) override;
  Status execute(std::uint64_t iteration) override;

  [[nodiscard]] json::Value stats() const override;
  [[nodiscard]] bool stateful() const override { return true; }
  [[nodiscard]] std::vector<std::byte> export_state() override;
  Status import_state(std::span<const std::byte> state) override;

  struct Result {
    std::uint64_t iteration = 0;
    std::vector<std::uint64_t> counts;  // global histogram (valid on rank 0)
    std::uint64_t total_values = 0;     // global count
    double min_seen = 0, max_seen = 0;  // global extrema

    template <typename Ar>
    void serialize(Ar& ar) {
      ar & iteration & counts & total_values & min_seen & max_seen;
    }
  };
  [[nodiscard]] const std::vector<Result>& results() const noexcept {
    return results_;
  }

  // One server's accumulation of one iteration. Staged blocks stay raw in
  // staged_ and are accumulated from scratch at every execute() -- behind a
  // fresh CRC check per block -- which also makes execute idempotent across
  // recovery retries.
  struct Local {
    std::vector<std::uint64_t> counts;  // `bins` entries
    std::uint64_t values = 0;
    double min_seen = 1e300, max_seen = -1e300;
  };
  // The bytes of `field` inside a serialized vis::DataSet, found in place
  // (vis::find_serialized_array; point data first, then cell data):
  // InvalidArgument when the block does not parse or the field does not
  // hold f32 values, NotFound when the block lacks the field.
  [[nodiscard]] static Expected<std::span<const std::byte>> field_bytes(
      std::span<const std::byte> block, const std::string& field);
  // Bins the size() / 4 f32 values in `f32_values`, which need no alignment,
  // into `local` with bit-for-bit the result of one sequential pass in
  // order: value v lands in bin (v - lo) / width (float division,
  // width = (hi - lo) / bins, clamped to the top bin); below lo, NaN, or any
  // value when width <= 0 lands in bin 0; at or above hi in the top bin.
  // min_seen / max_seen follow std::min<double> / std::max<double> applied
  // value by value, so NaN never wins and, among equal values, the earliest
  // (this call's earlier values, or the carried-in extremum) does -- which
  // decides the sign of a zero extremum.
  static void accumulate(std::span<const std::byte> f32_values, float lo,
                         float hi, std::uint32_t bins, Local& local);

 private:
  std::string field_;
  std::uint32_t bins_ = 32;
  float lo_ = 0.0f, hi_ = 1.0f;
  std::vector<Result> results_;
};

}  // namespace colza
