#include "colza/histogram_backend.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

#include "common/simd.hpp"
#include "des/simulation.hpp"
#include "vis/data.hpp"

namespace colza {

HistogramBackend::HistogramBackend(Context ctx) : Backend(std::move(ctx)) {
  field_ = ctx_.config.string_or("field", "v");
  // Clamped as a double: converting a negative, NaN or huge value straight
  // to an integer is undefined, and a huge one would size a giant counts
  // vector. NaN fails `>= 1` and lands on one bin.
  const double bins = ctx_.config.number_or("bins", 32);
  bins_ = bins >= 1 ? static_cast<std::uint32_t>(std::min(bins, 65536.0)) : 1;
  lo_ = static_cast<float>(ctx_.config.number_or("range_lo", 0.0));
  hi_ = static_cast<float>(ctx_.config.number_or("range_hi", 1.0));
}

Status HistogramBackend::stage(StagedBlock block) {
  // Validate the block up front -- it must parse and carry the configured
  // field as f32 values -- so a misconfigured pipeline fails the stage RPC,
  // not a later execute. The bytes just passed the pull-time CRC, so this
  // walk reads known-good data. Nothing is binned here: execute() bins each
  // stored block once, behind a fresh CRC check, so bytes that rot in
  // staging memory never skew the counts. A block for an inactive iteration
  // is refused by Backend::stage unparsed.
  if (staged_.is_open(block.iteration)) {
    auto values = field_bytes(block.data, field_);
    if (!values.has_value()) return values.status();
  }
  return Backend::stage(std::move(block));
}

Expected<std::span<const std::byte>> HistogramBackend::field_bytes(
    std::span<const std::byte> block, const std::string& field) {
  std::optional<vis::ArrayView> arr;
  try {
    arr = vis::find_serialized_array(block, field);
  } catch (const std::exception& e) {
    return Status::InvalidArgument(std::string("histogram: bad dataset: ") +
                                   e.what());
  }
  if (!arr.has_value())
    return Status::NotFound("histogram: field '" + field +
                            "' not in staged block");
  if (arr->type != vis::DataType::f32)
    return Status::InvalidArgument("histogram: bad dataset: DataArray '" +
                                   field + "': type mismatch");
  return arr->bytes;
}

namespace {

using common::simd::F32x4;
using common::simd::I32x4;

// Per lane: `mask` (all ones or all zeros, as a comparison yields) ? a : b.
F32x4 select(I32x4 mask, F32x4 a, F32x4 b) {
  return reinterpret_cast<F32x4>((mask & reinterpret_cast<I32x4>(a)) |
                                 (~mask & reinterpret_cast<I32x4>(b)));
}

// The earliest zero among the f32 values in `values`, which holds one: among
// equal extrema the earliest value wins, and only zeros compare equal with
// differing bits.
double first_zero(std::span<const std::byte> values) {
  for (std::size_t i = 0;; i += sizeof(float)) {
    float v;
    std::memcpy(&v, values.data() + i, sizeof(v));
    if (v == 0.0f) return v;
  }
}

}  // namespace

void HistogramBackend::accumulate(std::span<const std::byte> f32_values,
                                  float lo, float hi, std::uint32_t bins,
                                  Local& local) {
  const std::byte* const values = f32_values.data();
  const std::size_t count = f32_values.size() / sizeof(float);
  const float width = (hi - lo) / static_cast<float>(bins);
  const float top = static_cast<float>(bins - 1);
  // All ones unless every value belongs in bin 0.
  const I32x4 binned = I32x4{} - (width <= 0 ? 0 : 1);
  const float inf = std::numeric_limits<float>::infinity();
  // Each lane counts into its own sub-histogram, so runs of one bin do not
  // serialize on a single counter.
  std::vector<std::uint64_t> lanes(std::size_t{4} * bins, 0);
  std::uint64_t* const lane[4] = {lanes.data(), lanes.data() + bins,
                                  lanes.data() + 2 * std::size_t{bins},
                                  lanes.data() + 3 * std::size_t{bins}};
  F32x4 mn = F32x4{} + inf;
  F32x4 mx = F32x4{} - inf;
  // The bin of each lane: the sequential rule's float division, with the
  // quotient clamped into [0, top] before the integer conversion (NaN, only
  // possible once the range overflows a float, goes to the top).
  auto bin_of = [&](F32x4 v) {
    mn = select(v < mn, v, mn);
    mx = select(mx < v, v, mx);
    F32x4 q = (v - lo) / width;
    q = select(q < top, q, F32x4{} + top);
    q = select(0.0f < q, q, F32x4{});
    q = select(v >= hi, F32x4{} + top, q);
    return __builtin_convertvector(q, I32x4) & binned & (v >= lo);
  };
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    F32x4 v;
    std::memcpy(&v, values + i * sizeof(float), sizeof(v));
    const I32x4 bin = bin_of(v);
    ++lane[0][bin[0]];
    ++lane[1][bin[1]];
    ++lane[2][bin[2]];
    ++lane[3][bin[3]];
  }
  if (i < count) {
    // NaN padding: it never becomes an extremum and is not counted.
    F32x4 v = F32x4{} + std::numeric_limits<float>::quiet_NaN();
    std::memcpy(&v, values + i * sizeof(float), (count - i) * sizeof(float));
    const I32x4 bin = bin_of(v);
    for (std::size_t l = 0; l < count - i; ++l) ++lane[l][bin[l]];
  }

  for (std::uint32_t b = 0; b < bins; ++b) {
    local.counts[b] += lane[0][b] + lane[1][b] + lane[2][b] + lane[3][b];
  }
  local.values += count;
  // The extrema replace the carried-in ones only when strictly beyond them
  // (std::min / std::max keep the first of equals).
  float lo_seen = mn[0], hi_seen = mx[0];
  for (std::size_t l = 1; l < 4; ++l) {
    lo_seen = std::min(lo_seen, mn[l]);
    hi_seen = std::max(hi_seen, mx[l]);
  }
  if (lo_seen < local.min_seen)
    local.min_seen = lo_seen != 0 ? lo_seen : first_zero(f32_values);
  if (local.max_seen < hi_seen)
    local.max_seen = hi_seen != 0 ? hi_seen : first_zero(f32_values);
}

Status HistogramBackend::execute(std::uint64_t iteration) {
  if (!staged_.is_open(iteration))
    return Status::FailedPrecondition("histogram: iteration not active");
  if (comm_ == nullptr)
    return Status::FailedPrecondition("histogram: no communicator");

  // Rebuild the local accumulation from the stored blocks every call,
  // verify-then-accumulate per block; a mismatch aborts before any
  // collective, and since nothing is accumulated incrementally at stage
  // time, a recovery-driven re-execute can never double-count a block.
  Local local;
  local.counts.assign(bins_, 0);
  Status s = staged_.for_each_verified(
      ctx_.proc->sim(), iteration,
      [&](const StagedBlockStore::Key&, std::span<const std::byte> data) {
        // Binned where the bytes were pulled to, no copy.
        auto values = field_bytes(data, field_);
        if (!values.has_value()) return values.status();
        accumulate(*values, lo_, hi_, bins_, local);
        return Status::Ok();
      });
  if (!s.ok()) return s;

  Result result;
  result.iteration = iteration;
  result.counts.assign(bins_, 0);

  // Global histogram + count: element-wise sums.
  std::vector<std::uint64_t> send = local.counts;
  send.push_back(local.values);
  std::vector<std::uint64_t> recv(send.size());
  s = comm_->allreduce(
      {reinterpret_cast<const std::byte*>(send.data()),
       send.size() * sizeof(std::uint64_t)},
      {reinterpret_cast<std::byte*>(recv.data()),
       recv.size() * sizeof(std::uint64_t)},
      send.size(), mona::op_sum<std::uint64_t>());
  if (!s.ok()) return s;
  std::copy_n(recv.begin(), bins_, result.counts.begin());
  result.total_values = recv.back();

  // Global extrema: allreduce min and max (negated-min trick for max).
  double mm[2] = {local.min_seen, -local.max_seen};
  double gmm[2] = {0, 0};
  s = comm_->allreduce({reinterpret_cast<const std::byte*>(mm), sizeof(mm)},
                       {reinterpret_cast<std::byte*>(gmm), sizeof(gmm)}, 2,
                       mona::op_min<double>());
  if (!s.ok()) return s;
  result.min_seen = gmm[0];
  result.max_seen = -gmm[1];

  results_.push_back(std::move(result));
  return Status::Ok();
}

json::Value HistogramBackend::stats() const {
  json::Object out;
  out.emplace("pipeline", std::string("histogram"));
  out.emplace("field", field_);
  out.emplace("bins", static_cast<double>(bins_));
  json::Array iterations;
  for (const Result& r : results_) {
    json::Object it;
    it.emplace("iteration", static_cast<double>(r.iteration));
    it.emplace("values", static_cast<double>(r.total_values));
    it.emplace("min", r.min_seen);
    it.emplace("max", r.max_seen);
    json::Array counts;
    for (std::uint64_t c : r.counts)
      counts.push_back(static_cast<double>(c));
    it.emplace("counts", std::move(counts));
    iterations.push_back(std::move(it));
  }
  out.emplace("iterations", std::move(iterations));
  return out;
}

std::vector<std::byte> HistogramBackend::export_state() {
  return pack(results_);
}

Status HistogramBackend::import_state(std::span<const std::byte> state) {
  std::vector<Result> other;
  try {
    unpack(state, other);
  } catch (const std::exception& e) {
    return Status::InvalidArgument(std::string("histogram: bad state: ") +
                                   e.what());
  }
  // Merge: results for the same iteration are identical on every member
  // (allreduce), so keep whichever arrives; new iterations are appended.
  for (auto& r : other) {
    const bool known =
        std::any_of(results_.begin(), results_.end(),
                    [&](const Result& mine) { return mine.iteration == r.iteration; });
    if (!known) results_.push_back(std::move(r));
  }
  std::sort(results_.begin(), results_.end(),
            [](const Result& a, const Result& b) {
              return a.iteration < b.iteration;
            });
  return Status::Ok();
}

}  // namespace colza
