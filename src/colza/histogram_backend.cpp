#include "colza/histogram_backend.hpp"

#include <algorithm>

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
  // field -- so a misconfigured pipeline fails the stage RPC, not a later
  // execute. The bytes just passed the pull-time CRC, so this parse reads
  // known-good data; accumulation still waits for execute(), behind a fresh
  // CRC check, so bytes that rot in staging memory never skew the counts.
  // A block for an inactive iteration is refused by Backend::stage unparsed.
  if (staged_.is_open(block.iteration)) {
    try {
      Local probe;
      probe.counts.assign(bins_, 0);
      Status s = accumulate(vis::deserialize_dataset(block.data), probe);
      if (!s.ok()) return s;
    } catch (const std::exception& e) {
      return Status::InvalidArgument(std::string("histogram: bad dataset: ") +
                                     e.what());
    }
  }
  return Backend::stage(std::move(block));
}

Status HistogramBackend::accumulate(const vis::DataSet& ds,
                                    Local& local) const {
  // Find the field in point data, falling back to cell data.
  const vis::DataArray* arr = nullptr;
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, vis::UniformGrid>) {
          arr = v.point_data.find(field_);
        } else if constexpr (std::is_same_v<T, vis::UnstructuredGrid>) {
          arr = v.point_data.find(field_);
          if (arr == nullptr) arr = v.cell_data.find(field_);
        }
      },
      ds);
  if (arr == nullptr)
    return Status::NotFound("histogram: field '" + field_ +
                            "' not in staged block");

  const float width = (hi_ - lo_) / static_cast<float>(bins_);
  for (float v : arr->as<float>()) {
    local.min_seen = std::min<double>(local.min_seen, v);
    local.max_seen = std::max<double>(local.max_seen, v);
    ++local.values;
    // Range tests stay in float so the integer cast only ever sees a value
    // in [0, bins_]: below range (and NaN, which fails every comparison)
    // counts in bin 0, at or above range_hi in the top bin.
    if (!(v >= lo_) || width <= 0) {
      ++local.counts[0];
    } else if (v >= hi_) {
      ++local.counts[bins_ - 1];
    } else {
      const auto bin = std::min<std::uint32_t>(
          bins_ - 1, static_cast<std::uint32_t>((v - lo_) / width));
      ++local.counts[bin];
    }
  }
  return Status::Ok();
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
        try {
          return accumulate(vis::deserialize_dataset(data), local);
        } catch (const std::exception& e) {
          return Status::InvalidArgument(
              std::string("histogram: bad dataset: ") + e.what());
        }
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
