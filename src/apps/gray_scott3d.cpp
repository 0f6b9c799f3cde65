// GrayScott3D: full three-dimensional Cartesian decomposition with six-face
// halo exchange (the decomposition the paper describes for this app).
#include <algorithm>
#include <stdexcept>

#include "apps/gray_scott.hpp"
#include "apps/stencil_simd.hpp"
#include "des/simulation.hpp"

namespace colza::apps {

std::array<int, 3> cartesian_dims(int nranks) {
  // Greedy balanced factorization: repeatedly peel the largest prime factor
  // onto the currently smallest dimension.
  std::array<int, 3> dims{1, 1, 1};
  int n = nranks;
  for (int f = 2; f * f <= n;) {
    if (n % f == 0) {
      *std::min_element(dims.begin(), dims.end()) *= f;
      n /= f;
    } else {
      ++f;
    }
  }
  if (n > 1) *std::min_element(dims.begin(), dims.end()) *= n;
  std::sort(dims.begin(), dims.end());
  return dims;  // dims[0] <= dims[1] <= dims[2]
}

namespace {

// Extent and offset of coordinate `c` of `parts` along an axis of `n` points.
std::pair<std::uint32_t, std::uint32_t> split(std::uint32_t n, int parts,
                                              int c) {
  const std::uint32_t base = n / static_cast<std::uint32_t>(parts);
  const std::uint32_t rem = n % static_cast<std::uint32_t>(parts);
  const std::uint32_t extent =
      base + (static_cast<std::uint32_t>(c) < rem ? 1 : 0);
  const std::uint32_t offset = static_cast<std::uint32_t>(c) * base +
                               std::min(static_cast<std::uint32_t>(c), rem);
  return {extent, offset};
}

}  // namespace

GrayScott3D::GrayScott3D(Params params, int rank, int nranks)
    : params_(params), rank_(rank), nranks_(nranks) {
  if (nranks <= 0 || rank < 0 || rank >= nranks)
    throw std::invalid_argument("GrayScott3D: bad rank/nranks");
  if (params_.n < 4) throw std::invalid_argument("GrayScott3D: n too small");
  dims_ = cartesian_dims(nranks);
  // Row-major coordinates: rank = (cz * dims[1] + cy) * dims[0] + cx.
  coords_[0] = rank % dims_[0];
  coords_[1] = (rank / dims_[0]) % dims_[1];
  coords_[2] = rank / (dims_[0] * dims_[1]);
  std::tie(lx_, ox_) = split(params_.n, dims_[0], coords_[0]);
  std::tie(ly_, oy_) = split(params_.n, dims_[1], coords_[1]);
  std::tie(lz_, oz_) = split(params_.n, dims_[2], coords_[2]);
  if (lx_ == 0 || ly_ == 0 || lz_ == 0)
    throw std::invalid_argument("GrayScott3D: more ranks than grid columns");

  const std::size_t total = static_cast<std::size_t>(lx_ + 2) * (ly_ + 2) *
                            (lz_ + 2);
  u_.assign(total, 1.0);
  v_.assign(total, 0.0);
  u2_.assign(total, 0.0);
  v2_.assign(total, 0.0);

  Rng rng(params_.seed + static_cast<std::uint64_t>(rank) * 7919);
  const std::uint32_t n = params_.n;
  const std::uint32_t c0 = n / 2 - n / 8, c1 = n / 2 + n / 8;
  for (std::uint32_t k = 0; k < lz_; ++k) {
    const std::uint32_t gz = oz_ + k;
    for (std::uint32_t j = 0; j < ly_; ++j) {
      const std::uint32_t gy = oy_ + j;
      for (std::uint32_t i = 0; i < lx_; ++i) {
        const std::uint32_t gx = ox_ + i;
        const std::size_t p = idx(i + 1, j + 1, k + 1);
        if (gx >= c0 && gx < c1 && gy >= c0 && gy < c1 && gz >= c0 &&
            gz < c1) {
          u_[p] = 0.25;
          v_[p] = 0.5;
        } else if (rng.uniform() < params_.noise) {
          v_[p] = rng.uniform() * 0.4;
        }
      }
    }
  }
}

int GrayScott3D::rank_of(int cx, int cy, int cz) const noexcept {
  const auto wrap = [](int c, int d) { return (c + d) % d; };
  cx = wrap(cx, dims_[0]);
  cy = wrap(cy, dims_[1]);
  cz = wrap(cz, dims_[2]);
  return (cz * dims_[1] + cy) * dims_[0] + cx;
}

Status GrayScott3D::exchange_halos(mona::Communicator* comm) {
  struct Face {
    int axis;      // 0=x, 1=y, 2=z
    int dir;       // -1 or +1
    mona::Tag tag;
  };
  static constexpr Face kFaces[6] = {{0, -1, 110}, {0, +1, 111}, {1, -1, 112},
                                     {1, +1, 113}, {2, -1, 114}, {2, +1, 115}};
  const std::uint32_t ext[3] = {lx_, ly_, lz_};

  // Face gather/scatter walk only the face plane itself (strided rows for
  // an x face, contiguous rows otherwise) -- the element order matches the
  // naive whole-volume scan restricted to the plane, so payloads are
  // byte-identical to the original implementation.
  const std::size_t sy = lx_ + 2;                  // +1 in j
  const std::size_t sz = sy * (ly_ + 2);           // +1 in k
  auto pack_face = [&](const std::vector<double>& field, const Face& f,
                       std::vector<double>& buf) {
    const std::uint32_t a = f.axis;
    const std::uint32_t fixed = f.dir < 0 ? 1 : ext[a];  // owned layer
    const double* src = field.data();
    std::size_t w = 0;
    if (a == 0) {
      buf.resize(static_cast<std::size_t>(ly_) * lz_);
      for (std::uint32_t k = 1; k <= lz_; ++k) {
        const double* col = src + k * sz + sy + fixed;  // (fixed, 1, k)
        for (std::uint32_t j = 0; j < ly_; ++j) buf[w++] = col[j * sy];
      }
    } else if (a == 1) {
      buf.resize(static_cast<std::size_t>(lx_) * lz_);
      for (std::uint32_t k = 1; k <= lz_; ++k) {
        const double* row = src + k * sz + fixed * sy + 1;  // (1, fixed, k)
        std::copy_n(row, lx_, buf.data() + w);
        w += lx_;
      }
    } else {
      buf.resize(static_cast<std::size_t>(lx_) * ly_);
      for (std::uint32_t j = 1; j <= ly_; ++j) {
        const double* row = src + fixed * sz + j * sy + 1;  // (1, j, fixed)
        std::copy_n(row, lx_, buf.data() + w);
        w += lx_;
      }
    }
  };
  auto unpack_face = [&](std::vector<double>& field, const Face& f,
                         const std::vector<double>& buf) {
    const std::uint32_t a = f.axis;
    const std::uint32_t ghost = f.dir < 0 ? 0 : ext[a] + 1;
    double* dst = field.data();
    std::size_t cursor = 0;
    if (a == 0) {
      for (std::uint32_t k = 1; k <= lz_; ++k) {
        double* col = dst + k * sz + sy + ghost;
        for (std::uint32_t j = 0; j < ly_; ++j) col[j * sy] = buf[cursor++];
      }
    } else if (a == 1) {
      for (std::uint32_t k = 1; k <= lz_; ++k) {
        std::copy_n(buf.data() + cursor, lx_, dst + k * sz + ghost * sy + 1);
        cursor += lx_;
      }
    } else {
      for (std::uint32_t j = 1; j <= ly_; ++j) {
        std::copy_n(buf.data() + cursor, lx_, dst + ghost * sz + j * sy + 1);
        cursor += lx_;
      }
    }
  };

  if (comm == nullptr || nranks_ == 1) {
    // Periodic locally: copy the opposite owned layer into each ghost.
    std::vector<double> buf;
    for (auto* field : {&u_, &v_}) {
      for (const Face& f : kFaces) {
        // The ghost on side `dir` takes the owned layer of the OPPOSITE side.
        Face opposite{f.axis, -f.dir, f.tag};
        pack_face(*field, opposite, buf);
        unpack_face(*field, f, buf);
      }
    }
    return Status::Ok();
  }

  // Exchange, two phases to avoid send/recv interlock (sends are buffered):
  // first post every face's send, then drain every ghost's receive. My
  // ghost on side `dir` is filled by the neighbour at `dir`, who sends the
  // layer facing me -- its face (axis, -dir), tagged with that face's tag.
  std::vector<double> sendbuf, recvbuf;
  for (auto* field : {&u_, &v_}) {
    for (const Face& f : kFaces) {
      int nc[3] = {coords_[0], coords_[1], coords_[2]};
      nc[f.axis] += f.dir;
      const int neighbor = rank_of(nc[0], nc[1], nc[2]);
      pack_face(*field, f, sendbuf);
      if (neighbor == rank_) {
        // Periodic wrap onto myself along this axis: the face I "send"
        // toward `dir` arrives, as in a real exchange, in the receiver's
        // ghost on the opposite side -- my own ghost at -dir.
        Face ghost_side{f.axis, -f.dir, f.tag};
        unpack_face(*field, ghost_side, sendbuf);
        continue;
      }
      Status s = comm->send(
          {reinterpret_cast<const std::byte*>(sendbuf.data()),
           sendbuf.size() * sizeof(double)},
          neighbor, f.tag);
      if (!s.ok()) return s;
    }
    for (const Face& f : kFaces) {
      int nc[3] = {coords_[0], coords_[1], coords_[2]};
      nc[f.axis] += f.dir;
      const int neighbor = rank_of(nc[0], nc[1], nc[2]);
      if (neighbor == rank_) continue;  // handled in the send phase
      const Face& incoming = kFaces[static_cast<std::size_t>(
          f.axis * 2 + (f.dir < 0 ? 1 : 0))];
      const std::uint32_t ext3[3] = {lx_, ly_, lz_};
      std::size_t face_points = 1;
      for (int a = 0; a < 3; ++a) {
        if (a != f.axis) face_points *= ext3[a];
      }
      recvbuf.resize(face_points);
      Status s = comm->recv({reinterpret_cast<std::byte*>(recvbuf.data()),
                             recvbuf.size() * sizeof(double)},
                            neighbor, incoming.tag);
      if (!s.ok()) return s;
      Face ghost_side{f.axis, f.dir, f.tag};
      unpack_face(*field, ghost_side, recvbuf);
    }
  }
  return Status::Ok();
}

void GrayScott3D::apply_stencil() {
  const double du = params_.du, dv = params_.dv, f = params_.feed,
               k = params_.kill, dt = params_.dt;
  // The six neighbours of cell p sit at fixed strides (ghost layers on
  // every axis make this uniform), so each (kz, j) row is a contiguous run
  // handed to the shared row kernel -- AVX2 when available, scalar
  // otherwise, bit-identical either way (see apps/stencil_simd.hpp).
  const std::size_t sy = lx_ + 2;
  const std::size_t sz = sy * (ly_ + 2);
  const double* u = u_.data();
  const double* v = v_.data();
  double* u2 = u2_.data();
  double* v2 = v2_.data();
  for (std::uint32_t kz = 1; kz <= lz_; ++kz) {
    for (std::uint32_t j = 1; j <= ly_; ++j) {
      const std::size_t p = kz * sz + j * sy + 1;
      const detail::GsRow row{u + p,      u + p - 1,  u + p + 1, u + p - sy,
                              u + p + sy, u + p - sz, u + p + sz,
                              v + p,      v + p - 1,  v + p + 1, v + p - sy,
                              v + p + sy, v + p - sz, v + p + sz,
                              u2 + p,     v2 + p};
      detail::gs_row(row, lx_, du, dv, f, k, dt);
    }
  }
  u_.swap(u2_);
  v_.swap(v2_);
}

Status GrayScott3D::step(mona::Communicator* comm) {
  auto* sim = des::Simulation::current();
  for (int s = 0; s < params_.steps_per_iteration; ++s) {
    Status st = exchange_halos(comm);
    if (!st.ok()) return st;
    if (sim == nullptr) {
      apply_stencil();
    } else {
      sim->charge_scoped([&] { apply_stencil(); });
    }
  }
  return Status::Ok();
}

vis::UniformGrid GrayScott3D::block() const {
  vis::UniformGrid g;
  g.dims = {lx_, ly_, lz_};
  g.origin = {static_cast<float>(ox_), static_cast<float>(oy_),
              static_cast<float>(oz_)};
  std::vector<float> uf(static_cast<std::size_t>(lx_) * ly_ * lz_);
  std::vector<float> vf(uf.size());
  std::size_t out = 0;
  for (std::uint32_t k = 1; k <= lz_; ++k) {
    for (std::uint32_t j = 1; j <= ly_; ++j) {
      for (std::uint32_t i = 1; i <= lx_; ++i, ++out) {
        uf[out] = static_cast<float>(u_[idx(i, j, k)]);
        vf[out] = static_cast<float>(v_[idx(i, j, k)]);
      }
    }
  }
  g.point_data.add(vis::DataArray::make<float>("u", uf));
  g.point_data.add(vis::DataArray::make<float>("v", vf));
  return g;
}

}  // namespace colza::apps
