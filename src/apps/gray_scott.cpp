#include "apps/gray_scott.hpp"

#include "apps/stencil_simd.hpp"
#include "des/simulation.hpp"

#include <algorithm>
#include <stdexcept>

namespace colza::apps {

GrayScott::GrayScott(Params params, int rank, int nranks)
    : params_(params), rank_(rank), nranks_(nranks) {
  if (nranks <= 0 || rank < 0 || rank >= nranks)
    throw std::invalid_argument("GrayScott: bad rank/nranks");
  if (params_.n < 4) throw std::invalid_argument("GrayScott: n too small");
  // Distribute n planes over nranks slabs (first slabs get the remainder).
  const std::uint32_t base = params_.n / static_cast<std::uint32_t>(nranks);
  const std::uint32_t rem = params_.n % static_cast<std::uint32_t>(nranks);
  nz_ = base + (static_cast<std::uint32_t>(rank) < rem ? 1 : 0);
  z_offset_ = static_cast<std::uint32_t>(rank) * base +
              std::min(static_cast<std::uint32_t>(rank), rem);
  if (nz_ == 0) throw std::invalid_argument("GrayScott: more ranks than planes");

  const std::size_t total =
      static_cast<std::size_t>(params_.n) * params_.n * (nz_ + 2);
  u_.assign(total, 1.0);
  v_.assign(total, 0.0);
  u2_.assign(total, 0.0);
  v2_.assign(total, 0.0);

  // Initial condition: a seeded cube at the domain center plus noise
  // ("the seed of the simulation at the center... surrounded by random
  // noise", paper Fig 3a).
  Rng rng(params_.seed + static_cast<std::uint64_t>(rank));
  const std::uint32_t n = params_.n;
  const std::uint32_t c0 = n / 2 - n / 8, c1 = n / 2 + n / 8;
  for (std::uint32_t k = 0; k < nz_; ++k) {
    const std::uint32_t gz = z_offset_ + k;
    for (std::uint32_t j = 0; j < n; ++j) {
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::size_t p = idx(i, j, k + 1);
        if (i >= c0 && i < c1 && j >= c0 && j < c1 && gz >= c0 && gz < c1) {
          u_[p] = 0.25;
          v_[p] = 0.5;
        } else if (rng.uniform() < params_.noise) {
          v_[p] = rng.uniform() * 0.4;
        }
      }
    }
  }
}

Status GrayScott::exchange_halos(mona::Communicator* comm) {
  const std::size_t plane =
      static_cast<std::size_t>(params_.n) * params_.n;
  auto plane_span = [&](std::vector<double>& f, std::uint32_t k) {
    return std::span<std::byte>(reinterpret_cast<std::byte*>(f.data() + k * plane),
                                plane * sizeof(double));
  };
  if (comm == nullptr || nranks_ == 1) {
    // Periodic locally: copy owned boundary planes into the ghosts.
    for (auto* f : {&u_, &v_}) {
      std::copy_n(f->data() + nz_ * plane, plane, f->data());  // bottom ghost
      std::copy_n(f->data() + 1 * plane, plane,
                  f->data() + (nz_ + 1) * plane);  // top ghost
    }
    return Status::Ok();
  }
  const int up = (rank_ + 1) % nranks_;
  const int down = (rank_ - 1 + nranks_) % nranks_;
  for (auto* f : {&u_, &v_}) {
    // Send my top owned plane up, receive my bottom ghost from below.
    Status s = comm->send(plane_span(*f, nz_), up, 100);
    if (!s.ok()) return s;
    s = comm->send(plane_span(*f, 1), down, 101);
    if (!s.ok()) return s;
    s = comm->recv(plane_span(*f, 0), down, 100);
    if (!s.ok()) return s;
    s = comm->recv(plane_span(*f, nz_ + 1), up, 101);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void GrayScott::apply_stencil() {
  const std::uint32_t n = params_.n;
  const double du = params_.du, dv = params_.dv, f = params_.feed,
               k = params_.kill, dt = params_.dt;
  const double* u = u_.data();
  const double* v = v_.data();
  double* u2 = u2_.data();
  double* v2 = v2_.data();
  for (std::uint32_t kz = 1; kz <= nz_; ++kz) {
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t jm = (j + n - 1) % n, jp = (j + 1) % n;
      // Interior columns i in [1, n-2]: the x neighbours are p +/- 1 and the
      // y/z neighbour rows are contiguous too (only their bases differ), so
      // the run goes through the shared row kernel -- AVX2 when available,
      // bit-identical to the scalar expressions below either way.
      if (n > 2) {
        const std::size_t p = idx(1, j, kz);
        const std::size_t ym = idx(1, jm, kz), yp = idx(1, jp, kz);
        const std::size_t zm = idx(1, j, kz - 1), zp = idx(1, j, kz + 1);
        const detail::GsRow row{u + p,  u + p - 1, u + p + 1, u + ym,
                                u + yp, u + zm,    u + zp,
                                v + p,  v + p - 1, v + p + 1, v + ym,
                                v + yp, v + zm,    v + zp,
                                u2 + p, v2 + p};
        detail::gs_row(row, n - 2, du, dv, f, k, dt);
      }
      // Wrap columns (i = 0 and i = n-1) keep the original periodic
      // expressions. Writes are independent per cell and read only u_/v_,
      // so doing them after the interior run changes nothing.
      const std::uint32_t wrap_cols[2] = {0, n - 1};
      const int nwrap = n > 1 ? 2 : 1;
      for (int w = 0; w < nwrap; ++w) {
        const std::uint32_t i = wrap_cols[w];
        const std::uint32_t im = (i + n - 1) % n, ip = (i + 1) % n;
        const std::size_t p = idx(i, j, kz);
        const double lap_u = u_[idx(im, j, kz)] + u_[idx(ip, j, kz)] +
                             u_[idx(i, jm, kz)] + u_[idx(i, jp, kz)] +
                             u_[idx(i, j, kz - 1)] + u_[idx(i, j, kz + 1)] -
                             6.0 * u_[p];
        const double lap_v = v_[idx(im, j, kz)] + v_[idx(ip, j, kz)] +
                             v_[idx(i, jm, kz)] + v_[idx(i, jp, kz)] +
                             v_[idx(i, j, kz - 1)] + v_[idx(i, j, kz + 1)] -
                             6.0 * v_[p];
        const double uvv = u_[p] * v_[p] * v_[p];
        u2_[p] = u_[p] + dt * (du * lap_u - uvv + f * (1.0 - u_[p]));
        v2_[p] = v_[p] + dt * (dv * lap_v + uvv - (f + k) * v_[p]);
      }
    }
  }
  u_.swap(u2_);
  v_.swap(v2_);
}

Status GrayScott::step(mona::Communicator* comm) {
  auto* sim = des::Simulation::current();
  for (int s = 0; s < params_.steps_per_iteration; ++s) {
    Status st = exchange_halos(comm);
    if (!st.ok()) return st;
    // Charge the stencil's real compute cost to the owning rank's virtual
    // clock (communication above advances the clock through the fabric).
    // Without a running simulation (plain unit tests) it just runs.
    if (sim == nullptr) {
      apply_stencil();
    } else {
      sim->charge_scoped([&] { apply_stencil(); });
    }
  }
  return Status::Ok();
}

vis::UniformGrid GrayScott::block() const {
  vis::UniformGrid g;
  g.dims = {params_.n, params_.n, nz_};
  g.origin = {0, 0, static_cast<float>(z_offset_)};
  const std::size_t plane =
      static_cast<std::size_t>(params_.n) * params_.n;
  std::vector<float> uf(plane * nz_), vf(plane * nz_);
  for (std::size_t p = 0; p < plane * nz_; ++p) {
    uf[p] = static_cast<float>(u_[p + plane]);  // skip the bottom ghost layer
    vf[p] = static_cast<float>(v_[p + plane]);
  }
  g.point_data.add(vis::DataArray::make<float>("u", uf));
  g.point_data.add(vis::DataArray::make<float>("v", vf));
  return g;
}

}  // namespace colza::apps
