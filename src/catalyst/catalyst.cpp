#include "catalyst/catalyst.hpp"

#include <algorithm>
#include <limits>

#include "des/simulation.hpp"
#include "vis/filters.hpp"

namespace colza::catalyst {

namespace {

icet::Strategy strategy_from(const std::string& s, icet::Strategy dflt) {
  if (s == "tree") return icet::Strategy::tree;
  if (s == "binary-swap" || s == "bswap") return icet::Strategy::binary_swap;
  if (s == "direct") return icet::Strategy::direct;
  return dflt;
}

render::ColorMapKind colormap_from(const std::string& s,
                                   render::ColorMapKind dflt) {
  if (s == "viridis") return render::ColorMapKind::viridis;
  if (s == "cool-warm" || s == "coolwarm") return render::ColorMapKind::cool_warm;
  if (s == "grayscale" || s == "gray") return render::ColorMapKind::grayscale;
  return dflt;
}

}  // namespace

PipelineScript PipelineScript::from_json(const json::Value& cfg) {
  PipelineScript s;
  if (!cfg.is_object()) return s;
  s.name = cfg.string_or("name", s.name);
  const std::string mode = cfg.string_or("mode", "isosurface");
  if (mode == "volume") {
    s.mode = RenderMode::volume;
  } else if (mode == "slice") {
    s.mode = RenderMode::slice;
  } else {
    s.mode = RenderMode::isosurface;
  }
  s.field = cfg.string_or("field", s.field);
  s.color_field = cfg.string_or("color_field", s.color_field);
  if (const auto* iso = cfg.find("iso_values"); iso != nullptr && iso->is_array()) {
    s.iso_values.clear();
    for (const auto& v : iso->as_array()) {
      if (v.is_number()) s.iso_values.push_back(static_cast<float>(v.as_number()));
    }
  }
  s.clip = cfg.bool_or("clip", s.clip);
  if (const auto* o = cfg.find("clip_origin"); o != nullptr && o->is_array() &&
                                               o->as_array().size() == 3) {
    s.clip_origin = {static_cast<float>(o->as_array()[0].as_number()),
                     static_cast<float>(o->as_array()[1].as_number()),
                     static_cast<float>(o->as_array()[2].as_number())};
  }
  if (const auto* nrm = cfg.find("clip_normal"); nrm != nullptr && nrm->is_array() &&
                                                 nrm->as_array().size() == 3) {
    s.clip_normal = {static_cast<float>(nrm->as_array()[0].as_number()),
                     static_cast<float>(nrm->as_array()[1].as_number()),
                     static_cast<float>(nrm->as_array()[2].as_number())};
  }
  if (const auto* o = cfg.find("slice_origin"); o != nullptr && o->is_array() &&
                                                o->as_array().size() == 3) {
    s.slice_origin = {static_cast<float>(o->as_array()[0].as_number()),
                      static_cast<float>(o->as_array()[1].as_number()),
                      static_cast<float>(o->as_array()[2].as_number())};
  }
  if (const auto* nrm = cfg.find("slice_normal");
      nrm != nullptr && nrm->is_array() && nrm->as_array().size() == 3) {
    s.slice_normal = {static_cast<float>(nrm->as_array()[0].as_number()),
                      static_cast<float>(nrm->as_array()[1].as_number()),
                      static_cast<float>(nrm->as_array()[2].as_number())};
  }
  if (const auto* d = cfg.find("resample_dims"); d != nullptr && d->is_array() &&
                                                 d->as_array().size() == 3) {
    for (int i = 0; i < 3; ++i) {
      s.resample_dims[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(
          d->as_array()[static_cast<std::size_t>(i)].as_number());
    }
  }
  s.opacity_scale = static_cast<float>(cfg.number_or("opacity", s.opacity_scale));
  s.image_width = static_cast<int>(cfg.number_or("width", s.image_width));
  s.image_height = static_cast<int>(cfg.number_or("height", s.image_height));
  s.strategy = strategy_from(cfg.string_or("strategy", ""), s.strategy);
  s.colormap = colormap_from(cfg.string_or("colormap", ""), s.colormap);
  s.range_lo = static_cast<float>(cfg.number_or("range_lo", s.range_lo));
  s.range_hi = static_cast<float>(cfg.number_or("range_hi", s.range_hi));
  s.save_path = cfg.string_or("save_path", s.save_path);
  return s;
}

PipelineScript PipelineScript::gray_scott() {
  PipelineScript s;
  s.name = "gray-scott";
  s.mode = RenderMode::isosurface;
  s.field = "v";
  // Multiple isosurface levels combined with clipping to look inside the
  // domain (paper Fig 3a).
  s.iso_values = {0.15f, 0.3f, 0.45f};
  s.clip = true;
  s.clip_normal = {0, 0, 1};
  s.colormap = render::ColorMapKind::cool_warm;
  s.range_lo = 0.0f;
  s.range_hi = 0.5f;
  return s;
}

PipelineScript PipelineScript::mandelbulb() {
  PipelineScript s;
  s.name = "mandelbulb";
  s.mode = RenderMode::isosurface;
  s.field = "iterations";
  s.iso_values = {6.0f};  // single level of isosurface (paper S III-A)
  s.colormap = render::ColorMapKind::viridis;
  s.range_lo = 0.0f;
  s.range_hi = 30.0f;
  s.color_field = "iterations";
  return s;
}

PipelineScript PipelineScript::dwi() {
  PipelineScript s;
  s.name = "deep-water-impact";
  s.mode = RenderMode::volume;  // block merge + volume rendering, colored by
  s.field = "v02";              // the velocity field (paper S III-A)
  s.colormap = render::ColorMapKind::cool_warm;
  s.range_lo = 0.0f;
  s.range_hi = 1.0f;
  s.opacity_scale = 0.15f;
  return s;
}

// ---------------------------------------------------------------------------

Expected<ExecutionStats> execute(const PipelineScript& script,
                                 std::span<const vis::DataSet> blocks,
                                 mona::Communicator& comm,
                                 render::FrameBuffer& fb,
                                 std::uint64_t iteration) {
  des::Simulation& sim = comm.instance().sim();
  ExecutionStats stats;
  stats.blocks = blocks.size();
  for (const auto& b : blocks) stats.input_bytes += vis::dataset_byte_size(b);

  // 1. Agree on global bounds so every rank frames the same camera.
  vis::Aabb local = sim.charge_scoped([&] {
    vis::Aabb bounds;
    for (const auto& b : blocks) {
      const vis::Aabb bb = vis::dataset_bounds(b);
      if (bb.valid()) bounds.extend(bb);
    }
    return bounds;
  });
  std::array<float, 6> mins{local.lo.x, local.lo.y, local.lo.z,
                            -local.hi.x, -local.hi.y, -local.hi.z};
  std::array<float, 6> gmins{};
  {
    std::span<const std::byte> in{
        reinterpret_cast<const std::byte*>(mins.data()), sizeof(mins)};
    std::span<std::byte> out{reinterpret_cast<std::byte*>(gmins.data()),
                             sizeof(gmins)};
    Status s = comm.allreduce(in, out, 6, mona::op_min<float>());
    if (!s.ok()) return s;
  }
  vis::Aabb global;
  global.lo = {gmins[0], gmins[1], gmins[2]};
  global.hi = {-gmins[3], -gmins[4], -gmins[5]};
  if (!global.valid()) {
    // Nobody has data; produce an empty image.
    global.lo = {0, 0, 0};
    global.hi = {1, 1, 1};
  }
  const render::Camera camera = render::Camera::framing(global);

  // 2. Local filtering + rendering.
  fb.resize(script.image_width, script.image_height);
  const render::ColorMap cmap{script.colormap, script.range_lo,
                              script.range_hi};
  icet::CompositeOp op = icet::CompositeOp::closest_depth;

  if (script.mode == RenderMode::isosurface) {
    sim.charge_scoped([&] {
      for (const auto& block : blocks) {
        const auto* grid = std::get_if<vis::UniformGrid>(&block);
        if (grid == nullptr) continue;  // isosurface needs uniform grids
        stats.cells_processed += grid->cell_count();
        for (float iso : script.iso_values) {
          vis::TriangleMesh mesh =
              vis::isosurface(*grid, script.field, iso, script.color_field);
          if (script.clip) {
            const vis::Vec3 origin =
                script.clip_origin == vis::Vec3{0, 0, 0} ? global.center()
                                                         : script.clip_origin;
            mesh = vis::clip_by_plane(mesh, origin, script.clip_normal);
          }
          stats.triangles_rendered += mesh.triangle_count();
          render::rasterize(fb, mesh, camera, cmap);
        }
      }
    });
  } else if (script.mode == RenderMode::slice) {
    sim.charge_scoped([&] {
      const vis::Vec3 origin = script.slice_origin == vis::Vec3{0, 0, 0}
                                   ? global.center()
                                   : script.slice_origin;
      for (const auto& block : blocks) {
        const auto* grid = std::get_if<vis::UniformGrid>(&block);
        if (grid == nullptr) continue;
        stats.cells_processed += grid->cell_count();
        vis::TriangleMesh mesh =
            vis::slice(*grid, script.field, origin, script.slice_normal);
        stats.triangles_rendered += mesh.triangle_count();
        render::rasterize(fb, mesh, camera, cmap);
      }
    });
  } else {
    op = icet::CompositeOp::over;
    sim.charge_scoped([&] {
      // Merge this rank's unstructured blocks, resample, raycast.
      std::vector<vis::UnstructuredGrid> ugrids;
      for (const auto& block : blocks) {
        if (const auto* u = std::get_if<vis::UnstructuredGrid>(&block)) {
          ugrids.push_back(*u);
          stats.cells_processed += u->cell_count();
        } else if (const auto* g = std::get_if<vis::UniformGrid>(&block)) {
          stats.cells_processed += g->cell_count();
          render::TransferFunction tf{cmap, script.opacity_scale};
          render::raycast(fb, *g, script.field, camera, tf);
        }
      }
      if (!ugrids.empty()) {
        vis::UnstructuredGrid merged = vis::merge_grids(ugrids);
        vis::Aabb rb = merged.bounds();
        if (rb.valid() && merged.cell_count() > 0) {
          vis::UniformGrid sampled = vis::resample_to_grid(
              merged, script.field, script.resample_dims, rb);
          render::TransferFunction tf{cmap, script.opacity_scale};
          render::raycast(fb, sampled, script.field, camera, tf);
        }
      }
    });
  }

  // 3. Parallel image compositing (the one communication-heavy step).
  auto r = icet::composite(fb, comm, script.strategy, op, /*root=*/0);
  if (!r.has_value()) return r.status();
  stats.composite_bytes = r->bytes_sent + r->bytes_received;

  // 4. Optionally persist the image at the root.
  if (comm.rank() == 0 && !script.save_path.empty()) {
    std::string path = script.save_path;
    if (auto pos = path.find("{}"); pos != std::string::npos) {
      path.replace(pos, 2, std::to_string(iteration));
    }
    sim.charge_scoped([&] { fb.write_ppm(path); });
    stats.wrote_image = true;
  }
  return stats;
}

}  // namespace colza::catalyst
