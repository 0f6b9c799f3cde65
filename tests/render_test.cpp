// Tests for the software renderer: framebuffers, color maps, cameras,
// rasterization, and volume raycasting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

#include "render/render.hpp"
#include "vis/filters.hpp"

namespace colza::render {
namespace {

using vis::Vec3;

vis::UniformGrid sphere_grid(std::uint32_t n, Vec3 center) {
  vis::UniformGrid g;
  g.dims = {n, n, n};
  std::vector<float> f(g.point_count());
  for (std::uint32_t k = 0; k < n; ++k)
    for (std::uint32_t j = 0; j < n; ++j)
      for (std::uint32_t i = 0; i < n; ++i)
        f[g.point_index(i, j, k)] = (g.point(i, j, k) - center).norm();
  g.point_data.add(vis::DataArray::make<float>("dist", f));
  return g;
}

int active_pixels(const FrameBuffer& fb) {
  int n = 0;
  for (std::size_t p = 0; p < fb.pixel_count(); ++p)
    n += fb.rgba[p * 4 + 3] > 0 ? 1 : 0;
  return n;
}

TEST(FrameBuffer, ResizeAndClear) {
  FrameBuffer fb(8, 4);
  EXPECT_EQ(fb.pixel_count(), 32u);
  EXPECT_EQ(fb.rgba.size(), 128u);
  fb.rgba[5] = 0.5f;
  fb.depth[3] = 0.2f;
  fb.clear();
  EXPECT_EQ(fb.rgba[5], 0.0f);
  EXPECT_EQ(fb.depth[3], 1.0f);
  EXPECT_THROW(FrameBuffer(0, 5), std::invalid_argument);
}

TEST(ColorMap, EndpointsAndClamping) {
  ColorMap cm{ColorMapKind::grayscale, 0.0f, 10.0f};
  EXPECT_EQ(cm.map(0.0f), (Vec3{0, 0, 0}));
  EXPECT_EQ(cm.map(10.0f), (Vec3{1, 1, 1}));
  EXPECT_EQ(cm.map(-5.0f), (Vec3{0, 0, 0}));
  EXPECT_EQ(cm.map(20.0f), (Vec3{1, 1, 1}));
}

TEST(ColorMap, CoolWarmDiverges) {
  ColorMap cm{ColorMapKind::cool_warm, 0.0f, 1.0f};
  const Vec3 lo = cm.map(0.0f);
  const Vec3 mid = cm.map(0.5f);
  const Vec3 hi = cm.map(1.0f);
  EXPECT_GT(lo.z, lo.x);  // blue end
  EXPECT_GT(hi.x, hi.z);  // red end
  EXPECT_GT(mid.x, 0.8f);  // near-white middle
}

TEST(ColorMap, ViridisMonotoneBrightness) {
  ColorMap cm{ColorMapKind::viridis, 0.0f, 1.0f};
  float prev = -1;
  for (int i = 0; i <= 10; ++i) {
    const Vec3 c = cm.map(static_cast<float>(i) / 10.0f);
    const float luma = 0.2f * c.x + 0.7f * c.y + 0.1f * c.z;
    EXPECT_GE(luma, prev - 0.02f);
    prev = luma;
  }
}

TEST(Camera, FramingContainsBounds) {
  vis::Aabb box;
  box.extend({0, 0, 0});
  box.extend({10, 10, 10});
  Camera cam = Camera::framing(box);
  EXPECT_GT((cam.eye - box.center()).norm(), 5.0f);
  EXPECT_EQ(cam.target, box.center());
  EXPECT_GT(cam.far_plane, cam.near_plane);
}

TEST(Rasterize, SingleTriangleCoversExpectedPixels) {
  FrameBuffer fb(64, 64);
  vis::TriangleMesh m;
  m.points = {{-1, -1, 0}, {1, -1, 0}, {0, 1, 0}};
  m.normals = {{0, 0, 1}, {0, 0, 1}, {0, 0, 1}};
  m.scalars = {0.5f, 0.5f, 0.5f};
  m.triangles = {0, 1, 2};
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  rasterize(fb, m, cam, ColorMap{ColorMapKind::grayscale, 0, 1});
  const int n = active_pixels(fb);
  EXPECT_GT(n, 200);          // triangle visibly covers the screen center
  EXPECT_LT(n, 64 * 64 / 2);  // but not the whole screen
}

TEST(Rasterize, DepthTestKeepsNearTriangle) {
  FrameBuffer fb(32, 32);
  vis::TriangleMesh far_tri, near_tri;
  for (auto* m : {&far_tri, &near_tri}) {
    m->normals = {{0, 0, 1}, {0, 0, 1}, {0, 0, 1}};
    m->triangles = {0, 1, 2};
  }
  far_tri.points = {{-2, -2, 0}, {2, -2, 0}, {0, 2, 0}};
  far_tri.scalars = {0.0f, 0.0f, 0.0f};  // dark
  near_tri.points = {{-2, -2, 2}, {2, -2, 2}, {0, 2, 2}};
  near_tri.scalars = {1.0f, 1.0f, 1.0f};  // bright
  Camera cam;
  cam.eye = {0, 0, 6};
  cam.target = {0, 0, 0};
  const ColorMap cm{ColorMapKind::grayscale, 0, 1};
  // Draw far first, then near: near must win; then the reverse order must
  // produce the identical image (z-buffer, not painter's algorithm).
  rasterize(fb, far_tri, cam, cm);
  rasterize(fb, near_tri, cam, cm);
  const auto hash1 = fb.content_hash();
  const std::size_t center =
      (16u * 32u + 16u) * 4u;
  EXPECT_GT(fb.rgba[center], 0.5f);  // bright (near) triangle visible
  fb.clear();
  rasterize(fb, near_tri, cam, cm);
  rasterize(fb, far_tri, cam, cm);
  EXPECT_EQ(fb.content_hash(), hash1);
}

TEST(Rasterize, BehindCameraCulled) {
  FrameBuffer fb(32, 32);
  vis::TriangleMesh m;
  m.points = {{-1, -1, 10}, {1, -1, 10}, {0, 1, 10}};  // behind the eye
  m.triangles = {0, 1, 2};
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  rasterize(fb, m, cam, ColorMap{});
  EXPECT_EQ(active_pixels(fb), 0);
}

TEST(Rasterize, IsosurfaceSphereLooksRound) {
  vis::UniformGrid g = sphere_grid(17, {8, 8, 8});
  vis::TriangleMesh m = vis::isosurface(g, "dist", 5.0f);
  FrameBuffer fb(64, 64);
  Camera cam = Camera::framing(m.bounds());
  rasterize(fb, m, cam, ColorMap{ColorMapKind::viridis, 0, 8});
  const int n = active_pixels(fb);
  EXPECT_GT(n, 300);
  // Depth buffer must vary across the sphere (it is curved).
  float dmin = 1, dmax = 0;
  for (std::size_t p = 0; p < fb.pixel_count(); ++p) {
    if (fb.rgba[p * 4 + 3] > 0) {
      dmin = std::min(dmin, fb.depth[p]);
      dmax = std::max(dmax, fb.depth[p]);
    }
  }
  EXPECT_GT(dmax - dmin, 0.01f);
}

// ------------------------------------------------- rasterizer, differential

// The rasterizer as it was before the 4-lane edge test, verbatim: a
// test-local oracle the shipped kernel must match bit for bit.
void rasterize_reference(FrameBuffer& fb, const vis::TriangleMesh& mesh,
                         const Camera& cam, const ColorMap& cmap) {
  struct ProjectedVertex {
    float x = 0, y = 0;
    float z = 0;
    float inv_w = 0;
    Vec3 normal;
    float scalar = 0;
    bool ok = false;
  };
  const Vec3 forward = (cam.target - cam.eye).normalized();
  const Vec3 right = forward.cross(cam.up).normalized();
  const Vec3 up = right.cross(forward);
  const float tan_half_fov =
      std::tan(cam.fov_deg * 0.5f * 3.14159265f / 180.0f);
  const float aspect =
      static_cast<float>(fb.width) / static_cast<float>(fb.height);
  const Vec3 light = Vec3{0.4f, 0.8f, 0.45f}.normalized();

  auto project = [&](std::size_t idx) {
    ProjectedVertex v;
    const Vec3 rel = mesh.points[idx] - cam.eye;
    const float zc = rel.dot(forward);
    if (zc <= cam.near_plane) return v;
    const float xc = rel.dot(right);
    const float yc = rel.dot(up);
    const float px = xc / (zc * tan_half_fov * aspect);
    const float py = yc / (zc * tan_half_fov);
    v.x = (px * 0.5f + 0.5f) * static_cast<float>(fb.width);
    v.y = (0.5f - py * 0.5f) * static_cast<float>(fb.height);
    v.z = std::clamp((zc - cam.near_plane) / (cam.far_plane - cam.near_plane),
                     0.0f, 1.0f);
    v.inv_w = 1.0f / zc;
    v.normal = idx < mesh.normals.size() ? mesh.normals[idx] : Vec3{0, 0, 1};
    v.scalar = idx < mesh.scalars.size() ? mesh.scalars[idx] : 0.0f;
    v.ok = true;
    return v;
  };

  for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
    const ProjectedVertex v0 = project(mesh.triangles[3 * t]);
    const ProjectedVertex v1 = project(mesh.triangles[3 * t + 1]);
    const ProjectedVertex v2 = project(mesh.triangles[3 * t + 2]);
    if (!v0.ok || !v1.ok || !v2.ok) continue;

    const float area =
        (v1.x - v0.x) * (v2.y - v0.y) - (v2.x - v0.x) * (v1.y - v0.y);
    if (std::abs(area) < 1e-9f) continue;
    const float inv_area = 1.0f / area;

    const int xmin = std::max(0, static_cast<int>(
                                     std::floor(std::min({v0.x, v1.x, v2.x}))));
    const int xmax = std::min(fb.width - 1,
                              static_cast<int>(std::ceil(std::max({v0.x, v1.x, v2.x}))));
    const int ymin = std::max(0, static_cast<int>(
                                     std::floor(std::min({v0.y, v1.y, v2.y}))));
    const int ymax = std::min(fb.height - 1,
                              static_cast<int>(std::ceil(std::max({v0.y, v1.y, v2.y}))));

    for (int y = ymin; y <= ymax; ++y) {
      for (int x = xmin; x <= xmax; ++x) {
        const float cx = static_cast<float>(x) + 0.5f;
        const float cy = static_cast<float>(y) + 0.5f;
        const float w0 = ((v1.x - cx) * (v2.y - cy) - (v2.x - cx) * (v1.y - cy)) * inv_area;
        const float w1 = ((v2.x - cx) * (v0.y - cy) - (v0.x - cx) * (v2.y - cy)) * inv_area;
        const float w2 = 1.0f - w0 - w1;
        if (w0 < 0 || w1 < 0 || w2 < 0) continue;
        const float z = w0 * v0.z + w1 * v1.z + w2 * v2.z;
        const std::size_t p = static_cast<std::size_t>(y) *
                                  static_cast<std::size_t>(fb.width) +
                              static_cast<std::size_t>(x);
        if (z >= fb.depth[p]) continue;
        const Vec3 n = (v0.normal * w0 + v1.normal * w1 + v2.normal * w2)
                           .normalized();
        const float scalar = w0 * v0.scalar + w1 * v1.scalar + w2 * v2.scalar;
        const Vec3 base = cmap.map(scalar);
        const float shade = 0.25f + 0.75f * std::abs(n.dot(light));
        fb.depth[p] = z;
        fb.rgba[p * 4 + 0] = base.x * shade;
        fb.rgba[p * 4 + 1] = base.y * shade;
        fb.rgba[p * 4 + 2] = base.z * shade;
        fb.rgba[p * 4 + 3] = 1.0f;
      }
    }
  }
}

// Random triangles placed in screen space for a camera on the +z axis
// looking at the origin: slivers, sub-pixel triangles, bounding boxes 1-9
// pixels wide, triangles partly off-screen, vertices behind the near plane
// and far off-screen, and NaN vertices that still leave a finite bounding
// box (a NaN in the second or third vertex, which the min/max skip).
vis::TriangleMesh random_screen_mesh(Rng& rng, const Camera& cam, int width,
                                     int height, int triangles) {
  const float tan_half_fov =
      std::tan(cam.fov_deg * 0.5f * 3.14159265f / 180.0f);
  const float aspect = static_cast<float>(width) / static_cast<float>(height);
  auto uniform = [&](double lo, double hi) {
    return static_cast<float>(rng.uniform(lo, hi));
  };
  // World point that projects to pixel (sx, sy) at view depth zc.
  auto unproject = [&](float sx, float sy, float zc) {
    const float px = 2.0f * sx / static_cast<float>(width) - 1.0f;
    const float py = 1.0f - 2.0f * sy / static_cast<float>(height);
    return Vec3{px * zc * tan_half_fov * aspect, py * zc * tan_half_fov,
                cam.eye.z - zc};
  };
  vis::TriangleMesh m;
  for (int t = 0; t < triangles; ++t) {
    const float x0 = uniform(-3.0, width + 3.0);
    const float y0 = uniform(-3.0, height + 3.0);
    const auto span = static_cast<float>(1 + rng.below(9));  // bbox 1-9 px
    std::array<float, 3> sx{x0, x0 + span * uniform(0.0, 1.0), x0 + span};
    std::array<float, 3> sy{y0, y0 + uniform(-4.0, 4.0),
                            y0 + uniform(-4.0, 4.0)};
    std::array<float, 3> zc{uniform(0.2, 30.0), uniform(0.2, 30.0),
                            uniform(0.2, 30.0)};
    switch (rng.below(8)) {
      case 0:  // sliver: third vertex almost on the first edge
        sy[2] = sy[0] + (sy[1] - sy[0]) * (sx[2] - sx[0]) /
                            std::max(sx[1] - sx[0], 1e-3f) +
                uniform(-1e-3, 1e-3);
        break;
      case 1: {  // sub-pixel
        const float size = uniform(0.05, 0.9);
        sx = {x0, x0 + size * uniform(0.0, 1.0), x0 + size};
        sy = {y0, y0 + size, y0 + size * uniform(-1.0, 1.0)};
        break;
      }
      case 2:  // one vertex at or behind the near plane
        zc[rng.below(3)] = rng.below(2) == 0 ? cam.near_plane : uniform(-2.0, 0.1);
        break;
      case 3: {  // one vertex far off-screen (stays inside int range)
        const std::size_t v = rng.below(3);
        sx[v] = uniform(-1e7, 1e7);
        sy[v] = uniform(-1e7, 1e7);
        break;
      }
      case 4:  // shared depth: exact ties in the depth test
        zc = {5.0f, 5.0f, 5.0f};
        break;
      default: break;
    }
    const auto base = static_cast<std::uint32_t>(m.points.size());
    for (std::size_t v = 0; v < 3; ++v) {
      m.points.push_back(unproject(sx[v], sy[v], zc[v]));
      m.normals.push_back(
          {uniform(-1.0, 1.0), uniform(-1.0, 1.0), uniform(-1.0, 1.0)});
      m.scalars.push_back(uniform(-0.2, 1.2));
    }
    if (rng.below(16) == 0) {
      const float nan = std::numeric_limits<float>::quiet_NaN();
      m.points[base + 1 + rng.below(2)] = {nan, nan, nan};
    }
    m.triangles.insert(m.triangles.end(), {base, base + 1, base + 2});
  }
  return m;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Rasterize, MatchesReferenceOnRandomMeshes) {
  Camera cam;
  cam.eye = {0, 0, 5};
  cam.target = {0, 0, 0};
  cam.near_plane = 0.1f;
  cam.far_plane = 40.0f;
  const ColorMap cmap{ColorMapKind::cool_warm, 0, 1};
  Rng rng(20240605);
  int covered = 0;
  for (int width : {5, 7}) {
    for (int mesh_id = 0; mesh_id < 64; ++mesh_id) {
      const int height = 3 + static_cast<int>(rng.below(6));
      const vis::TriangleMesh m =
          random_screen_mesh(rng, cam, width, height, 48);
      FrameBuffer got(width, height), want(width, height);
      rasterize(got, m, cam, cmap);
      rasterize_reference(want, m, cam, cmap);
      EXPECT_TRUE(same_bits(got.depth, want.depth))
          << "width " << width << " mesh " << mesh_id;
      EXPECT_TRUE(same_bits(got.rgba, want.rgba))
          << "width " << width << " mesh " << mesh_id;
      covered += active_pixels(want);
    }
  }
  EXPECT_GT(covered, 1000);  // the meshes do reach the screen
}

TEST(Rasterize, MatchesReferenceOnIsosurface) {
  const vis::UniformGrid g = sphere_grid(17, {8, 8, 8});
  const vis::TriangleMesh m = vis::isosurface(g, "dist", 5.0f);
  const Camera cam = Camera::framing(m.bounds());
  for (int width : {61, 64}) {
    FrameBuffer got(width, 48), want(width, 48);
    rasterize(got, m, cam, ColorMap{ColorMapKind::viridis, 0, 8});
    rasterize_reference(want, m, cam, ColorMap{ColorMapKind::viridis, 0, 8});
    EXPECT_TRUE(same_bits(got.depth, want.depth)) << "width " << width;
    EXPECT_TRUE(same_bits(got.rgba, want.rgba)) << "width " << width;
  }
}

TEST(Raycast, VolumeProducesActivePixelsAndDepth) {
  vis::UniformGrid g = sphere_grid(17, {8, 8, 8});
  // Invert so the sphere interior has high values.
  auto vals = g.point_data.find("dist")->as_mutable<float>();
  for (auto& v : vals) v = std::max(0.0f, 8.0f - v);
  FrameBuffer fb(48, 48);
  Camera cam = Camera::framing(g.bounds());
  TransferFunction tf;
  tf.color = ColorMap{ColorMapKind::cool_warm, 0.0f, 8.0f};
  tf.opacity_scale = 0.2f;
  raycast(fb, g, "dist", cam, tf);
  const int n = active_pixels(fb);
  EXPECT_GT(n, 100);
  // Central pixel should have accumulated noticeable opacity and a depth
  // strictly in front of the background.
  const std::size_t c = (24u * 48u + 24u);
  EXPECT_GT(fb.rgba[c * 4 + 3], 0.2f);
  EXPECT_LT(fb.depth[c], 1.0f);
}

TEST(Raycast, EmptyVolumeLeavesBackground) {
  vis::UniformGrid g;
  g.dims = {8, 8, 8};
  g.point_data.add(vis::DataArray::make<float>(
      "f", std::vector<float>(g.point_count(), 0.0f)));
  FrameBuffer fb(16, 16);
  Camera cam = Camera::framing(g.bounds());
  TransferFunction tf;
  tf.color = ColorMap{ColorMapKind::grayscale, 0, 1};
  raycast(fb, g, "f", cam, tf);
  EXPECT_EQ(active_pixels(fb), 0);
}

TEST(FrameBuffer, PpmRoundTripOnDisk) {
  FrameBuffer fb(8, 8);
  fb.rgba[0] = 1.0f;
  fb.rgba[3] = 1.0f;
  const std::string path = "/tmp/colza_render_test.ppm";
  fb.write_ppm(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
  EXPECT_EQ(std::string(magic), "P6");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(FrameBuffer, ContentHashDetectsChanges) {
  FrameBuffer a(16, 16), b(16, 16);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.rgba[40] = 0.7f;
  EXPECT_NE(a.content_hash(), b.content_hash());
}

}  // namespace
}  // namespace colza::render
