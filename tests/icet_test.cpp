// Tests for the image compositor: sparse encoding, pixel operators, and all
// three strategies across communicator sizes, over MoNA-backed communicators
// running in the simulated fabric.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "des/simulation.hpp"
#include "icet/icet.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"

namespace colza::icet {
namespace {

// Paints `fb` so rank r owns a horizontal band: pixels in the band get
// color = (r+1)/size and depth = 0.5; everything else stays background.
void paint_band(render::FrameBuffer& fb, int rank, int size) {
  const int rows = fb.height / size;
  const int y0 = rank * rows;
  const int y1 = rank == size - 1 ? fb.height : y0 + rows;
  for (int y = y0; y < y1; ++y) {
    for (int x = 0; x < fb.width; ++x) {
      const std::size_t p = static_cast<std::size_t>(y) *
                                static_cast<std::size_t>(fb.width) +
                            static_cast<std::size_t>(x);
      const float v = static_cast<float>(rank + 1) / static_cast<float>(size);
      fb.rgba[p * 4 + 0] = v;
      fb.rgba[p * 4 + 3] = 1.0f;
      fb.depth[p] = 0.5f;
    }
  }
}

// Expected final image for paint_band: every row has its band's color.
bool check_bands(const render::FrameBuffer& fb, int size) {
  const int rows = fb.height / size;
  for (int y = 0; y < fb.height; ++y) {
    int rank = rows == 0 ? 0 : std::min(y / rows, size - 1);
    const float v = static_cast<float>(rank + 1) / static_cast<float>(size);
    for (int x = 0; x < fb.width; ++x) {
      const std::size_t p = static_cast<std::size_t>(y) *
                                static_cast<std::size_t>(fb.width) +
                            static_cast<std::size_t>(x);
      if (std::abs(fb.rgba[p * 4] - v) > 1e-5f) return false;
      if (fb.rgba[p * 4 + 3] != 1.0f) return false;
      if (fb.depth[p] != 0.5f) return false;
    }
  }
  return true;
}

// --------------------------------------------------------------- encoding

TEST(SparseEncoding, RoundTripPreservesActivePixels) {
  render::FrameBuffer fb(16, 2);
  // Activate pixels 3..6 and 20..21.
  for (std::size_t p : {3u, 4u, 5u, 6u, 20u, 21u}) {
    fb.rgba[p * 4 + 0] = 0.25f * static_cast<float>(p % 4);
    fb.rgba[p * 4 + 3] = 1.0f;
    fb.depth[p] = 0.1f * static_cast<float>(p % 8);
  }
  auto enc = encode_sparse(fb, 0, fb.pixel_count());
  render::FrameBuffer out(16, 2);
  composite_sparse(out, 0, enc, CompositeOp::closest_depth);
  for (std::size_t p = 0; p < fb.pixel_count(); ++p) {
    EXPECT_EQ(out.rgba[p * 4], fb.rgba[p * 4]) << p;
    EXPECT_EQ(out.depth[p], fb.depth[p]) << p;
  }
}

TEST(SparseEncoding, EmptyImageEncodesTiny) {
  render::FrameBuffer fb(64, 64);
  auto enc = encode_sparse(fb, 0, fb.pixel_count());
  EXPECT_LE(enc.size(), 16u);  // one skip/count pair
}

TEST(SparseEncoding, SizeScalesWithActivePixels) {
  render::FrameBuffer fb(64, 64);
  for (std::size_t p = 0; p < 100; ++p) {
    fb.rgba[p * 4 + 3] = 1.0f;
  }
  const auto small = encode_sparse(fb, 0, fb.pixel_count()).size();
  for (std::size_t p = 0; p < 2000; ++p) {
    fb.rgba[p * 4 + 3] = 1.0f;
  }
  const auto big = encode_sparse(fb, 0, fb.pixel_count()).size();
  EXPECT_GT(big, 10 * small);
}

// --------------------------------------------------------------- operators

TEST(Operators, ClosestDepthKeepsNearer) {
  render::FrameBuffer a(2, 1), b(2, 1);
  a.rgba = {1, 0, 0, 1, 0, 0, 0, 0};
  a.depth = {0.3f, 1.0f};
  b.rgba = {0, 1, 0, 1, 0, 1, 0, 1};
  b.depth = {0.6f, 0.4f};
  auto enc = encode_sparse(b, 0, 2);
  composite_sparse(a, 0, enc, CompositeOp::closest_depth);
  EXPECT_EQ(a.rgba[0], 1.0f);  // a was nearer at pixel 0
  EXPECT_EQ(a.depth[0], 0.3f);
  EXPECT_EQ(a.rgba[5], 1.0f);  // b was nearer at pixel 1
  EXPECT_EQ(a.depth[1], 0.4f);
}

TEST(Operators, OverBlendsByDepthOrder) {
  render::FrameBuffer dst(1, 1), src(1, 1);
  // dst: half-transparent red at depth 0.5 (premultiplied).
  dst.rgba = {0.5f, 0, 0, 0.5f};
  dst.depth = {0.5f};
  // src: half-transparent green at depth 0.2 (in front).
  src.rgba = {0, 0.5f, 0, 0.5f};
  src.depth = {0.2f};
  auto enc = encode_sparse(src, 0, 1);
  composite_sparse(dst, 0, enc, CompositeOp::over);
  // Green in front: out = green + (1-0.5)*red.
  EXPECT_NEAR(dst.rgba[0], 0.25f, 1e-5f);
  EXPECT_NEAR(dst.rgba[1], 0.5f, 1e-5f);
  EXPECT_NEAR(dst.rgba[3], 0.75f, 1e-5f);
  EXPECT_EQ(dst.depth[0], 0.2f);
}

TEST(Operators, OverIsOrderIndependentGivenDepths) {
  render::FrameBuffer a1(1, 1), a2(1, 1), near(1, 1), far(1, 1);
  near.rgba = {0, 0.5f, 0, 0.5f};
  near.depth = {0.2f};
  far.rgba = {0.5f, 0, 0, 0.5f};
  far.depth = {0.8f};
  auto enc_near = encode_sparse(near, 0, 1);
  auto enc_far = encode_sparse(far, 0, 1);
  composite_sparse(a1, 0, enc_near, CompositeOp::over);
  composite_sparse(a1, 0, enc_far, CompositeOp::over);
  composite_sparse(a2, 0, enc_far, CompositeOp::over);
  composite_sparse(a2, 0, enc_near, CompositeOp::over);
  for (int c = 0; c < 4; ++c) EXPECT_NEAR(a1.rgba[c], a2.rgba[c], 1e-4f);
}

// --------------------------------------------------------------- strategies

// `n` processes, `per_node` to a node, each holding a MoNA communicator over
// all of them.
struct Ranks {
  des::Simulation sim;
  net::Network net{sim};
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<std::shared_ptr<mona::Communicator>> comms;

  Ranks(int n, int per_node) {
    std::vector<net::ProcId> addrs;
    for (int i = 0; i < n; ++i) {
      auto& p = net.create_process(static_cast<net::NodeId>(i / per_node));
      procs.push_back(&p);
      insts.push_back(std::make_unique<mona::Instance>(p));
      addrs.push_back(p.id());
    }
    for (auto& inst : insts) comms.push_back(inst->comm_create(addrs));
  }
};

class IcetStrategy
    : public ::testing::TestWithParam<std::tuple<Strategy, int>> {};

INSTANTIATE_TEST_SUITE_P(
    All, IcetStrategy,
    ::testing::Combine(::testing::Values(Strategy::tree, Strategy::binary_swap,
                                         Strategy::direct),
                       ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16)),
    [](const auto& info) {
      const char* s = std::get<0>(info.param) == Strategy::tree ? "tree"
                      : std::get<0>(info.param) == Strategy::binary_swap
                          ? "bswap"
                          : "direct";
      return std::string(s) + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST_P(IcetStrategy, BandsCompositeToFullImage) {
  const auto [strategy, n] = GetParam();
  Ranks w(n, /*per_node=*/4);
  bool root_ok = false;
  std::vector<render::FrameBuffer> fbs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& fb = fbs[static_cast<std::size_t>(i)];
    fb.resize(32, 32);
    paint_band(fb, i, n);
    w.procs[static_cast<std::size_t>(i)]->spawn(
        "compose" + std::to_string(i), [&, i, strategy = strategy, n = n] {
          auto r = composite(fbs[static_cast<std::size_t>(i)],
                             *w.comms[static_cast<std::size_t>(i)], strategy,
                             CompositeOp::closest_depth);
          ASSERT_TRUE(r.has_value()) << r.status().to_string();
          if (i == 0) root_ok = check_bands(fbs[0], n);
        });
  }
  w.sim.run();
  EXPECT_TRUE(root_ok);
}

TEST(Icet, StrategiesProduceIdenticalImages) {
  auto run = [](Strategy strategy) {
    constexpr int n = 6;
    Ranks w(n, /*per_node=*/1);
    std::uint64_t hash = 0;
    std::vector<render::FrameBuffer> fbs(n);
    for (int i = 0; i < n; ++i) {
      fbs[static_cast<std::size_t>(i)].resize(24, 24);
      // Overlapping content: rank i paints a square at depth (i+1)/10.
      auto& fb = fbs[static_cast<std::size_t>(i)];
      for (int y = i; y < 24 - i; ++y) {
        for (int x = i; x < 24 - i; ++x) {
          const std::size_t p =
              static_cast<std::size_t>(y) * 24 + static_cast<std::size_t>(x);
          fb.rgba[p * 4 + 0] = static_cast<float>(i + 1) / n;
          fb.rgba[p * 4 + 3] = 1.0f;
          fb.depth[p] = static_cast<float>(i + 1) / 10.0f;
        }
      }
      w.procs[static_cast<std::size_t>(i)]->spawn("c", [&, i, strategy] {
        auto r = composite(fbs[static_cast<std::size_t>(i)],
                           *w.comms[static_cast<std::size_t>(i)], strategy,
                           CompositeOp::closest_depth);
        ASSERT_TRUE(r.has_value());
        if (i == 0) hash = fbs[0].content_hash();
      });
    }
    w.sim.run();
    return hash;
  };
  const auto tree = run(Strategy::tree);
  EXPECT_EQ(tree, run(Strategy::binary_swap));
  EXPECT_EQ(tree, run(Strategy::direct));
}

TEST(Icet, SingleRankIsNoop) {
  Ranks w(1, /*per_node=*/1);
  render::FrameBuffer fb(8, 8);
  fb.rgba[0] = 0.5f;
  const auto before = fb.content_hash();
  w.procs[0]->spawn("c", [&] {
    auto r = composite(fb, *w.comms[0], Strategy::binary_swap,
                       CompositeOp::closest_depth);
    ASSERT_TRUE(r.has_value());
  });
  w.sim.run();
  EXPECT_EQ(fb.content_hash(), before);
}

TEST(Icet, SparseImagesSendFewBytes) {
  // Mostly-empty framebuffers must produce small messages (active-pixel
  // encoding at work).
  constexpr int n = 4;
  Ranks w(n, /*per_node=*/1);
  std::uint64_t total_sent = 0;
  std::vector<render::FrameBuffer> fbs(n);
  for (int i = 0; i < n; ++i) {
    fbs[static_cast<std::size_t>(i)].resize(128, 128);  // 16K pixels, 1 active
    auto& fb = fbs[static_cast<std::size_t>(i)];
    fb.rgba[static_cast<std::size_t>(i) * 4 + 3] = 1.0f;
    w.procs[static_cast<std::size_t>(i)]->spawn("c", [&, i] {
      auto r = composite(fbs[static_cast<std::size_t>(i)],
                         *w.comms[static_cast<std::size_t>(i)], Strategy::tree,
                         CompositeOp::closest_depth);
      ASSERT_TRUE(r.has_value());
      total_sent += r->bytes_sent;
    });
  }
  w.sim.run();
  // Raw would be 16K pixels * 20 B * 3 senders ~= 1 MB; sparse must be tiny.
  EXPECT_LT(total_sent, 4096u);
}


TEST(Icet, BinarySwapNonPow2RootOutsideGroup) {
  // size 5 => pof2 group {0..3}; root 4 exercises the composite-at-0 then
  // forward-to-root remap path.
  constexpr int n = 5;
  Ranks w(n, /*per_node=*/1);
  std::vector<render::FrameBuffer> fbs(n);
  bool root_ok = false;
  for (int i = 0; i < n; ++i) {
    fbs[static_cast<std::size_t>(i)].resize(16, 16);
    paint_band(fbs[static_cast<std::size_t>(i)], i, n);
    w.procs[static_cast<std::size_t>(i)]->spawn("c", [&, i] {
      auto r = composite(fbs[static_cast<std::size_t>(i)],
                         *w.comms[static_cast<std::size_t>(i)],
                         Strategy::binary_swap, CompositeOp::closest_depth,
                         /*root=*/4);
      ASSERT_TRUE(r.has_value()) << r.status().to_string();
      if (i == 4) root_ok = check_bands(fbs[4], n);
    });
  }
  w.sim.run();
  EXPECT_TRUE(root_ok);
}

TEST(Icet, RevokedCommunicatorFailsEveryRankWithTheTransportStatus) {
  // Ranks 0-2 enter a binary swap and block on their partners; rank 3 is
  // late. Revoking every rank's communicator meanwhile (what Colza does
  // when a member fails) must fail each rank with MoNA's own status: the
  // blocked ones through their pending receive, the late one at its first
  // send. Nothing may be left waiting.
  constexpr int n = 4;
  Ranks w(n, /*per_node=*/1);
  std::vector<render::FrameBuffer> fbs(n);
  std::vector<Status> results(n);
  for (int i = 0; i < n; ++i) {
    fbs[static_cast<std::size_t>(i)].resize(16, 16);
    paint_band(fbs[static_cast<std::size_t>(i)], i, n);
    w.procs[static_cast<std::size_t>(i)]->spawn("c", [&, i] {
      if (i == n - 1) w.sim.sleep_for(des::seconds(1));
      results[static_cast<std::size_t>(i)] =
          composite(fbs[static_cast<std::size_t>(i)],
                    *w.comms[static_cast<std::size_t>(i)],
                    Strategy::binary_swap, CompositeOp::closest_depth)
              .status();
    });
  }
  w.sim.schedule_at(des::milliseconds(500), [&] {
    for (auto& c : w.comms) c->revoke();
  });
  w.sim.run();
  for (int i = 0; i < n; ++i) {
    const Status& s = results[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.code(), StatusCode::aborted) << "rank " << i;
    EXPECT_EQ(s.message(), "mona: communicator revoked") << "rank " << i;
  }
}

}  // namespace
}  // namespace colza::icet
