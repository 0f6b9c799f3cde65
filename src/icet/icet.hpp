// Image compositor -- the IceT substitute.
//
// IceT composites over whatever communicator it is handed (IceTCommunicator);
// the paper's Colza work provides a MoNA-backed one (S II-D). Here that seam
// is mona::Communicator itself: inside Colza it is built from a frozen SSG
// view, and in the MPI baselines it is a simmpi world (a mona::Communicator
// with a vendor profile), so the same code composites over either.
//
// Strategies:
//   * tree        -- binary-tree reduction; each round half the ranks send
//                    their full (sparsely encoded) image to a partner;
//   * binary_swap -- classic binary swap: ranks exchange and composite image
//                    halves, ending with each rank owning a 1/N slice, which
//                    is then gathered at the root (non-powers-of-two are
//                    folded into the largest power of two first);
//   * direct      -- everybody sends to the root, which composites serially.
//
// Operators:
//   * closest_depth -- opaque geometry (isosurface pipelines): keep the
//                      nearer fragment;
//   * over          -- translucent volumes: depth-ordered premultiplied
//                      alpha blending.
//
// Inactive pixels (alpha == 0 and background depth) are run-length encoded,
// so message sizes scale with active pixel counts (IceT's key optimization).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "mona/mona.hpp"
#include "render/render.hpp"

namespace colza::icet {

enum class Strategy : std::uint8_t { tree, binary_swap, direct };
enum class CompositeOp : std::uint8_t { closest_depth, over };

struct CompositeStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  int rounds = 0;
};

// Composites the per-rank framebuffers; on return the root's `fb` holds the
// final image (other ranks' buffers are clobbered). All ranks must call with
// identically-sized framebuffers. A transport failure is returned as the
// transport reported it, so a peer that died mid-collective surfaces as a
// retriable `unreachable` and a revoked communicator as `aborted`.
Expected<CompositeStats> composite(render::FrameBuffer& fb,
                                   mona::Communicator& comm, Strategy strategy,
                                   CompositeOp op, int root = 0);

// ---- building blocks, exposed for tests and benches ----------------------
// Run-length encodes pixels [begin, end) of `fb`.
[[nodiscard]] std::vector<std::byte> encode_sparse(
    const render::FrameBuffer& fb, std::size_t begin, std::size_t end);
// Composites an encoded fragment into fb starting at pixel `begin`.
void composite_sparse(render::FrameBuffer& fb, std::size_t begin,
                      std::span<const std::byte> encoded, CompositeOp op);

}  // namespace colza::icet
