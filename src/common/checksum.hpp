// CRC32C (Castagnoli, polynomial 0x1EDC6F41) for end-to-end payload
// integrity on the staging data plane.
//
// Two implementations, selected at runtime via the common/simd.hpp dispatch
// policy: a hardware path using the SSE4.2 `crc32` instruction and a scalar
// slice-by-8 table fallback. CRC is an exact function of the input, so --
// unlike the floating-point kernels the SIMD policy was written for -- the
// two paths are bit-identical by construction; COLZA_SIMD=off still forces
// the scalar path so CI can cross-check them (scripts/check.sh) and perf
// runs can bisect.
//
// The hardware path runs three interleaved `crc32` streams over adjacent
// stripes of kCrc32cStripe bytes -- the instruction has a three-cycle
// latency but issues every cycle -- and joins the stripe CRCs with a
// compile-time shift-by-one-stripe table (the crc32c(a + b) composition
// documented on crc32c() below). Inputs shorter than three stripes, and the
// tail after the last whole round, take the one-stream loop.
//
// The checksum is computed over the serialized dataset bytes at stage time,
// carried on StageMetadata / replica frames, and re-verified at every read
// (RDMA pull, replica promotion, execute-time parse, background scrub).
// Only the execute-time verify-then-parse is charged virtual time: it runs
// inside the one Simulation::charge_scoped instant per block that
// StagedBlockStore::for_each_verified opens around the pipeline's parse, so
// a faster CRC shortens measured-charge execute times. Every other call
// site -- the client's stage-time hash, the server's post-pull verify,
// integrity scans before execute, the buddy-repair fetch, the background
// scrubber and the viewer frame codec -- runs uncharged.
//
// Standard check value: crc32c("123456789") == 0xE3069283.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/simd.hpp"

namespace colza::common {

namespace detail {

// Slice-by-8 tables, generated at compile time. Table 0 is the classic
// reflected-polynomial byte table; table k advances a byte's contribution
// past k further zero bytes, so one step folds eight input bytes.
consteval std::array<std::array<std::uint32_t, 256>, 8> crc32c_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr auto kCrc32cTables = crc32c_tables();

// Stripe length of the three-stream hardware loop. A round hashes three
// stripes; joining them costs two table shifts, under 1% of a round.
inline constexpr std::size_t kCrc32cStripe = 4096;

// Advancing a CRC register past kCrc32cStripe zero bytes is linear over
// GF(2), so it is the XOR of the shifted images of the register's four
// bytes: table k holds byte value b at bit position 8k, shifted. Built from
// the 32 shifted unit vectors, each advanced one zero byte at a time.
consteval std::array<std::array<std::uint32_t, 256>, 4>
crc32c_stripe_shift_tables() {
  const auto& t = kCrc32cTables[0];
  std::array<std::uint32_t, 32> unit{};
  for (std::size_t bit = 0; bit < 32; ++bit) {
    std::uint32_t crc = std::uint32_t{1} << bit;
    for (std::size_t i = 0; i < kCrc32cStripe; ++i) {
      crc = (crc >> 8) ^ t[crc & 0xFFu];
    }
    unit[bit] = crc;
  }
  std::array<std::array<std::uint32_t, 256>, 4> shift{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((b >> bit & 1u) != 0) shift[k][b] ^= unit[8 * k + bit];
      }
    }
  }
  return shift;
}

inline constexpr auto kCrc32cStripeShift = crc32c_stripe_shift_tables();

// The register after kCrc32cStripe zero bytes: crc32c(a + b) for a stripe
// `b` is crc32c_stripe_shift(crc of a) ^ (crc of b from a zero register).
inline std::uint32_t crc32c_stripe_shift(std::uint32_t crc) noexcept {
  const auto& t = kCrc32cStripeShift;
  return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
         t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
}

// Four input bytes as a little-endian word, whatever the host byte order.
inline std::uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint32_t crc32c_scalar(const std::byte* data, std::size_t n,
                                   std::uint32_t crc) noexcept {
  const auto& t = kCrc32cTables;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = load_le32(data) ^ crc;
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<std::uint32_t>(*data)) & 0xFFu];
  }
  return crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(
    const std::byte* data, std::size_t n, std::uint32_t crc) noexcept {
  constexpr std::size_t kStripe = kCrc32cStripe;
  std::uint64_t c = crc;
  for (; n >= 3 * kStripe; data += 3 * kStripe, n -= 3 * kStripe) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kStripe; i += 8) {
      std::uint64_t w0;
      std::uint64_t w1;
      std::uint64_t w2;
      __builtin_memcpy(&w0, data + i, 8);
      __builtin_memcpy(&w1, data + kStripe + i, 8);
      __builtin_memcpy(&w2, data + 2 * kStripe + i, 8);
      c = __builtin_ia32_crc32di(c, w0);
      c1 = __builtin_ia32_crc32di(c1, w1);
      c2 = __builtin_ia32_crc32di(c2, w2);
    }
    c = crc32c_stripe_shift(
            crc32c_stripe_shift(static_cast<std::uint32_t>(c)) ^
            static_cast<std::uint32_t>(c1)) ^
        static_cast<std::uint32_t>(c2);
  }
  while (n >= 8) {
    std::uint64_t chunk;
    __builtin_memcpy(&chunk, data, 8);
    c = __builtin_ia32_crc32di(c, chunk);
    data += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n > 0) {
    c32 = __builtin_ia32_crc32qi(c32, static_cast<std::uint8_t>(*data));
    ++data;
    --n;
  }
  return c32;
}

inline bool crc32c_hw_usable() noexcept {
  static const bool usable = __builtin_cpu_supports("sse4.2");
  return usable;
}
#endif

}  // namespace detail

// CRC32C of `data`. `seed` is the CRC of any preceding bytes (0 to start),
// so checksums compose: crc32c(a + b) == crc32c(b, crc32c(a)).
[[nodiscard]] inline std::uint32_t crc32c(std::span<const std::byte> data,
                                          std::uint32_t seed = 0) noexcept {
  const std::uint32_t crc = ~seed;
#if defined(__x86_64__)
  if (simd::active() != simd::Level::scalar && detail::crc32c_hw_usable()) {
    return ~detail::crc32c_hw(data.data(), data.size(), crc);
  }
#endif
  return ~detail::crc32c_scalar(data.data(), data.size(), crc);
}

}  // namespace colza::common
