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
// The checksum is computed over the serialized dataset bytes at stage time,
// carried on StageMetadata / replica frames, and re-verified at every read
// (RDMA pull, replica promotion, execute-time parse, background scrub). The
// computation itself is never charged virtual time: it is part of the always-
// on protocol, so charging it would only shift every timeline uniformly.
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
  std::uint64_t c = crc;
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
