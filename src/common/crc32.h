#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

/// \file crc32.h
/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
/// ranges. The durable storage layer checksums every page slot and WAL
/// record with it, so torn writes and media corruption are detected on
/// read instead of surfacing as silently wrong coefficients.
///
/// The update runs slicing-by-8: eight bytes per step through eight
/// tables, so the lookups of one step do not wait on each other. Words are
/// assembled byte by byte, so the result is the byte-wise CRC on any host
/// byte order.

namespace aims {

namespace detail {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Table 0 is the byte-wise table; table k advances a byte through k more
/// zero bytes.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t t = 1; t < 8; ++t) {
      const uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// Four bytes as a little-endian word, whatever the host order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// \brief Extends a running CRC-32 with \p len bytes. Seed new
/// computations with Crc32() below; chain by passing the previous result.
inline uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto& t = detail::kCrc32Tables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc ^= 0xFFFFFFFFu;
  for (; len >= 8; len -= 8, p += 8) {
    const uint32_t lo = crc ^ detail::LoadLe32(p);
    const uint32_t hi = detail::LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// \brief CRC-32 of one contiguous byte range.
inline uint32_t Crc32(const void* data, size_t len) {
  return Crc32Update(0, data, len);
}

}  // namespace aims
