#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <vector>

/// \file mutation_harness.h
/// \brief The seeded byte mutations the persisted-format decoder tests
/// share: bit flips, byte stomps, truncation, extension, and the
/// format-specific inflations of count and length fields a test supplies.
/// The mutation budget of a test is fixed and seeded, so a failure
/// reproduces exactly.

namespace aims::mutation {

/// \brief Rewrites one field of a blob, drawing what it needs from the rng.
using Inflation = std::function<void(std::vector<uint8_t>*, std::mt19937_64*)>;

/// \brief The bytes of the file at \p path (empty when it cannot be read).
inline std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

/// \brief Replaces the file at \p path with \p bytes.
inline void WriteFile(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// \brief Overwrites the u64 at \p offset, when the blob still reaches it.
inline void PatchU64(std::vector<uint8_t>* blob, size_t offset, uint64_t v) {
  if (blob->size() >= offset + sizeof(v)) {
    std::memcpy(blob->data() + offset, &v, sizeof(v));
  }
}

/// \brief Overwrites the u32 at \p offset, when the blob still reaches it.
inline void PatchU32(std::vector<uint8_t>* blob, size_t offset, uint32_t v) {
  if (blob->size() >= offset + sizeof(v)) {
    std::memcpy(blob->data() + offset, &v, sizeof(v));
  }
}

/// \brief Applies one to three stacked mutations drawn from \p rng. Each
/// is a bit flip run, a byte stomp run, a truncation, an extension, or one
/// of \p inflations, chosen uniformly.
inline std::vector<uint8_t> Mutate(std::vector<uint8_t> m,
                                   std::mt19937_64* rng,
                                   const std::vector<Inflation>& inflations) {
  const int stacked = 1 + static_cast<int>((*rng)() % 3);
  for (int k = 0; k < stacked && !m.empty(); ++k) {
    const size_t kind = (*rng)() % (4 + inflations.size());
    switch (kind) {
      case 0: {  // bit flips
        const int flips = 1 + static_cast<int>((*rng)() % 4);
        for (int f = 0; f < flips; ++f) {
          const size_t bit = (*rng)() % (m.size() * 8);
          m[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        break;
      }
      case 1: {  // byte stomps
        const int stomps = 1 + static_cast<int>((*rng)() % 4);
        for (int s = 0; s < stomps; ++s) {
          m[(*rng)() % m.size()] = static_cast<uint8_t>((*rng)());
        }
        break;
      }
      case 2:  // truncation
        m.resize((*rng)() % m.size());
        break;
      case 3: {  // extension
        const size_t extra = 1 + (*rng)() % 16;
        for (size_t e = 0; e < extra; ++e) {
          m.push_back(static_cast<uint8_t>((*rng)()));
        }
        break;
      }
      default:
        inflations[kind - 4](&m, rng);
        break;
    }
  }
  return m;
}

}  // namespace aims::mutation
