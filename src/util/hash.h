#ifndef GORDER_UTIL_HASH_H_
#define GORDER_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace gorder::util {

inline constexpr std::uint64_t kFnvPrime64 = 1099511628211ULL;

/// FNV-1a 64 over raw bytes, with the standard offset basis
/// 14695981039346656037. The wire protocol's result fingerprint
/// (serve::HashVector64) is this hash.
inline std::uint64_t Fnv1a64(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime64;
  }
  return h;
}

/// Start value of a SeedMix64 chain.
inline constexpr std::uint64_t kSeedMixBasis = 1469598103934665603ULL;

/// One step of the frozen seed mixer: (h ^ value) * FNV prime, chained
/// from kSeedMixBasis. This is not FNV-1a: its basis is one digit short
/// of FNV-1a-64's, and each step mixes one whole value, a byte or a
/// word as the caller chooses. It is frozen because dataset seeds,
/// generator stream seeds and golden permutation and stream
/// fingerprints are all derived through it.
constexpr std::uint64_t SeedMix64(std::uint64_t h, std::uint64_t value) {
  return (h ^ value) * kFnvPrime64;
}

}  // namespace gorder::util

#endif  // GORDER_UTIL_HASH_H_
