#ifndef GORDER_STORE_FINGERPRINT_H_
#define GORDER_STORE_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace gorder::store {

/// Streaming 64-bit content hash (splitmix-style mixing per word).
///
/// Environment-independent by construction: values are mixed as logical
/// integers, never as raw memory, so the digest does not depend on
/// endianness, padding, compiler, thread count or pointer width. Used for
/// the gpack graph fingerprint and the ordering-cache parameter hash —
/// both are persisted to disk, so the mixing constants below are part of
/// the on-disk format and must never change without bumping the format
/// version.
class Hash64 {
 public:
  void Mix(std::uint64_t v) {
    state_ += 0x9E3779B97F4A7C15ULL + v;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    digest_ ^= z ^ (z >> 31);
    digest_ *= 0xFF51AFD7ED558CCDULL;
  }

  void MixString(const std::string& s) {
    Mix(s.size());
    for (char c : s) Mix(static_cast<unsigned char>(c));
  }

  std::uint64_t Digest() const {
    std::uint64_t z = digest_ ^ state_;
    z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53ULL;
    return z ^ (z >> 33);
  }

 private:
  std::uint64_t state_ = 0x6A09E667F3BCC908ULL;  // sqrt(2) fractional bits
  std::uint64_t digest_ = 0;
};

/// The content-fingerprint recipe, built up incrementally: (n, m), then
/// every word of the out-CSR offsets, then every word of the out-CSR
/// neighbours, each fed in chunks of any size. The in-CSR is fully
/// determined by the out-CSR (same edge multiset, sorted lists), so
/// hashing one side identifies the graph while halving the cost.
/// GraphFingerprint and the pack writer both hash through this class,
/// and the fingerprint is stored in every pack header.
class GraphFingerprinter {
 public:
  GraphFingerprinter(std::uint64_t num_nodes, std::uint64_t num_edges) {
    hash_.Mix(num_nodes);
    hash_.Mix(num_edges);
  }

  template <typename Word>
  void Add(const Word* words, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) hash_.Mix(words[i]);
  }

  std::uint64_t Digest() const { return hash_.Digest(); }

 private:
  Hash64 hash_;
};

/// Content fingerprint of a graph (GraphFingerprinter over its out-CSR).
/// Identical for an owned graph and its zero-copy mapped twin. Keys the
/// ordering-artifact cache: an ordering computed for fingerprint F is
/// valid for exactly the graphs with fingerprint F.
std::uint64_t GraphFingerprint(const Graph& graph);

/// Formats a fingerprint the way store paths and diagnostics spell it:
/// 16 lowercase hex digits.
std::string FingerprintHex(std::uint64_t fp);

}  // namespace gorder::store

#endif  // GORDER_STORE_FINGERPRINT_H_
