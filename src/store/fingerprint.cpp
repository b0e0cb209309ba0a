#include "store/fingerprint.h"

#include <cstdio>

namespace gorder::store {

std::uint64_t GraphFingerprint(const Graph& graph) {
  GraphFingerprinter fp(graph.NumNodes(), graph.NumEdges());
  fp.Add(graph.out_offsets().data(), graph.out_offsets().size());
  fp.Add(graph.out_neighbors().data(), graph.out_neighbors().size());
  return fp.Digest();
}

std::string FingerprintHex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace gorder::store
