#include "extmem/semi_external.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#include "obs/trace.h"
#include "store/gpack.h"

namespace gorder::extmem {

namespace {

/// Advises the kernel about the access pattern of one mapped CSR array.
/// Purely advisory: a failure is ignored.
void Advise(const void* data, std::size_t bytes, int advice) {
  if (data == nullptr || bytes == 0) return;
  const long ps = ::sysconf(_SC_PAGESIZE);
  const std::uintptr_t page = ps > 0 ? static_cast<std::uintptr_t>(ps) : 4096;
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t start = addr / page * page;
  (void)::posix_madvise(reinterpret_cast<void*>(start),
                        bytes + (addr - start), advice);
}

/// Single-pass streaming methods read the CSR front to back; everything
/// else (Gorder's sliding window above all) touches neighbourhoods on
/// demand.
bool IsSequentialMethod(order::Method method) {
  switch (method) {
    case order::Method::kOriginal:
    case order::Method::kBoba:
    case order::Method::kInDegSort:
    case order::Method::kOutDegSort:
      return true;
    default:
      return false;
  }
}

}  // namespace

IoResult SemiExternalOrder(const std::string& pack_path, order::Method method,
                           const order::OrderingParams& params,
                           std::vector<NodeId>* perm,
                           SemiExternalInfo* info) {
  GORDER_OBS_SPAN(span, "extmem.semi_external_order");
  Graph graph;
  if (IoResult r = store::LoadPack(pack_path, &graph, store::LoadMode::kMmap);
      !r.ok) {
    return r;
  }
  const int advice = IsSequentialMethod(method) ? POSIX_MADV_SEQUENTIAL
                                                : POSIX_MADV_NORMAL;
  Advise(graph.out_offsets().data(),
         graph.out_offsets().size() * sizeof(EdgeId), advice);
  Advise(graph.out_neighbors().data(),
         graph.out_neighbors().size() * sizeof(NodeId), advice);
  Advise(graph.in_offsets().data(),
         graph.in_offsets().size() * sizeof(EdgeId), advice);
  Advise(graph.in_neighbors().data(),
         graph.in_neighbors().size() * sizeof(NodeId), advice);
  if (info != nullptr) {
    info->pack_bytes = graph.MemoryBytes();
    info->zero_copy = graph.IsMapped();
  }
  *perm = order::ComputeOrdering(graph, method, params);
  return IoResult::Ok();
}

}  // namespace gorder::extmem
