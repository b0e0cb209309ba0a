#ifndef GORDER_EXTMEM_SEMI_EXTERNAL_H_
#define GORDER_EXTMEM_SEMI_EXTERNAL_H_

/// Semi-external ordering (DESIGN.md §18).
///
/// The orderings read the adjacency through whatever backs the CSR
/// arrays, so running the unchanged kernels over a zero-copy mapped
/// .gpack *is* the semi-external algorithm: the OS pages adjacency in and
/// out on demand, and the output is bit-identical to the in-memory run by
/// construction (same code, same values). What stays in RAM depends on
/// the method. BOBA and the degree methods hold O(n) vertex state.
/// Gorder holds its vertex state (the packed unit heap, the permutation,
/// the window) plus its private copy of the out-lists, 4 B per edge and
/// 8 B per node, which the greedy compacts as nodes are placed
/// (DESIGN.md §15); only its in-lists stay paged. EstimateMemory
/// (ext_csr.h) reports that figure. This header packages the run as a
/// one-call API with method-appropriate paging advice (sequential for
/// the single-pass BOBA/degree methods, on-demand for Gorder's windowed
/// access).

#include <string>
#include <vector>

#include "graph/graph.h"
#include "order/ordering.h"
#include "util/io_result.h"

namespace gorder::extmem {

struct SemiExternalInfo {
  std::uint64_t pack_bytes = 0;  // mapped pack size (address space, not RSS)
  bool zero_copy = false;        // true when a real mmap backed the run
};

/// Computes `perm[old] = new` for the graph stored at `pack_path`,
/// keeping vertex state (and, for Gorder, the out-lists) in RAM.
/// Bit-identical to ComputeOrdering on the same graph loaded in memory
/// (the differential test asserts it).
IoResult SemiExternalOrder(const std::string& pack_path, order::Method method,
                           const order::OrderingParams& params,
                           std::vector<NodeId>* perm,
                           SemiExternalInfo* info = nullptr);

}  // namespace gorder::extmem

#endif  // GORDER_EXTMEM_SEMI_EXTERNAL_H_
