#ifndef GORDER_GRAPH_EDGELIST_IO_H_
#define GORDER_GRAPH_EDGELIST_IO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/io_result.h"  // IoResult (shared by every IO layer)

namespace gorder {

/// Parse state for edge-list text: the one grammar behind ReadEdgeList
/// and the out-of-core streamer (extmem::EdgeListStreamer). A line is
/// leading blanks (space, tab), then either a '#'/'%' comment, nothing
/// (an empty or blank line, CR-terminated or not, or the blank tail of
/// the text), or two decimal ids followed by arbitrary trailing text.
/// Ids above 2^32 - 2 are rejected.
struct EdgeTextParse {
  std::vector<Edge> edges;  // appended in text order
  NodeId max_node = 0;      // largest id seen; valid when saw_node
  bool saw_node = false;
  std::size_t error_offset = 0;      // byte offset of the offending line
  const char* error_kind = nullptr;  // null until a line fails to parse
};

/// Parses the lines in data[begin, end) into `out`. `begin` is at a line
/// start and `end` at a line boundary or the end of the text. Returns
/// false at the first malformed line, with out->error_offset and
/// out->error_kind set.
bool ParseEdgeText(const char* data, std::size_t begin, std::size_t end,
                   EdgeTextParse* out);

/// Reads a whitespace-separated directed edge list ("src dst" per line,
/// '#' and '%' comment lines skipped — the SNAP and Konect conventions;
/// grammar at EdgeTextParse). Node ids are used verbatim, so the file's
/// own numbering is the "Original" ordering, as in the paper.
///
/// The file is parsed in parallel chunks split at line boundaries
/// (util/parallel.h); the resulting graph is identical at any thread
/// count. Lines of arbitrary length are supported.
IoResult ReadEdgeList(const std::string& path, Graph* graph);

/// Writes "src dst" lines with a SNAP-style header comment, through a
/// ~1MB formatting buffer (one fwrite per buffer, not per edge). Writes
/// stage to a temp file and rename into place (util/atomic_file), so a
/// failure never leaves a truncated file at `path`.
IoResult WriteEdgeList(const std::string& path, const Graph& graph);

/// Binary format: magic, counts, then raw CSR arrays. Round-trips exactly
/// and loads without re-sorting; used to cache generated datasets between
/// benchmark runs. The header counts are validated against the file size
/// before sizing any allocation; writes are staged + renamed like
/// WriteEdgeList.
IoResult ReadBinary(const std::string& path, Graph* graph);
IoResult WriteBinary(const std::string& path, const Graph& graph);

}  // namespace gorder

#endif  // GORDER_GRAPH_EDGELIST_IO_H_
