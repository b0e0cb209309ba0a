#ifndef GORDER_GRAPH_EDGELIST_IO_H_
#define GORDER_GRAPH_EDGELIST_IO_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/io_result.h"  // IoResult (shared by every IO layer)

namespace gorder {

/// Receives a stream of edges chunk by chunk: parsed text (StreamEdgeList),
/// generated chunks (gen/chunked.h), input to an external pack build.
/// The pointer is only valid for the duration of the call. Returning an
/// error stops the stream; no further chunks are delivered.
using EdgeSink = std::function<IoResult(const Edge* edges, std::size_t count)>;

/// Streams a whitespace-separated directed edge list ("src dst" per
/// line) through a bounded read buffer and hands each parsed chunk to
/// `sink`, never materialising the file. A line is leading blanks (space, tab), then either a
/// '#'/'%' comment (the SNAP and Konect conventions), nothing (an empty
/// or blank line, CR-terminated or not, or the blank tail of the text),
/// or two decimal ids followed by arbitrary trailing text, in a line of
/// at most 64 MiB. Ids above 2^32 - 2 are rejected; a malformed line
/// fails as "path:LINE: kind". `max_node` receives the largest id seen,
/// meaningful when `*saw_node`. ReadEdgeList and
/// extmem::StreamEdgeListToPack both read through it, so the two accept
/// the same files and fail the same way.
IoResult StreamEdgeList(const std::string& path, const EdgeSink& sink,
                        NodeId* max_node = nullptr, bool* saw_node = nullptr);

/// Reads a text edge list (grammar at StreamEdgeList) into `graph`.
/// Node ids are used verbatim, so the file's own numbering is the
/// "Original" ordering, as in the paper.
IoResult ReadEdgeList(const std::string& path, Graph* graph);

/// Writes "src dst" lines with a SNAP-style header comment, through a
/// ~1MB formatting buffer (one fwrite per buffer, not per edge). Writes
/// stage to a temp file and rename into place (util/atomic_file), so a
/// failure never leaves a truncated file at `path`.
IoResult WriteEdgeList(const std::string& path, const Graph& graph);

/// Writes `perm` as "old_id new_id" lines (v, then perm[v]) under a
/// "# old_id new_id" header, gorder_cli's --map file. Buffered and
/// staged like WriteEdgeList.
IoResult WritePermutationMap(const std::string& path,
                             const std::vector<NodeId>& perm);

}  // namespace gorder

#endif  // GORDER_GRAPH_EDGELIST_IO_H_
