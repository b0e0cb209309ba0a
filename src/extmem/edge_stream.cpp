#include "extmem/edge_stream.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/radix_sort.h"

namespace gorder::extmem {

namespace {

GORDER_FAILPOINT_DEFINE(fp_run_mkdir, "extmem.run.mkdir");
GORDER_FAILPOINT_DEFINE(fp_run_open, "extmem.run.open");
GORDER_FAILPOINT_DEFINE(fp_run_write, "extmem.run.write");
GORDER_FAILPOINT_DEFINE(fp_merge_open, "extmem.merge.open");
GORDER_FAILPOINT_DEFINE(fp_merge_read, "extmem.merge.read");

GORDER_OBS_COUNTER(c_runs_written, "extmem.runs_written");
GORDER_OBS_COUNTER(c_run_bytes, "extmem.run_bytes");
GORDER_OBS_COUNTER(c_merge_passes, "extmem.merge_passes");

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

inline bool EdgeLess(const Edge& a, const Edge& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

/// Sorts `count` edges by (src, dst) through `scratch` (util::RadixSort);
/// returns whichever of the two holds the result. The key packs src above
/// dst in just the bits the largest id needs, so small ids take few passes.
Edge* RadixSortEdges(Edge* edges, Edge* scratch, std::size_t count) {
  NodeId ids = 0;
  for (std::size_t i = 0; i < count; ++i) ids |= edges[i].src | edges[i].dst;
  const int id_bits = std::bit_width(ids);
  std::vector<std::size_t> counts;
  return util::RadixSort(
      edges, scratch, count, 2 * id_bits,
      [id_bits](const Edge& e) {
        return (std::uint64_t{e.src} << id_bits) | e.dst;
      },
      counts);
}

}  // namespace

// ---------------------------------------------------------------------------
// RunSet

IoResult RunSet::Create(const std::string& prefix) {
  // The staging-infix name keeps the scratch directory inside the
  // no-`.tmp.`-debris contract checked by the fault sweep.
  dir_ = util::StagingPath(prefix + ".runs");
  std::error_code ec;
  if (GORDER_FAILPOINT(fp_run_mkdir) != util::FaultKind::kNone ||
      !std::filesystem::create_directories(dir_, ec)) {
    const std::string d = dir_;
    dir_.clear();
    return IoResult::Error("cannot create scratch directory " + d);
  }
  return IoResult::Ok();
}

template <typename Fill>
IoResult RunSet::AppendRun(std::size_t buffer_edges, Fill&& fill) {
  const std::string path =
      dir_ + "/run-" + std::to_string(next_id_++) + ".edges";
  if (GORDER_FAILPOINT(fp_run_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open run file " + path);
  }
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return IoResult::Error("cannot open run file " + path);
  auto fail = [&](IoResult r) {
    f.reset();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return r;
  };
  std::vector<Edge> buf(std::max<std::size_t>(buffer_edges, 1));
  std::uint64_t total = 0;
  while (true) {
    std::size_t filled = 0;
    if (IoResult r = fill(buf.data(), buf.size(), &filled); !r.ok) {
      return fail(r);
    }
    if (filled == 0) break;
    if (GORDER_FAULT_IO(fp_run_write, filled,
                        std::fwrite(buf.data(), sizeof(Edge), filled,
                                    f.get())) != filled) {
      return fail(IoResult::Error("short write to run file " + path));
    }
    total += filled;
  }
  // Scratch runs are intentionally not fsynced: they never outlive the
  // build, and a crash aborts the whole build anyway.
  runs_.push_back({path, total});
  runs_written_ += 1;
  bytes_written_ += total * sizeof(Edge);
  GORDER_OBS_INC(c_runs_written);
  GORDER_OBS_ADD(c_run_bytes, total * sizeof(Edge));
  return IoResult::Ok();
}

IoResult RunSet::WriteMerged(const Edge* a, std::size_t a_count,
                             const Edge* b, std::size_t b_count,
                             std::size_t buffer_edges) {
  std::size_t i = 0, j = 0;
  return AppendRun(buffer_edges, [&](Edge* out, std::size_t capacity,
                                     std::size_t* filled) {
    std::size_t k = 0;
    while (k < capacity && i < a_count && j < b_count) {
      out[k++] = EdgeLess(b[j], a[i]) ? b[j++] : a[i++];
    }
    while (k < capacity && i < a_count) out[k++] = a[i++];
    while (k < capacity && j < b_count) out[k++] = b[j++];
    *filled = k;
    return IoResult::Ok();
  });
}

IoResult RunSet::WriteMerged(MergeStream* merge, std::size_t buffer_edges) {
  return AppendRun(buffer_edges, [merge](Edge* out, std::size_t capacity,
                                         std::size_t* filled) {
    for (*filled = 0; *filled < capacity; ++*filled) {
      bool eof = false;
      if (IoResult r = merge->Next(&out[*filled], &eof); !r.ok) return r;
      if (eof) break;
    }
    return IoResult::Ok();
  });
}

void RunSet::DropRuns(std::size_t count) {
  count = std::min(count, runs_.size());
  std::error_code ec;
  for (std::size_t i = 0; i < count; ++i) {
    std::filesystem::remove(runs_[i].path, ec);
  }
  runs_.erase(runs_.begin(),
              runs_.begin() + static_cast<std::ptrdiff_t>(count));
}

void RunSet::Remove() {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);  // best-effort
  dir_.clear();
  runs_.clear();
}

// ---------------------------------------------------------------------------
// MergeStream

struct MergeStream::Source {
  FilePtr file;
  std::string path;
  std::vector<Edge> buffer;
  std::size_t pos = 0;    // next unread edge in buffer
  std::size_t filled = 0; // valid edges in buffer
  std::uint64_t remaining = 0;  // edges left in the file
};

MergeStream::MergeStream() = default;

MergeStream::~MergeStream() { Close(); }

void MergeStream::Close() {
  sources_.clear();
  heap_.clear();
  have_last_ = false;
}

IoResult MergeStream::Refill(Source& src) {
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(src.buffer.capacity(), src.remaining));
  src.buffer.resize(want);
  if (want > 0 &&
      GORDER_FAULT_IO(fp_merge_read, want,
                      std::fread(src.buffer.data(), sizeof(Edge), want,
                                 src.file.get())) != want) {
    return IoResult::Error("short read from run file " + src.path);
  }
  src.pos = 0;
  src.filled = want;
  src.remaining -= want;
  return IoResult::Ok();
}

bool MergeStream::SourceLess(std::uint32_t a, std::uint32_t b) const {
  const Edge& ea = sources_[a]->buffer[sources_[a]->pos];
  const Edge& eb = sources_[b]->buffer[sources_[b]->pos];
  if (ea.src != eb.src) return ea.src < eb.src;
  if (ea.dst != eb.dst) return ea.dst < eb.dst;
  return a < b;  // deterministic tie-break across runs
}

void MergeStream::HeapSiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t smallest = i;
    const std::size_t l = 2 * i + 1, r = 2 * i + 2;
    if (l < n && SourceLess(heap_[l], heap_[smallest])) smallest = l;
    if (r < n && SourceLess(heap_[r], heap_[smallest])) smallest = r;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

IoResult MergeStream::Open(const RunSet& runs, std::size_t first,
                           std::size_t count, std::size_t buffer_edges) {
  Close();
  buffer_edges = std::max<std::size_t>(buffer_edges, 64);
  for (std::size_t i = 0; i < count; ++i) {
    auto src = std::make_unique<Source>();
    src->path = runs.RunPath(first + i);
    src->remaining = runs.RunEdges(first + i);
    if (src->remaining == 0) continue;  // empty run: nothing to merge
    if (GORDER_FAILPOINT(fp_merge_open) != util::FaultKind::kNone) {
      return IoResult::Error("cannot open run file " + src->path);
    }
    src->file.reset(std::fopen(src->path.c_str(), "rb"));
    if (!src->file) {
      return IoResult::Error("cannot open run file " + src->path);
    }
    src->buffer.reserve(buffer_edges);
    if (IoResult r = Refill(*src); !r.ok) return r;
    sources_.push_back(std::move(src));
    heap_.push_back(static_cast<std::uint32_t>(sources_.size() - 1));
  }
  // Heapify (sift down from the last parent).
  for (std::size_t i = heap_.size() / 2; i-- > 0;) HeapSiftDown(i);
  return IoResult::Ok();
}

IoResult MergeStream::Next(Edge* edge, bool* eof) {
  while (!heap_.empty()) {
    const std::uint32_t top = heap_[0];
    Source& src = *sources_[top];
    const Edge e = src.buffer[src.pos++];
    if (src.pos == src.filled) {
      if (src.remaining > 0) {
        if (IoResult r = Refill(src); !r.ok) return r;
      }
      if (src.pos == src.filled) {
        // Source exhausted: remove from the heap.
        heap_[0] = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) HeapSiftDown(0);
      } else {
        HeapSiftDown(0);
      }
    } else {
      HeapSiftDown(0);
    }
    if (have_last_ && e == last_) continue;  // duplicate: emit once
    last_ = e;
    have_last_ = true;
    *edge = e;
    *eof = false;
    return IoResult::Ok();
  }
  *eof = true;
  return IoResult::Ok();
}

// ---------------------------------------------------------------------------
// ExternalEdgeSorter

ExternalEdgeSorter::ExternalEdgeSorter(const ExtmemOptions& options)
    : options_(options) {
  // The explicit override is honoured down to 2 edges so tests can force
  // run boundaries anywhere; the derived default keeps a sane floor.
  buffer_capacity_ =
      options.run_buffer_edges != 0
          ? std::max<std::size_t>(options.run_buffer_edges, 2)
          : std::max<std::size_t>(
                4096, static_cast<std::size_t>(options.mem_budget_bytes / 2 /
                                               sizeof(Edge)));
  const std::size_t fanin = std::max<std::size_t>(options.merge_fanin, 2);
  options_.merge_fanin = fanin;
  // A quarter of the budget split across the merge read buffers.
  merge_buffer_edges_ = std::clamp<std::size_t>(
      static_cast<std::size_t>(options.mem_budget_bytes / 4 / fanin /
                               sizeof(Edge)),
      1024, 1u << 20);
}

IoResult ExternalEdgeSorter::Create(const std::string& prefix) {
  buffer_.reserve(std::min<std::size_t>(buffer_capacity_, 1u << 16));
  return runs_.Create(prefix);
}

IoResult ExternalEdgeSorter::SpillBuffer() {
  if (buffer_.empty()) return IoResult::Ok();
  GORDER_OBS_SPAN(span, "extmem.spill");
  // Each half sorts against one scratch of half the buffer, and the
  // halves merge on their way into the run: the spill holds 1.5x the
  // buffer, what the buffer's last doubling already held.
  Edge* a = buffer_.data();
  const std::size_t a_count = buffer_.size() / 2;
  const std::size_t b_count = buffer_.size() - a_count;
  std::vector<Edge> scratch(b_count);
  if (const Edge* sorted = RadixSortEdges(a, scratch.data(), a_count);
      sorted != a) {
    std::copy(sorted, sorted + a_count, a);
  }
  const Edge* b = RadixSortEdges(a + a_count, scratch.data(), b_count);
  IoResult r = runs_.WriteMerged(a, a_count, b, b_count, merge_buffer_edges_);
  buffer_.clear();
  return r;
}

IoResult ExternalEdgeSorter::Add(Edge e) {
  buffer_.push_back(e);
  ++edges_added_;
  if (buffer_.size() >= buffer_capacity_) return SpillBuffer();
  return IoResult::Ok();
}

IoResult ExternalEdgeSorter::AddBatch(const Edge* edges, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (IoResult r = Add(edges[i]); !r.ok) return r;
  }
  return IoResult::Ok();
}

IoResult ExternalEdgeSorter::Finish(ExtBuildStats* stats) {
  if (IoResult r = SpillBuffer(); !r.ok) return r;
  buffer_.shrink_to_fit();  // release the run buffer before merge phases
  // Compact until one merge pass can cover everything.
  while (runs_.NumRuns() > options_.merge_fanin) {
    MergeStream merge;
    if (IoResult r = merge.Open(runs_, 0, options_.merge_fanin,
                                merge_buffer_edges_);
        !r.ok) {
      return r;
    }
    if (IoResult r = runs_.WriteMerged(&merge, merge_buffer_edges_); !r.ok) {
      return r;
    }
    merge.Close();
    runs_.DropRuns(options_.merge_fanin);
    if (stats != nullptr) stats->merge_passes += 1;
    GORDER_OBS_INC(c_merge_passes);
  }
  finished_ = true;
  if (stats != nullptr) {
    stats->runs_written += runs_.runs_written();
    stats->run_bytes += runs_.bytes_written();
  }
  return IoResult::Ok();
}

IoResult ExternalEdgeSorter::OpenMerge(MergeStream* merge) const {
  return merge->Open(runs_, 0, runs_.NumRuns(), merge_buffer_edges_);
}

}  // namespace gorder::extmem
