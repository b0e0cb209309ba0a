#ifndef GORDER_UTIL_ATOMIC_FILE_H_
#define GORDER_UTIL_ATOMIC_FILE_H_

/// Helpers for the write-to-temp-then-rename pattern shared by every
/// artifact writer (gpack, gperm, run reports, Chrome traces, graph
/// files). Together they give the usual atomicity story: readers only
/// ever see the old file or the complete new one, concurrent writers
/// never interleave into each other's staging file, and the renamed
/// file survives a crash/power loss once the writer returned success.
///
/// Lives in util (not store) so the obs artifact writers can depend on
/// it without a store -> obs -> store cycle.

#include <cstdio>
#include <string>

#include "util/io_result.h"

namespace gorder::util {

/// Staging path for an atomic write of `path`, unique per writer
/// (pid + an in-process counter), so concurrent writers targeting the
/// same final path each stage to their own file.
std::string StagingPath(const std::string& path);

/// Flushes stdio buffers and fsyncs the file to stable storage.
/// Returns false if either step fails.
bool FlushAndSync(std::FILE* f);

/// Best-effort fsync of the directory containing `path`, making a
/// just-completed rename into that directory durable.
void SyncParentDir(const std::string& path);

/// Renames a fully-written-and-synced staging file onto its final path
/// and fsyncs the parent directory. A target that exists and is not a
/// regular file (after following symlinks), such as a FIFO, a device or
/// a directory, is an error and stays as it is. On failure the staging
/// file is removed, so no `.tmp.*` debris survives a failed commit.
IoResult CommitStagedFile(const std::string& tmp, const std::string& path);

/// Writes `bytes` of `data` to `path` atomically: stage to a
/// writer-unique temp file, fflush+fsync, rename over the target, fsync
/// the parent directory. On any failure the staging file is removed and
/// the previous content of `path` (if any) is untouched — a reader can
/// never observe a partially-written file at the final path.
IoResult WriteFileAtomic(const std::string& path, const void* data,
                         std::size_t bytes);

inline IoResult WriteFileAtomic(const std::string& path,
                                const std::string& contents) {
  return WriteFileAtomic(path, contents.data(), contents.size());
}

}  // namespace gorder::util

#endif  // GORDER_UTIL_ATOMIC_FILE_H_
