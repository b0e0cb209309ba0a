#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>

#include "util/failpoint.h"

namespace gorder::util {

GORDER_FAILPOINT_DEFINE(fp_sync, "util.atomic.sync");
GORDER_FAILPOINT_DEFINE(fp_dirsync, "util.atomic.dirsync");
GORDER_FAILPOINT_DEFINE(fp_write_open, "util.atomic_write.open");
GORDER_FAILPOINT_DEFINE(fp_write_write, "util.atomic_write.write");
GORDER_FAILPOINT_DEFINE(fp_rename, "util.atomic.rename");

std::string StagingPath(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t seq = counter.fetch_add(1, std::memory_order_relaxed);
  const long pid = static_cast<long>(::getpid());
  return path + ".tmp." + std::to_string(pid) + "." + std::to_string(seq);
}

bool FlushAndSync(std::FILE* f) {
  if (!GORDER_FAULT_OK(fp_sync, std::fflush(f) == 0)) return false;
  return ::fsync(::fileno(f)) == 0;
}

void SyncParentDir(const std::string& path) {
  // Best-effort by contract: a failure here (injected or real) is
  // tolerated silently — the rename itself already happened.
  if (GORDER_FAILPOINT(fp_dirsync) != FaultKind::kNone) return;
  const std::filesystem::path p(path);
  const std::string dir =
      p.has_parent_path() ? p.parent_path().string() : std::string(".");
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

IoResult WriteFileAtomic(const std::string& path, const void* data,
                         std::size_t bytes) {
  std::error_code ec;
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  const std::string tmp = StagingPath(path);
  if (GORDER_FAILPOINT(fp_write_open) != FaultKind::kNone) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  bool ok = bytes == 0 ||
            GORDER_FAULT_IO(fp_write_write, bytes,
                            std::fwrite(data, 1, bytes, f)) == bytes;
  ok = ok && FlushAndSync(f);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("short write to " + tmp);
  }
  return CommitStagedFile(tmp, path);
}

IoResult CommitStagedFile(const std::string& tmp, const std::string& path) {
  std::error_code ec;
  if (GORDER_FAILPOINT(fp_rename) != FaultKind::kNone) {
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("cannot rename " + tmp + " to " + path);
  }
  // The rename would replace whatever is at `path`: a FIFO or a device
  // node would become a regular file. Only a regular file is replaced.
  const auto target = std::filesystem::status(path, ec);
  if (std::filesystem::exists(target) &&
      !std::filesystem::is_regular_file(target)) {
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("cannot replace " + path +
                           ": not a regular file");
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("cannot rename " + tmp + " to " + path);
  }
  SyncParentDir(path);
  return IoResult::Ok();
}

}  // namespace gorder::util
