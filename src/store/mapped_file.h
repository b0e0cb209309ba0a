#ifndef GORDER_STORE_MAPPED_FILE_H_
#define GORDER_STORE_MAPPED_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "util/io_result.h"

namespace gorder::store {

/// Read-only memory-mapped file with shared ownership.
///
/// The mapping lives until the last shared_ptr to it is dropped; Graph
/// arrays loaded zero-copy from a gpack hold such a pointer as their
/// keep-alive, so closing a Store or dropping the original handle never
/// invalidates a live graph.
class MappedFile {
 public:
  /// Maps `path` read-only. On success `*out` holds the mapping; on
  /// failure returns a descriptive error (missing file, empty file is OK
  /// and yields size() == 0).
  static IoResult Map(const std::string& path,
                      std::shared_ptr<MappedFile>* out);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  MappedFile() = default;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace gorder::store

#endif  // GORDER_STORE_MAPPED_FILE_H_
