#ifndef NF2_STORAGE_HEAP_FILE_H_
#define NF2_STORAGE_HEAP_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/page.h"
#include "util/result.h"

namespace nf2 {

/// A page-structured file: raw, uncached page I/O for the table-file
/// writer and reader in storage/checkpoint.h. All I/O flows through
/// the owning Env, so fault-injection tests can cut the write stream at
/// any syscall.
///
/// Not thread-safe: each HeapFile is opened, used and closed by one
/// checkpoint, recovery or tool call, all of which run under the
/// engine's writer gate or before the engine serves requests.
class HeapFile {
 public:
  HeapFile() = default;
  ~HeapFile();

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Creates a new empty file (truncates an existing one).
  static Result<std::unique_ptr<HeapFile>> Create(Env* env,
                                                  const std::string& path);
  static Result<std::unique_ptr<HeapFile>> Create(const std::string& path) {
    return Create(Env::Default(), path);
  }

  /// Opens an existing file; errors if missing or not page-aligned.
  /// With `tolerate_torn_tail`, a trailing partial page (a crash mid
  /// shadow-page append) is floored away instead of rejected: the torn
  /// region is never referenced by any manifest and is overwritten by
  /// the next extension.
  static Result<std::unique_ptr<HeapFile>> Open(
      Env* env, const std::string& path, bool tolerate_torn_tail = false);
  static Result<std::unique_ptr<HeapFile>> Open(const std::string& path) {
    return Open(Env::Default(), path);
  }

  const std::string& path() const { return path_; }
  PageId page_count() const { return page_count_; }

  /// Reads page `id` into `*page`.
  Status ReadPage(PageId id, Page* page);

  /// Writes `page` at `id`, extending the file by exactly one page when
  /// `id == page_count()` (past that is OutOfRange).
  Status WritePageAt(PageId id, const Page& page);

  /// fdatasyncs the file: every written page is on stable storage when
  /// this returns OK.
  Status Sync();

 private:
  Env* env_ = nullptr;
  std::string path_;
  std::unique_ptr<RandomRWFile> file_;
  PageId page_count_ = 0;
};

}  // namespace nf2

#endif  // NF2_STORAGE_HEAP_FILE_H_
