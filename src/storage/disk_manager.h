#ifndef HEAVEN_STORAGE_DISK_MANAGER_H_
#define HEAVEN_STORAGE_DISK_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace heaven {

/// Manages the page file of the base storage manager: page allocation with
/// a free list, page reads/writes. Page 0 is the header page holding the
/// magic; data pages start at 1, as many as the file size holds. The free
/// list is not persisted: the file opens with every page free, and the
/// owner of the pages claims its own through ResetFreeList.
class DiskManager {
 public:
  /// Opens (creating if needed) the page file at `path`.
  static Result<std::unique_ptr<DiskManager>> Open(Env* env,
                                                   const std::string& path,
                                                   Statistics* stats);

  /// Allocates a page (reusing freed pages first).
  Result<PageId> AllocatePage();

  /// Returns a page to the free list.
  Status FreePage(PageId page_id);

  /// Makes exactly the pages not in `in_use` free.
  void ResetFreeList(const std::vector<PageId>& in_use);

  /// Reads the full page into `out` (resized to kPageSize).
  Status ReadPage(PageId page_id, std::string* out);

  /// Writes the full page; data.size() must be kPageSize.
  Status WritePage(PageId page_id, std::string_view data);

  Status Sync();

  /// Total pages ever allocated (including freed), excluding the header.
  uint64_t NumPages() const;

 private:
  DiskManager(std::unique_ptr<File> file, uint64_t num_pages,
              Statistics* stats);

  /// Page I/O runs lock-free on positional reads/writes (page ownership
  /// is the buffer pool's problem); only the allocation metadata below
  /// needs mu_.
  std::unique_ptr<File> file_;  // analyze: unguarded(positional I/O)
  Statistics* stats_;  // analyze: unguarded(Statistics is atomic inside)

  mutable Mutex mu_ ACQUIRED_AFTER("BufferPool::Stripe::mu");
  uint64_t num_pages_ GUARDED_BY(mu_) = 0;  // data pages, ids 1..num_pages_
  std::vector<PageId> free_list_ GUARDED_BY(mu_);
};

}  // namespace heaven

#endif  // HEAVEN_STORAGE_DISK_MANAGER_H_
