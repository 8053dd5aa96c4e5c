#ifndef HEAVEN_STORAGE_BLOB_STORE_H_
#define HEAVEN_STORAGE_BLOB_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace heaven {

using BlobId = uint64_t;

/// BLOB storage over the page file: each blob is a sequence of pages plus a
/// byte size. This is the role the base RDBMS (Oracle/DB2) played for
/// RasDaMan — tiles are stored as BLOBs. Durability of the directory comes
/// from the transaction manager's WAL + checkpoints; BlobStore itself only
/// offers Serialize/RestoreDirectory hooks.
class BlobStore {
 public:
  BlobStore(DiskManager* disk, BufferPool* pool);

  /// Writes (or overwrites) the blob.
  Status Put(BlobId blob_id, std::string_view data);

  Result<std::string> Get(BlobId blob_id) const;

  Status Delete(BlobId blob_id);

  bool Exists(BlobId blob_id) const;

  /// Allocates a fresh blob id (monotonic).
  BlobId NextBlobId();

  Result<uint64_t> BlobSize(BlobId blob_id) const;

  size_t NumBlobs() const;

  /// Sum of all blob payload sizes (the disk-resident data volume).
  uint64_t TotalBytes() const;

  /// Serializes the blob directory (ids, sizes, page lists) for checkpoints.
  std::string SerializeDirectory() const;

  /// Replaces the directory from a checkpoint image; every page it does
  /// not reference becomes free.
  Status RestoreDirectory(std::string_view image);

 private:
  struct BlobMeta {
    uint64_t size = 0;
    std::vector<PageId> pages;
  };

  Status PutLocked(BlobId blob_id, std::string_view data) REQUIRES(mu_);
  Status DeleteLocked(BlobId blob_id) REQUIRES(mu_);

  DiskManager* disk_;  // analyze: unguarded(internally locked)
  BufferPool* pool_;   // analyze: unguarded(internally locked)

  mutable Mutex mu_ ACQUIRED_AFTER("StorageEngine::commit_mu_");
  std::map<BlobId, BlobMeta> blobs_ GUARDED_BY(mu_);
  BlobId next_blob_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace heaven

#endif  // HEAVEN_STORAGE_BLOB_STORE_H_
