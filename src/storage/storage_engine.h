#ifndef HEAVEN_STORAGE_STORAGE_ENGINE_H_
#define HEAVEN_STORAGE_STORAGE_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"

namespace heaven {

struct StorageOptions {
  /// Buffer pool capacity in pages.
  size_t buffer_pool_pages = 1024;
  /// Lock stripes of the buffer pool's page table: pin/unpin on distinct
  /// pages then don't serialize on one mutex. 0 selects hardware
  /// concurrency (clamped so every stripe keeps a useful share of the
  /// frames); 1 is the classic single-mutex pool with one global LRU.
  size_t buffer_pool_stripes = 1;
  /// fsync the WAL on every commit. Syncs are group-committed: concurrent
  /// committers share one fsync (see Wal::SyncTo).
  bool sync_on_commit = false;
  /// Checkpoint automatically once the WAL exceeds this size.
  uint64_t checkpoint_wal_bytes = 64ull << 20;
};

class StorageEngine;

/// A transaction buffers blob writes/deletes and catalog mutations; nothing
/// is visible (or durable) before Commit. The WAL is redo-only: Commit
/// appends all records plus a commit marker, then applies the operations.
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }

  /// Stages a blob write.
  void PutBlob(BlobId blob_id, std::string data);
  /// Stages a blob deletion.
  void DeleteBlob(BlobId blob_id);
  /// Stages a catalog mutation.
  void UpdateCatalog(const CatalogDelta& delta);

  /// Reads a blob with read-your-writes semantics.
  Result<std::string> GetBlob(BlobId blob_id) const;

  Status Commit();
  void Abort();

  bool finished() const { return finished_; }
  /// Nothing is staged.
  bool empty() const { return records_.empty(); }
  /// Commit logged the commit marker: the transaction is being applied and
  /// recovery replays it, so a Commit error after this point means "not
  /// durable", not "not applied".
  bool applied() const { return applied_; }

 private:
  friend class StorageEngine;
  Transaction(StorageEngine* engine, uint64_t id)
      : engine_(engine), id_(id) {}

  StorageEngine* engine_;
  uint64_t id_;
  bool finished_ = false;
  bool applied_ = false;
  std::vector<WalRecord> records_;
};

/// The base storage manager playing the role RasDaMan delegated to the
/// RDBMS: durable BLOB storage for tiles plus the system catalog, with
/// WAL-based crash recovery and checkpoints.
class StorageEngine {
 public:
  /// Opens the database under `dir` (created if missing) and runs crash
  /// recovery: load the last checkpoint, replay committed WAL suffix.
  static Result<std::unique_ptr<StorageEngine>> Open(
      Env* env, const std::string& dir, const StorageOptions& options,
      Statistics* stats);

  ~StorageEngine();

  std::unique_ptr<Transaction> Begin();

  /// Convenience: run a single-shot transaction holding one operation.
  Status PutBlobAtomic(BlobId blob_id, std::string data);
  Status ApplyCatalogAtomic(const CatalogDelta& delta);

  Catalog* catalog() { return &catalog_; }
  BlobStore* blobs() { return blob_store_.get(); }
  Statistics* stats() { return stats_; }
  /// Live residency source for the sampled gauges `buffer_pool.pages` /
  /// `buffer_pool.capacity`.
  const BufferPool* buffer_pool() const { return pool_.get(); }

  /// Flushes pages, snapshots blob directory + catalog, resets the WAL.
  Status Checkpoint();

  uint64_t WalBytes() const;

 private:
  StorageEngine(Env* env, std::string dir, StorageOptions options,
                Statistics* stats);

  Status Recover();
  Status CommitTransaction(Transaction* txn);
  Status ApplyRecord(const WalRecord& record);

  friend class Transaction;

  // All of the below are wired in Open() before the engine is shared and
  // never reseated; each pointee carries its own lock.
  Env* env_;               // analyze: unguarded(fixed at Open)
  std::string dir_;        // analyze: unguarded(fixed at Open)
  StorageOptions options_;  // analyze: unguarded(fixed at Open)
  Statistics* stats_;      // analyze: unguarded(Statistics is atomic inside)

  std::unique_ptr<DiskManager> disk_;     // analyze: unguarded(fixed at Open)
  std::unique_ptr<BufferPool> pool_;      // analyze: unguarded(fixed at Open)
  std::unique_ptr<BlobStore> blob_store_;  // analyze: unguarded(fixed at Open)
  std::unique_ptr<Wal> wal_;              // analyze: unguarded(fixed at Open)
  Catalog catalog_;  // analyze: unguarded(internally locked)

  /// Serializes commit application and checkpoints (WAL append order =
  /// apply order).
  Mutex commit_mu_ ACQUIRED_AFTER("HeavenDb::db_mu_");
  std::atomic<uint64_t> next_txn_id_{1};
};

}  // namespace heaven

#endif  // HEAVEN_STORAGE_STORAGE_ENGINE_H_
