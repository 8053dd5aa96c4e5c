#ifndef HEAVEN_STORAGE_WAL_H_
#define HEAVEN_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace heaven {

/// Operations recorded in the write-ahead log. The log is redo-only:
/// uncommitted data never reaches the blob store, so recovery replays the
/// operations of committed transactions in log order.
enum class WalOp : uint8_t {
  kPutBlob = 1,
  kDeleteBlob = 2,
  kCatalogUpdate = 3,
  kCommit = 4,
  kAbort = 5,
};

struct WalRecord {
  uint64_t txn_id = 0;
  WalOp op = WalOp::kCommit;
  uint64_t blob_id = 0;    // for kPutBlob / kDeleteBlob
  std::string payload;     // blob bytes or serialized catalog delta

  bool operator==(const WalRecord& other) const = default;
};

/// Append-only write-ahead log with per-record CRC32C. Torn/corrupt tails
/// are tolerated on recovery (the valid prefix is replayed).
///
/// Durability is group-committed: SyncTo() elects one caller as the sync
/// leader, whose single fsync covers every byte appended up to the moment
/// it runs — concurrent committers whose records were already appended
/// piggyback on that fsync instead of issuing their own
/// (Ticker::kWalSyncsCoalesced counts the saved fsyncs).
class Wal {
 public:
  static Result<std::unique_ptr<Wal>> Open(Env* env, const std::string& path,
                                           Statistics* stats = nullptr);

  /// Appends one framed record; `end_offset` (optional) receives the log
  /// offset just past the record — the durability target for SyncTo.
  Status Append(const WalRecord& record, uint64_t* end_offset = nullptr);

  /// Makes the log durable up to `target_offset` under group commit. If a
  /// concurrent caller's fsync already covered the target, returns without
  /// touching the file; if a sync is in flight, waits for it (it may cover
  /// the target); otherwise leads one fsync covering every appended byte.
  /// `epoch` must be the value of Epoch() observed when the bytes were
  /// appended: if the log was since Reset() by a checkpoint, the records'
  /// effects are durable through that checkpoint and SyncTo is a no-op.
  Status SyncTo(uint64_t target_offset, uint64_t epoch);

  /// Reads every valid record from the start of the log. A corrupt record
  /// terminates the scan (its suffix is ignored) — crash-consistent
  /// behaviour for a torn final write.
  Result<std::vector<WalRecord>> ReadAll();

  /// Discards the log contents (after a checkpoint made them redundant).
  /// Invalidates outstanding SyncTo targets by bumping the epoch.
  Status Reset();

  uint64_t SizeBytes() const;

  /// Incremented by every Reset(); pairs with SyncTo.
  uint64_t Epoch() const;

 private:
  Wal(std::unique_ptr<File> file, uint64_t size, Statistics* stats)
      : file_(std::move(file)), stats_(stats), append_offset_(size) {}

  /// Appends and truncates run under mu_; the group-commit fsync runs
  /// with no lock held on purpose (File::Sync is thread-safe).
  std::unique_ptr<File> file_;  // analyze: unguarded(fsync outside mu_)
  /// May be null.
  Statistics* stats_;  // analyze: unguarded(Statistics is atomic inside)

  /// Guards append_offset_ and the file's append tail.
  mutable Mutex mu_ ACQUIRED_AFTER(sync_mu_);
  uint64_t append_offset_ GUARDED_BY(mu_);

  /// Group-commit state. sync_mu_ is never held across the fsync itself.
  mutable Mutex sync_mu_ ACQUIRED_AFTER("StorageEngine::commit_mu_");
  CondVar sync_cv_{&sync_mu_};
  bool sync_active_ GUARDED_BY(sync_mu_) = false;
  uint64_t synced_offset_ GUARDED_BY(sync_mu_) = 0;
  uint64_t epoch_ GUARDED_BY(sync_mu_) = 0;
};

}  // namespace heaven

#endif  // HEAVEN_STORAGE_WAL_H_
