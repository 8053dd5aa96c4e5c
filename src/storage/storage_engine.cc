#include "storage/storage_engine.h"

#include <set>
#include <thread>

#include "common/coding.h"
#include "common/logging.h"

namespace heaven {

namespace {
constexpr char kPagesFile[] = "/pages.db";
constexpr char kWalFile[] = "/wal.log";
constexpr char kCheckpointFile[] = "/checkpoint.db";
}  // namespace

// ---------------------------------------------------------------- Txn --

Transaction::~Transaction() {
  if (!finished_) Abort();
}

void Transaction::PutBlob(BlobId blob_id, std::string data) {
  HEAVEN_CHECK(!finished_);
  WalRecord record;
  record.txn_id = id_;
  record.op = WalOp::kPutBlob;
  record.blob_id = blob_id;
  record.payload = std::move(data);
  records_.push_back(std::move(record));
}

void Transaction::DeleteBlob(BlobId blob_id) {
  HEAVEN_CHECK(!finished_);
  WalRecord record;
  record.txn_id = id_;
  record.op = WalOp::kDeleteBlob;
  record.blob_id = blob_id;
  records_.push_back(std::move(record));
}

void Transaction::UpdateCatalog(const CatalogDelta& delta) {
  HEAVEN_CHECK(!finished_);
  WalRecord record;
  record.txn_id = id_;
  record.op = WalOp::kCatalogUpdate;
  record.payload = delta.Encode();
  records_.push_back(std::move(record));
}

Result<std::string> Transaction::GetBlob(BlobId blob_id) const {
  // Read-your-writes: the latest staged operation for the blob wins.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->op == WalOp::kPutBlob && it->blob_id == blob_id) {
      return it->payload;
    }
    if (it->op == WalOp::kDeleteBlob && it->blob_id == blob_id) {
      return Status::NotFound("blob deleted in this transaction");
    }
  }
  return engine_->blobs()->Get(blob_id);
}

Status Transaction::Commit() {
  HEAVEN_CHECK(!finished_);
  Status status = engine_->CommitTransaction(this);
  finished_ = true;
  records_.clear();
  return status;
}

void Transaction::Abort() {
  finished_ = true;
  records_.clear();
}

// -------------------------------------------------------------- Engine --

StorageEngine::StorageEngine(Env* env, std::string dir,
                             StorageOptions options, Statistics* stats)
    : env_(env), dir_(std::move(dir)), options_(options), stats_(stats) {}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    Env* env, const std::string& dir, const StorageOptions& options,
    Statistics* stats) {
  HEAVEN_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  std::unique_ptr<StorageEngine> engine(
      new StorageEngine(env, dir, options, stats));
  HEAVEN_ASSIGN_OR_RETURN(
      engine->disk_, DiskManager::Open(env, dir + kPagesFile, stats));
  size_t stripes = options.buffer_pool_stripes;
  if (stripes == 0) {
    // Auto: one stripe per hardware thread, but keep a useful number of
    // frames per stripe so a stripe can always make eviction progress.
    stripes = std::max<size_t>(1, std::thread::hardware_concurrency());
    constexpr size_t kMinPagesPerStripe = 64;
    stripes = std::min(
        stripes,
        std::max<size_t>(1, options.buffer_pool_pages / kMinPagesPerStripe));
  }
  engine->pool_ = std::make_unique<BufferPool>(
      engine->disk_.get(), options.buffer_pool_pages, stats, stripes);
  engine->blob_store_ =
      std::make_unique<BlobStore>(engine->disk_.get(), engine->pool_.get());
  HEAVEN_ASSIGN_OR_RETURN(engine->wal_, Wal::Open(env, dir + kWalFile, stats));
  HEAVEN_RETURN_IF_ERROR(engine->Recover());
  return engine;
}

StorageEngine::~StorageEngine() {
  if (pool_ != nullptr) {
    Status status = pool_->FlushAll();
    if (!status.ok()) {
      HEAVEN_LOG(Error) << "flush on close failed: " << status.ToString();
    }
  }
}

Status StorageEngine::Recover() {
  // 1. Load the last checkpoint, if any, finishing an interrupted one. Its
  //    blob directory claims its pages: every other page is free, so the
  //    replay frees a blob deleted since the checkpoint exactly once.
  HEAVEN_ASSIGN_OR_RETURN(const std::string image,
                          RecoverFileReplace(env_, dir_ + kCheckpointFile));
  if (!image.empty()) {
    Decoder dec(image);
    uint32_t crc = 0;
    HEAVEN_RETURN_IF_ERROR(dec.GetFixed32(&crc));
    if (Crc32c(std::string_view(image).substr(4)) != crc) {
      return Status::Corruption("checkpoint checksum mismatch");
    }
    std::string blob_dir;
    std::string catalog_image;
    HEAVEN_RETURN_IF_ERROR(dec.GetLengthPrefixed(&blob_dir));
    HEAVEN_RETURN_IF_ERROR(dec.GetLengthPrefixed(&catalog_image));
    HEAVEN_RETURN_IF_ERROR(blob_store_->RestoreDirectory(blob_dir));
    HEAVEN_RETURN_IF_ERROR(catalog_.Restore(catalog_image));
  }

  // 2. Replay the WAL suffix: only operations of committed transactions.
  HEAVEN_ASSIGN_OR_RETURN(std::vector<WalRecord> records, wal_->ReadAll());
  std::set<uint64_t> committed;
  uint64_t max_txn_id = 0;
  for (const WalRecord& record : records) {
    max_txn_id = std::max(max_txn_id, record.txn_id);
    if (record.op == WalOp::kCommit) committed.insert(record.txn_id);
  }
  for (const WalRecord& record : records) {
    if (record.op == WalOp::kCommit || record.op == WalOp::kAbort) continue;
    if (committed.count(record.txn_id) == 0) continue;
    HEAVEN_RETURN_IF_ERROR(ApplyRecord(record));
  }
  next_txn_id_.store(max_txn_id + 1);
  return Status::Ok();
}

std::unique_ptr<Transaction> StorageEngine::Begin() {
  return std::unique_ptr<Transaction>(
      new Transaction(this, next_txn_id_.fetch_add(1)));
}

Status StorageEngine::PutBlobAtomic(BlobId blob_id, std::string data) {
  std::unique_ptr<Transaction> txn = Begin();
  txn->PutBlob(blob_id, std::move(data));
  return txn->Commit();
}

Status StorageEngine::ApplyCatalogAtomic(const CatalogDelta& delta) {
  std::unique_ptr<Transaction> txn = Begin();
  txn->UpdateCatalog(delta);
  return txn->Commit();
}

Status StorageEngine::CommitTransaction(Transaction* txn) {
  uint64_t commit_end = 0;
  uint64_t epoch = 0;
  {
    MutexLock lock(commit_mu_);
    epoch = wal_->Epoch();
    // WAL first (redo rule), then apply.
    for (const WalRecord& record : txn->records_) {
      HEAVEN_RETURN_IF_ERROR(wal_->Append(record));
    }
    WalRecord commit;
    commit.txn_id = txn->id_;
    commit.op = WalOp::kCommit;
    HEAVEN_RETURN_IF_ERROR(wal_->Append(commit, &commit_end));
    txn->applied_ = true;
    for (const WalRecord& record : txn->records_) {
      HEAVEN_RETURN_IF_ERROR(ApplyRecord(record));
    }
    if (wal_->SizeBytes() > options_.checkpoint_wal_bytes) {
      HEAVEN_RETURN_IF_ERROR(Checkpoint());
    }
  }
  if (options_.sync_on_commit) {
    // Outside commit_mu_, so concurrent committers group-commit: one
    // leader's fsync covers every record appended before it ran. A
    // transaction is durable once its commit marker is synced, or once a
    // checkpoint (which snapshots blobs + catalog) superseded the log —
    // SyncTo resolves both via (commit_end, epoch). Applying before the
    // sync is safe: data applied for a never-synced commit is invisible
    // after recovery because the blob directory and catalog are rebuilt
    // from the checkpoint plus the committed WAL suffix.
    HEAVEN_RETURN_IF_ERROR(wal_->SyncTo(commit_end, epoch));
  }
  return Status::Ok();
}

Status StorageEngine::ApplyRecord(const WalRecord& record) {
  switch (record.op) {
    case WalOp::kPutBlob:
      return blob_store_->Put(record.blob_id, record.payload);
    case WalOp::kDeleteBlob: {
      Status status = blob_store_->Delete(record.blob_id);
      // Replays may re-delete; treat NotFound as success.
      if (status.IsNotFound()) return Status::Ok();
      return status;
    }
    case WalOp::kCatalogUpdate: {
      HEAVEN_ASSIGN_OR_RETURN(CatalogDelta delta,
                              CatalogDelta::Decode(record.payload));
      Status status = catalog_.Apply(delta);
      if (status.IsNotFound()) return Status::Ok();  // replay tolerance
      return status;
    }
    case WalOp::kCommit:
    case WalOp::kAbort:
      return Status::Ok();
  }
  return Status::Corruption("unknown WAL op");
}

Status StorageEngine::Checkpoint() {
  HEAVEN_RETURN_IF_ERROR(pool_->FlushAll());
  std::string body;
  PutLengthPrefixed(&body, blob_store_->SerializeDirectory());
  PutLengthPrefixed(&body, catalog_.Serialize());
  std::string image;
  PutFixed32(&image, Crc32c(body));
  image.append(body);

  // The WAL may go only once the new image is durable.
  HEAVEN_RETURN_IF_ERROR(
      ReplaceFileContents(env_, dir_ + kCheckpointFile, image));
  return wal_->Reset();
}

uint64_t StorageEngine::WalBytes() const { return wal_->SizeBytes(); }

}  // namespace heaven
