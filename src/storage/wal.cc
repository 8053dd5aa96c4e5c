#include "storage/wal.h"

#include "common/coding.h"
#include "common/logging.h"

namespace heaven {

Result<std::unique_ptr<Wal>> Wal::Open(Env* env, const std::string& path,
                                       Statistics* stats) {
  HEAVEN_ASSIGN_OR_RETURN(std::unique_ptr<File> file, env->OpenFile(path));
  HEAVEN_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  return std::unique_ptr<Wal>(new Wal(std::move(file), size, stats));
}

Status Wal::Append(const WalRecord& record, uint64_t* end_offset) {
  std::string payload;
  PutFixed64(&payload, record.txn_id);
  payload.push_back(static_cast<char>(record.op));
  PutFixed64(&payload, record.blob_id);
  PutLengthPrefixed(&payload, record.payload);

  const std::string framed = Framed(payload);

  MutexLock lock(mu_);
  HEAVEN_RETURN_IF_ERROR(file_->WriteAt(append_offset_, framed));
  append_offset_ += framed.size();
  if (end_offset != nullptr) *end_offset = append_offset_;
  return Status::Ok();
}

Status Wal::SyncTo(uint64_t target_offset, uint64_t epoch) {
  MutexLock lock(sync_mu_);
  for (;;) {
    if (epoch_ != epoch) {
      // The log was reset since the bytes were appended: the checkpoint
      // that reset it already made their effects durable.
      if (stats_ != nullptr) stats_->Record(Ticker::kWalSyncsCoalesced);
      return Status::Ok();
    }
    if (synced_offset_ >= target_offset) {
      // A concurrent leader's fsync covered us.
      if (stats_ != nullptr) stats_->Record(Ticker::kWalSyncsCoalesced);
      return Status::Ok();
    }
    if (!sync_active_) break;
    sync_cv_.Wait(lock);
  }
  // Become the sync leader: one fsync covers everything appended so far,
  // including records of committers that will arrive at SyncTo after us.
  sync_active_ = true;
  uint64_t flush_to = 0;
  {
    MutexLock append_lock(mu_);
    flush_to = append_offset_;
  }
  lock.Unlock();
  Status status = file_->Sync();
  lock.Lock();
  sync_active_ = false;
  if (status.ok() && epoch_ == epoch) {
    synced_offset_ = std::max(synced_offset_, flush_to);
  }
  if (stats_ != nullptr) stats_->Record(Ticker::kWalSyncs);
  sync_cv_.NotifyAll();
  return status;
}

Result<std::vector<WalRecord>> Wal::ReadAll() {
  std::string contents;
  {
    MutexLock lock(mu_);
    if (append_offset_ == 0) return std::vector<WalRecord>{};
    HEAVEN_RETURN_IF_ERROR(file_->ReadAt(0, append_offset_, &contents));
  }
  std::vector<WalRecord> records;
  Decoder dec(contents);
  std::string_view payload;
  while (dec.GetFramed(&payload).ok()) {  // a torn or corrupt tail ends it
    Decoder body(payload);
    WalRecord record;
    HEAVEN_RETURN_IF_ERROR(body.GetFixed64(&record.txn_id));
    std::string op_byte;
    HEAVEN_RETURN_IF_ERROR(body.GetRaw(1, &op_byte));
    record.op = static_cast<WalOp>(static_cast<uint8_t>(op_byte[0]));
    HEAVEN_RETURN_IF_ERROR(body.GetFixed64(&record.blob_id));
    HEAVEN_RETURN_IF_ERROR(body.GetLengthPrefixed(&record.payload));
    records.push_back(std::move(record));
  }
  return records;
}

Status Wal::Reset() {
  // Take both locks: no append may interleave with the truncate, and the
  // epoch bump must be visible to any SyncTo still holding a target.
  MutexLock sync_lock(sync_mu_);
  MutexLock lock(mu_);
  HEAVEN_RETURN_IF_ERROR(file_->Truncate(0));
  append_offset_ = 0;
  synced_offset_ = 0;
  ++epoch_;
  return file_->Sync();
}

uint64_t Wal::SizeBytes() const {
  MutexLock lock(mu_);
  return append_offset_;
}

uint64_t Wal::Epoch() const {
  MutexLock lock(sync_mu_);
  return epoch_;
}

}  // namespace heaven
