#include "heaven/export_journal.h"

#include "common/coding.h"
#include "common/logging.h"

namespace heaven {

ExportJournal::ExportJournal(std::unique_ptr<File> file)
    : file_(std::move(file)) {}

Result<std::unique_ptr<ExportJournal>> ExportJournal::Open(
    Env* env, const std::string& path) {
  HEAVEN_ASSIGN_OR_RETURN(std::unique_ptr<File> file, env->OpenFile(path));
  HEAVEN_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  std::string image;
  if (size > 0) {
    HEAVEN_RETURN_IF_ERROR(file->ReadAt(0, size, &image));
  }
  std::unique_ptr<ExportJournal> journal(new ExportJournal(std::move(file)));
  MutexLock lock(journal->mu_);

  // Scan intact frames; a torn/corrupt frame ends the journal (it is the
  // crash's own tail — by construction nothing after it ever mattered).
  size_t pos = 0;
  while (pos + 8 <= image.size()) {
    Decoder header(std::string_view(image).substr(pos, 8));
    uint32_t len = 0;
    uint32_t crc = 0;
    HEAVEN_RETURN_IF_ERROR(header.GetFixed32(&len));
    HEAVEN_RETURN_IF_ERROR(header.GetFixed32(&crc));
    if (pos + 8 + len > image.size()) break;  // torn frame
    const std::string_view payload =
        std::string_view(image).substr(pos + 8, len);
    if (Crc32c(payload) != crc) break;  // corrupt frame
    // Bytes past the object id are ignored: the per-container records of
    // older journals share kind 2 and replay as the open intent they imply.
    Decoder dec(payload);
    std::string kind;
    uint64_t object_id = 0;
    if (!dec.GetRaw(1, &kind).ok() || kind[0] < 1 || kind[0] > 3 ||
        !dec.GetFixed64(&object_id).ok()) {
      break;  // undecodable frame
    }
    journal->Apply(static_cast<Kind>(kind[0]), object_id);
    pos += 8 + len;
  }
  if (pos < image.size()) {
    HEAVEN_LOG(Warning) << "export journal " << path << ": discarding "
                        << (image.size() - pos) << " torn tail bytes";
    HEAVEN_RETURN_IF_ERROR(journal->file_->Truncate(pos));
  }
  journal->end_ = pos;
  return journal;
}

bool ExportJournal::intent_open() const {
  MutexLock lock(mu_);
  return intent_open_;
}

std::set<ObjectId> ExportJournal::pending() const {
  MutexLock lock(mu_);
  return std::set<ObjectId>(pending_.begin(), pending_.end());
}

Status ExportJournal::Log(Kind kind, ObjectId object_id) {
  std::string payload(1, static_cast<char>(kind));
  PutFixed64(&payload, object_id);
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, Crc32c(payload));
  frame.append(payload);
  HEAVEN_RETURN_IF_ERROR(file_->WriteAt(end_, frame));
  HEAVEN_RETURN_IF_ERROR(file_->Sync());
  end_ += frame.size();
  Apply(kind, object_id);
  return Status::Ok();
}

void ExportJournal::Apply(Kind kind, ObjectId object_id) {
  switch (kind) {
    case Kind::kPending:
      pending_.insert(object_id);
      break;
    case Kind::kIntent:
      intent_open_ = true;
      break;
    case Kind::kCommitted: {
      intent_open_ = false;
      const auto it = pending_.find(object_id);
      if (it != pending_.end()) pending_.erase(it);
      break;
    }
  }
}

Status ExportJournal::LogPending(ObjectId object_id) {
  MutexLock lock(mu_);
  return Log(Kind::kPending, object_id);
}

Status ExportJournal::LogIntent(ObjectId object_id) {
  MutexLock lock(mu_);
  return Log(Kind::kIntent, object_id);
}

Status ExportJournal::LogCommitted(ObjectId object_id) {
  MutexLock lock(mu_);
  const bool closes_pending = pending_.find(object_id) != pending_.end();
  if (!intent_open_ && !closes_pending) return Status::Ok();
  if (pending_.size() > (closes_pending ? 1u : 0u)) {
    return Log(Kind::kCommitted, object_id);
  }
  // Nothing stays open: an empty log says so for good.
  HEAVEN_RETURN_IF_ERROR(file_->Truncate(0));
  end_ = 0;
  Apply(Kind::kCommitted, object_id);
  return Status::Ok();
}

Status ExportJournal::Reset() {
  MutexLock lock(mu_);
  HEAVEN_RETURN_IF_ERROR(file_->Truncate(0));
  end_ = 0;
  intent_open_ = false;
  pending_.clear();
  return Status::Ok();
}

}  // namespace heaven
