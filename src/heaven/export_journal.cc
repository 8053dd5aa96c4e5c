#include "heaven/export_journal.h"

#include "common/coding.h"
#include "common/logging.h"

namespace heaven {

namespace {

/// The frame of one record: [u8 kind][u64 object_id].
std::string Record(uint8_t kind, ObjectId object_id) {
  std::string payload(1, static_cast<char>(kind));
  PutFixed64(&payload, object_id);
  return Framed(payload);
}

}  // namespace

ExportJournal::ExportJournal(Env* env, std::string path,
                             std::unique_ptr<File> file)
    : env_(env), path_(std::move(path)), file_(std::move(file)) {}

Result<std::unique_ptr<ExportJournal>> ExportJournal::Open(
    Env* env, const std::string& path) {
  HEAVEN_ASSIGN_OR_RETURN(const std::string image,
                          RecoverFileReplace(env, path));
  HEAVEN_ASSIGN_OR_RETURN(std::unique_ptr<File> file, env->OpenFile(path));
  std::unique_ptr<ExportJournal> journal(
      new ExportJournal(env, path, std::move(file)));
  MutexLock lock(journal->mu_);

  // Scan intact frames; a torn/corrupt frame ends the journal (it is the
  // crash's own tail — by construction nothing after it ever mattered).
  Decoder frames(image);
  size_t pos = 0;
  std::string_view payload;
  while (frames.GetFramed(&payload).ok()) {
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
    pos = frames.position();
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
  const std::string frame = Record(static_cast<uint8_t>(kind), object_id);
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
  std::multiset<ObjectId> still_pending = pending_;
  const auto closed = still_pending.find(object_id);
  if (!intent_open_ && closed == still_pending.end()) return Status::Ok();
  if (closed != still_pending.end()) still_pending.erase(closed);
  return Compact(std::move(still_pending));
}

Status ExportJournal::Restart(const std::set<ObjectId>& pending) {
  MutexLock lock(mu_);
  return Compact(std::multiset<ObjectId>(pending.begin(), pending.end()));
}

Status ExportJournal::Compact(std::multiset<ObjectId> pending) {
  std::string image;
  for (ObjectId object_id : pending) {
    image += Record(static_cast<uint8_t>(Kind::kPending), object_id);
  }
  if (image.empty()) {
    // Nothing stays open: an empty log says so for good.
    HEAVEN_RETURN_IF_ERROR(file_->Truncate(0));
  } else {
    HEAVEN_RETURN_IF_ERROR(ReplaceFileContents(env_, path_, image));
  }
  end_ = image.size();
  intent_open_ = false;
  pending_ = std::move(pending);
  return Status::Ok();
}

}  // namespace heaven
