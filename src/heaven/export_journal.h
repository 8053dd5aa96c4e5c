#ifndef HEAVEN_HEAVEN_EXPORT_JOURNAL_H_
#define HEAVEN_HEAVEN_EXPORT_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "array/mdd.h"
#include "common/env.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace heaven {

/// Intent log of every tape-writing mutator, making tape writes
/// crash-safe. It holds what is open: the intent of a mutation that is
/// appending to tape (durable before its first append, closed after its
/// catalog commit) and the TCT's queued exports. A kill mid-mutation
/// leaves an open intent (or an unfinished queued export), which tells the
/// reopen to roll the orphaned tape tails back and re-enqueue the
/// unfinished objects. A close shrinks the log to what stays open (nothing,
/// or one kPending frame per queued export, written through the crash-safe
/// ReplaceFileContents), so it stays bounded. Records are Framed like
/// WAL records; a torn tail (the crash interrupting the journal itself) is
/// detected by checksum and discarded. A record's payload is
/// [u8 kind][u64 object_id].
class ExportJournal {
 public:
  /// Opens (creating if absent) the journal at `path` via RecoverFileReplace
  /// and replays every intact record into what it holds open; the scan
  /// stops at the first torn or corrupt frame and the file is truncated to
  /// the valid prefix.
  static Result<std::unique_ptr<ExportJournal>> Open(Env* env,
                                                     const std::string& path);

  ExportJournal(const ExportJournal&) = delete;
  ExportJournal& operator=(const ExportJournal&) = delete;

  /// Whether a mutation's intent is open: its tape appends may be orphans.
  bool intent_open() const EXCLUDES(mu_);
  /// Objects with a queued export not yet closed.
  std::set<ObjectId> pending() const EXCLUDES(mu_);

  /// `object_id` joined the TCT queue.
  Status LogPending(ObjectId object_id) EXCLUDES(mu_);
  /// A mutation exporting `object_id` (0: none) is about to append to tape.
  Status LogIntent(ObjectId object_id) EXCLUDES(mu_);
  /// Closes the open intent and one queued export of `object_id`, then
  /// shrinks the log to what stays open. Closing nothing writes nothing.
  Status LogCommitted(ObjectId object_id) EXCLUDES(mu_);

  /// Makes `pending` all the journal holds open, closing the intent;
  /// recovery calls it once it has acted on the replayed state.
  Status Restart(const std::set<ObjectId>& pending) EXCLUDES(mu_);

 private:
  enum class Kind : uint8_t {
    kPending = 1,    // object handed to the TCT, export not finished
    kIntent = 2,     // a mutation is about to append to tape
    kCommitted = 3,  // a close; replayed from older journals, never written
  };

  ExportJournal(Env* env, std::string path, std::unique_ptr<File> file);

  /// Makes the record durable, then applies it.
  Status Log(Kind kind, ObjectId object_id) REQUIRES(mu_);
  /// Replaces the log with one kPending frame per entry of `pending` (an
  /// empty log when there is none) and makes that all it holds open. A
  /// crash replays the state before or after.
  Status Compact(std::multiset<ObjectId> pending) REQUIRES(mu_);
  /// The record's effect on what the journal holds open.
  void Apply(Kind kind, ObjectId object_id) REQUIRES(mu_);

  mutable Mutex mu_;  // analyze: leaf-lock
  Env* env_;                // analyze: unguarded(fixed at Open)
  const std::string path_;  // analyze: unguarded(fixed at Open)
  /// Written under mu_ once the journal is shared; the Open-time replay
  /// and truncate happen before any other thread can see the object.
  std::unique_ptr<File> file_;  // analyze: unguarded(pre-publish in Open)
  uint64_t end_ GUARDED_BY(mu_) = 0;  // append position
  bool intent_open_ GUARDED_BY(mu_) = false;
  std::multiset<ObjectId> pending_ GUARDED_BY(mu_);
};

}  // namespace heaven

#endif  // HEAVEN_HEAVEN_EXPORT_JOURNAL_H_
