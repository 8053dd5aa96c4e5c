#include "tertiary/tape_library.h"

#include <algorithm>
#include <sstream>

#include "common/admission.h"
#include "common/fault_injection.h"
#include "common/logging.h"

namespace heaven {

TapeLibrary::TapeLibrary(const TapeLibraryOptions& options, Statistics* stats)
    : options_(options), stats_(stats) {
  HEAVEN_CHECK(options_.num_drives >= 1);
  HEAVEN_CHECK(options_.num_media >= 1);
  drives_.resize(options_.num_drives);
  media_.resize(options_.num_media);
  // Spans across the whole hierarchy are timestamped on the tape clock, so
  // exchange/seek/transfer span durations equal the analytic cost advances.
  if (stats_ != nullptr) stats_->trace()->SetClock(&clock_);
}

TapeLibrary::TapeLibrary(const TapeLibraryOptions& options, Statistics* stats,
                         Env* env, const std::string& dir)
    : TapeLibrary(options, stats) {
  env_ = env;
  dir_ = dir;
}

void TapeLibrary::SetFaultInjector(FaultInjector* injector) {
  MutexLock lock(mu_);
  injector_ = injector;
}

void TapeLibrary::SetCircuitBreaker(CircuitBreaker* breaker) {
  MutexLock lock(mu_);
  breaker_ = breaker;
}

bool TapeLibrary::DriveServableLocked(DriveId drive) const {
  if (drives_[drive].offline) return false;
  return breaker_ == nullptr || breaker_->WouldAllow(drive);
}

std::string TapeLibrary::MediumPath(MediumId medium) const {
  return dir_ + "/medium_" + std::to_string(medium) + ".tape";
}

Status TapeLibrary::LoadPersistedMedia() {
  if (env_ == nullptr) return Status::Ok();
  HEAVEN_RETURN_IF_ERROR(env_->CreateDirIfMissing(dir_));
  MutexLock lock(mu_);
  for (MediumId m = 0; m < media_.size(); ++m) {
    HEAVEN_ASSIGN_OR_RETURN(media_[m].file, env_->OpenFile(MediumPath(m)));
    HEAVEN_ASSIGN_OR_RETURN(media_[m].data, media_[m].file->ReadAll());
  }
  return Status::Ok();
}

Result<DriveId> TapeLibrary::EnsureLoadedLocked(MediumId medium_id) {
  if (medium_id >= media_.size()) {
    return Status::InvalidArgument("bad medium id");
  }
  Medium& medium = media_[medium_id];
  if (medium.loaded) {
    if (DriveServableLocked(medium.drive)) {
      drives_[medium.drive].last_used_seq = ++use_seq_;
      if (breaker_ != nullptr) breaker_->OnOpStart(medium.drive);
      return medium.drive;
    }
    // The holding drive is circuit-broken: unload and fail over to another
    // drive below, paying the real robot cost of the move.
    Drive& broken = drives_[medium.drive];
    clock_.Advance(options_.profile.unload_s +
                   options_.profile.robot_exchange_s);
    if (stats_ != nullptr) stats_->Record(Ticker::kRobotMoves);
    broken.occupied = false;
    medium.loaded = false;
  }

  if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kExchangeJam)) {
    return Status::IOError("injected robot jam exchanging medium " +
                           std::to_string(medium_id));
  }

  // One exchange span covers the whole robot action: unloading the LRU
  // victim (when no drive is free) plus fetching and threading `medium`.
  ScopedSpan exchange_span(stats_ != nullptr ? stats_->trace() : nullptr,
                           "tape.exchange");
  const double exchange_start = clock_.Now();

  // Pick a free online drive, else unload the least-recently-used online
  // one. Offline (failed) drives never serve again — the batch fails over
  // to the survivors.
  DriveId drive_id = 0;
  bool found_free = false;
  for (DriveId d = 0; d < drives_.size(); ++d) {
    if (!drives_[d].occupied && DriveServableLocked(d)) {
      drive_id = d;
      found_free = true;
      break;
    }
  }
  const TapeDriveProfile& profile = options_.profile;
  if (!found_free) {
    bool found_victim = false;
    for (DriveId d = 0; d < drives_.size(); ++d) {
      if (!DriveServableLocked(d)) continue;
      if (!found_victim ||
          drives_[d].last_used_seq < drives_[drive_id].last_used_seq) {
        drive_id = d;
        found_victim = true;
      }
    }
    if (!found_victim) {
      return Status::IOError(
          "no online tape drives (or all circuit-broken) to load medium " +
          std::to_string(medium_id));
    }
    Drive& drive = drives_[drive_id];
    media_[drive.medium].loaded = false;
    clock_.Advance(profile.unload_s + profile.robot_exchange_s);
    if (stats_ != nullptr) stats_->Record(Ticker::kRobotMoves);
    drive.occupied = false;
  }

  // Robot fetches the cartridge and the drive threads it.
  clock_.Advance(profile.robot_exchange_s + profile.load_s);
  if (stats_ != nullptr) {
    stats_->Record(Ticker::kRobotMoves);
    stats_->Record(Ticker::kTapeMediaExchanges);
  }
  Drive& drive = drives_[drive_id];
  drive.occupied = true;
  drive.medium = medium_id;
  drive.head_position = 0;  // load rewinds
  drive.last_used_seq = ++use_seq_;
  medium.loaded = true;
  medium.drive = drive_id;
  RecordTraceLocked(TapeTraceEvent::Kind::kExchange, medium_id, 0, 0,
                    profile.robot_exchange_s + profile.load_s);
  if (stats_ != nullptr) {
    stats_->RecordHistogram(HistogramKind::kTapeExchangeSeconds,
                            clock_.Now() - exchange_start);
  }
  if (breaker_ != nullptr) breaker_->OnOpStart(drive_id);
  return drive_id;
}

void TapeLibrary::SeekLocked(DriveId drive_id, uint64_t offset) {
  // Every discrete request pays the fixed positioning overhead, even when
  // head-contiguous: linear tape drives stop between commands and must
  // backhitch/reposition before the next transfer.
  Drive& drive = drives_[drive_id];
  const uint64_t distance = drive.head_position > offset
                                ? drive.head_position - offset
                                : offset - drive.head_position;
  const double seconds = options_.profile.SeekSeconds(distance);
  {
    ScopedSpan span(stats_ != nullptr ? stats_->trace() : nullptr,
                    "tape.seek");
    clock_.Advance(seconds);
  }
  if (stats_ != nullptr) {
    stats_->Record(Ticker::kTapeSeeks);
    stats_->Record(Ticker::kTapeSeekSeconds,
                   static_cast<uint64_t>(seconds + 0.5));
    stats_->RecordHistogram(HistogramKind::kTapeSeekSeconds, seconds);
  }
  RecordTraceLocked(TapeTraceEvent::Kind::kSeek, drive.medium, offset,
                    distance, seconds);
  drive.head_position = offset;
}

Result<uint64_t> TapeLibrary::Append(MediumId medium_id,
                                     std::string_view data) {
  MutexLock lock(mu_);
  if (medium_id >= media_.size()) {
    return Status::InvalidArgument("bad medium id");
  }
  Medium& medium = media_[medium_id];
  if (medium.data.size() + data.size() > options_.profile.capacity_bytes) {
    return Status::ResourceExhausted("medium " + std::to_string(medium_id) +
                                     " is full");
  }
  HEAVEN_ASSIGN_OR_RETURN(DriveId drive_id, EnsureLoadedLocked(medium_id));
  if (injector_ != nullptr) {
    if (injector_->ShouldFail(FaultSite::kDriveFailure)) {
      TakeDriveOfflineLocked(drive_id);
      if (breaker_ != nullptr) breaker_->RecordFailure(drive_id);
      return Status::IOError("injected failure of tape drive " +
                             std::to_string(drive_id) + " writing medium " +
                             std::to_string(medium_id));
    }
    if (injector_->ShouldFail(FaultSite::kTapeWrite)) {
      if (breaker_ != nullptr) breaker_->RecordFailure(drive_id);
      return Status::IOError("injected transient write error on medium " +
                             std::to_string(medium_id));
    }
  }
  const uint64_t offset = medium.data.size();
  SeekLocked(drive_id, offset);
  const double transfer_seconds =
      options_.profile.TransferSeconds(data.size());
  {
    ScopedSpan span(stats_ != nullptr ? stats_->trace() : nullptr,
                    "tape.transfer");
    span.SetBytes(data.size());
    clock_.Advance(transfer_seconds);
  }
  if (stats_ != nullptr) {
    stats_->RecordHistogram(HistogramKind::kTapeTransferSeconds,
                            transfer_seconds);
  }
  if (medium.file != nullptr) {
    HEAVEN_RETURN_IF_ERROR(medium.file->WriteAt(medium.data.size(), data));
  }
  medium.data.append(data);
  drives_[drive_id].head_position = medium.data.size();
  if (stats_ != nullptr) {
    stats_->Record(Ticker::kTapeWriteRequests);
    stats_->Record(Ticker::kTapeBytesWritten, data.size());
  }
  RecordTraceLocked(TapeTraceEvent::Kind::kWrite, medium_id, offset,
                    data.size(), options_.profile.TransferSeconds(data.size()));
  if (breaker_ != nullptr) breaker_->RecordSuccess(drive_id);
  return offset;
}

Status TapeLibrary::ReadAt(MediumId medium_id, uint64_t offset, uint64_t n,
                           std::string* out) {
  MutexLock lock(mu_);
  if (medium_id >= media_.size()) {
    return Status::InvalidArgument("bad medium id");
  }
  Medium& medium = media_[medium_id];
  if (offset + n > medium.data.size()) {
    return Status::OutOfRange("read past end of written extent");
  }
  HEAVEN_ASSIGN_OR_RETURN(DriveId drive_id, EnsureLoadedLocked(medium_id));
  if (injector_ != nullptr) {
    if (injector_->ShouldFail(FaultSite::kDriveFailure)) {
      TakeDriveOfflineLocked(drive_id);
      if (breaker_ != nullptr) breaker_->RecordFailure(drive_id);
      return Status::IOError("injected failure of tape drive " +
                             std::to_string(drive_id) + " reading medium " +
                             std::to_string(medium_id));
    }
    if (injector_->ShouldFail(FaultSite::kTapeRead)) {
      if (breaker_ != nullptr) breaker_->RecordFailure(drive_id);
      return Status::IOError("injected transient read error on medium " +
                             std::to_string(medium_id));
    }
  }
  SeekLocked(drive_id, offset);
  const double transfer_seconds = options_.profile.TransferSeconds(n);
  {
    ScopedSpan span(stats_ != nullptr ? stats_->trace() : nullptr,
                    "tape.transfer");
    span.SetBytes(n);
    clock_.Advance(transfer_seconds);
  }
  if (stats_ != nullptr) {
    stats_->RecordHistogram(HistogramKind::kTapeTransferSeconds,
                            transfer_seconds);
  }
  out->assign(medium.data, offset, n);
  if (n > 0 && injector_ != nullptr &&
      injector_->ShouldFail(FaultSite::kBitRot)) {
    // Silent read-channel corruption: the medium itself stays intact, so a
    // re-fetch after CRC detection can succeed.
    const uint64_t victim = injector_->Draw(FaultSite::kBitRot, n);
    (*out)[victim] = static_cast<char>((*out)[victim] ^ 0x40);
  }
  drives_[drive_id].head_position = offset + n;
  if (stats_ != nullptr) {
    stats_->Record(Ticker::kTapeReadRequests);
    stats_->Record(Ticker::kTapeBytesRead, n);
  }
  RecordTraceLocked(TapeTraceEvent::Kind::kRead, medium_id, offset, n,
                    options_.profile.TransferSeconds(n));
  if (breaker_ != nullptr) breaker_->RecordSuccess(drive_id);
  return Status::Ok();
}

Status TapeLibrary::EraseMedium(MediumId medium_id) {
  MutexLock lock(mu_);
  if (medium_id >= media_.size()) {
    return Status::InvalidArgument("bad medium id");
  }
  Medium& medium = media_[medium_id];
  if (medium.loaded) {
    Drive& drive = drives_[medium.drive];
    clock_.Advance(options_.profile.unload_s +
                   options_.profile.robot_exchange_s);
    if (stats_ != nullptr) stats_->Record(Ticker::kRobotMoves);
    drive.occupied = false;
    medium.loaded = false;
  }
  RecordTraceLocked(TapeTraceEvent::Kind::kErase, medium_id, 0,
                    medium.data.size(), 0.0);
  if (medium.file != nullptr) {
    HEAVEN_RETURN_IF_ERROR(medium.file->Truncate(0));
  }
  medium.data.clear();
  return Status::Ok();
}

void TapeLibrary::TakeDriveOfflineLocked(DriveId drive_id) {
  Drive& drive = drives_[drive_id];
  drive.offline = true;
  if (drive.occupied) {
    media_[drive.medium].loaded = false;
    drive.occupied = false;
  }
  if (stats_ != nullptr) stats_->Record(Ticker::kTapeDriveFailures);
  HEAVEN_LOG(Warning) << "tape drive " << drive_id
                      << " failed and is offline";
}

Status TapeLibrary::FailDriveForTesting(DriveId drive_id) {
  MutexLock lock(mu_);
  if (drive_id >= drives_.size()) {
    return Status::InvalidArgument("bad drive id");
  }
  if (drives_[drive_id].offline) return Status::Ok();
  TakeDriveOfflineLocked(drive_id);
  return Status::Ok();
}

uint32_t TapeLibrary::OnlineDrives() const {
  MutexLock lock(mu_);
  uint32_t online = 0;
  for (const Drive& drive : drives_) {
    if (!drive.offline) ++online;
  }
  return online;
}

std::vector<TapeDriveState> TapeLibrary::DriveStates() const {
  MutexLock lock(mu_);
  std::vector<TapeDriveState> out;
  out.reserve(drives_.size());
  for (const Drive& drive : drives_) {
    TapeDriveState state;
    state.online = !drive.offline;
    state.occupied = drive.occupied;
    state.medium = drive.medium;
    state.head_position = drive.head_position;
    out.push_back(state);
  }
  return out;
}

Status TapeLibrary::TruncateMediumForRecovery(MediumId medium_id,
                                              uint64_t end) {
  MutexLock lock(mu_);
  if (medium_id >= media_.size()) {
    return Status::InvalidArgument("bad medium id");
  }
  Medium& medium = media_[medium_id];
  if (medium.data.size() <= end) return Status::Ok();
  medium.data.resize(end);
  if (medium.file != nullptr) {
    HEAVEN_RETURN_IF_ERROR(medium.file->Truncate(end));
  }
  if (medium.loaded && drives_[medium.drive].head_position > end) {
    drives_[medium.drive].head_position = end;
  }
  return Status::Ok();
}

Status TapeLibrary::CorruptByteForTesting(MediumId medium_id,
                                          uint64_t offset) {
  MutexLock lock(mu_);
  if (medium_id >= media_.size()) {
    return Status::InvalidArgument("bad medium id");
  }
  Medium& medium = media_[medium_id];
  if (offset >= medium.data.size()) {
    return Status::OutOfRange("offset beyond written extent");
  }
  medium.data[offset] = static_cast<char>(medium.data[offset] ^ 0x40);
  if (medium.file != nullptr) {
    HEAVEN_RETURN_IF_ERROR(
        medium.file->WriteAt(offset, std::string_view(&medium.data[offset], 1)));
  }
  return Status::Ok();
}

Result<uint64_t> TapeLibrary::MediumUsedBytes(MediumId medium_id) const {
  MutexLock lock(mu_);
  if (medium_id >= media_.size()) {
    return Status::InvalidArgument("bad medium id");
  }
  return static_cast<uint64_t>(media_[medium_id].data.size());
}

Result<uint64_t> TapeLibrary::MediumFreeBytes(MediumId medium_id) const {
  MutexLock lock(mu_);
  if (medium_id >= media_.size()) {
    return Status::InvalidArgument("bad medium id");
  }
  return options_.profile.capacity_bytes - media_[medium_id].data.size();
}

MediumId TapeLibrary::MediumWithMostFreeSpace() const {
  MutexLock lock(mu_);
  MediumId best = 0;
  size_t best_used = media_[0].data.size();
  for (MediumId m = 1; m < media_.size(); ++m) {
    if (media_[m].data.size() < best_used) {
      best = m;
      best_used = media_[m].data.size();
    }
  }
  return best;
}

bool TapeLibrary::IsLoaded(MediumId medium_id) const {
  MutexLock lock(mu_);
  if (medium_id >= media_.size()) return false;
  return media_[medium_id].loaded;
}

Result<uint64_t> TapeLibrary::HeadPosition(MediumId medium_id) const {
  MutexLock lock(mu_);
  if (medium_id >= media_.size()) {
    return Status::InvalidArgument("bad medium id");
  }
  const Medium& medium = media_[medium_id];
  if (!medium.loaded) return Status::FailedPrecondition("medium not loaded");
  return drives_[medium.drive].head_position;
}

void TapeLibrary::RecordTraceLocked(TapeTraceEvent::Kind kind,
                                    MediumId medium, uint64_t offset,
                                    uint64_t bytes, double seconds) {
  if (!trace_enabled_) return;
  TapeTraceEvent event;
  event.kind = kind;
  event.medium = medium;
  event.offset = offset;
  event.bytes = bytes;
  event.seconds = seconds;
  event.clock = clock_.Now();
  trace_.push_back(event);
}

void TapeLibrary::EnableTrace(bool enabled) {
  MutexLock lock(mu_);
  trace_enabled_ = enabled;
}

bool TapeLibrary::trace_enabled() const {
  MutexLock lock(mu_);
  return trace_enabled_;
}

std::vector<TapeTraceEvent> TapeLibrary::Trace() const {
  MutexLock lock(mu_);
  return trace_;
}

void TapeLibrary::ClearTrace() {
  MutexLock lock(mu_);
  trace_.clear();
}

std::string FormatTapeTrace(const std::vector<TapeTraceEvent>& trace) {
  std::ostringstream out;
  for (const TapeTraceEvent& event : trace) {
    char kind = '?';
    switch (event.kind) {
      case TapeTraceEvent::Kind::kExchange:
        kind = 'X';
        break;
      case TapeTraceEvent::Kind::kSeek:
        kind = 'S';
        break;
      case TapeTraceEvent::Kind::kRead:
        kind = 'R';
        break;
      case TapeTraceEvent::Kind::kWrite:
        kind = 'W';
        break;
      case TapeTraceEvent::Kind::kErase:
        kind = 'E';
        break;
    }
    out << kind << " m" << event.medium << " @" << event.offset << " +"
        << event.bytes << " " << event.seconds << "s t=" << event.clock
        << "\n";
  }
  return out.str();
}

}  // namespace heaven
