#ifndef HEAVEN_TERTIARY_TAPE_LIBRARY_H_
#define HEAVEN_TERTIARY_TAPE_LIBRARY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/sim_clock.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "tertiary/drive_profile.h"

namespace heaven {

class CircuitBreaker;
class FaultInjector;

using MediumId = uint32_t;
using DriveId = uint32_t;

/// One recorded tape-library operation (I/O trace, for analysis tools and
/// experiment debugging).
struct TapeTraceEvent {
  enum class Kind { kExchange, kSeek, kRead, kWrite, kErase } kind;
  MediumId medium = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  double seconds = 0.0;     // cost of this event
  double clock = 0.0;       // virtual clock after the event
};

/// Formats a trace as one line per event ("R m2 @4096 +8192 1.2s ...").
std::string FormatTapeTrace(const std::vector<TapeTraceEvent>& trace);

/// Live state of one drive, for the sampled gauges `tape.drive_online` /
/// `tape.drive_occupied` / `tape.drive_head_position` (labeled by drive).
struct TapeDriveState {
  bool online = false;
  bool occupied = false;
  MediumId medium = 0;
  uint64_t head_position = 0;
};

/// Configuration of a robotic tape library.
struct TapeLibraryOptions {
  TapeDriveProfile profile;  // uniform drive/media class
  uint32_t num_drives = 2;
  uint32_t num_media = 16;
};

/// Discrete-cost simulator of a robotic tape library: `num_media`
/// cartridges share `num_drives` read/write stations and one robot arm.
/// Every operation advances the virtual clock by the analytic cost of
/// exchanges, loads, seeks and transfers and records the matching tickers.
/// Media are linear byte spaces written append-only (like real tape);
/// previously written extents can be read and logically overwritten only by
/// rewriting elsewhere (HEAVEN's delete/update path re-exports).
class TapeLibrary {
 public:
  /// In-memory library (contents die with the object) — for tests and
  /// benchmarks.
  TapeLibrary(const TapeLibraryOptions& options, Statistics* stats);

  /// Persistent library: media contents are written through to one file
  /// per cartridge under `dir`. Call LoadPersistedMedia() after
  /// construction to reload the archive — kept out of the constructor so a
  /// damaged backing store surfaces a Status instead of aborting.
  TapeLibrary(const TapeLibraryOptions& options, Statistics* stats, Env* env,
              const std::string& dir);

  /// Loads persisted media contents (a no-op without an Env).
  Status LoadPersistedMedia();

  /// Installs (or clears, with nullptr) the deterministic fault source
  /// consulted on every read/write/exchange. Not owned.
  void SetFaultInjector(FaultInjector* injector);

  /// Installs (or clears, with nullptr) the per-drive circuit breaker
  /// (entity index = DriveId). Not owned. With a breaker installed, drive
  /// selection skips tripped drives (a loaded medium fails over: its drive
  /// is unloaded and another is picked), every selected drive is announced
  /// via OnOpStart — which issues the half-open probe after a cooldown —
  /// and injected faults / clean completions feed the rolling window.
  /// Without one (the default) the selection logic is exactly the legacy
  /// path.
  void SetCircuitBreaker(CircuitBreaker* breaker);

  /// Appends `data` to `medium`, returning the start offset of the extent.
  /// Fails with ResourceExhausted when the cartridge is full.
  Result<uint64_t> Append(MediumId medium, std::string_view data);

  /// Reads `n` bytes at `offset` from `medium`.
  Status ReadAt(MediumId medium, uint64_t offset, uint64_t n,
                std::string* out);

  /// Bytes already written to the medium (the append position).
  Result<uint64_t> MediumUsedBytes(MediumId medium) const;

  /// Remaining capacity of the medium.
  Result<uint64_t> MediumFreeBytes(MediumId medium) const;

  /// The medium with the most free space (HEAVEN's default placement).
  MediumId MediumWithMostFreeSpace() const;

  /// True if the medium currently sits in a drive (no exchange needed).
  bool IsLoaded(MediumId medium) const;

  /// Head position of the drive holding `medium` (kNoDrive if unloaded);
  /// exposed for the scheduler's position-aware ordering.
  Result<uint64_t> HeadPosition(MediumId medium) const;

  uint32_t num_media() const { return options_.num_media; }
  uint32_t num_drives() const { return options_.num_drives; }
  const TapeDriveProfile& profile() const { return options_.profile; }

  /// Starts recording an I/O trace (events are appended until disabled).
  void EnableTrace(bool enabled);
  bool trace_enabled() const;
  /// Snapshot of the recorded events.
  std::vector<TapeTraceEvent> Trace() const;
  void ClearTrace();

  /// Logically erases (relabels) a cartridge: its contents are discarded
  /// and the append position rewinds to zero. The medium is unloaded first
  /// if it sits in a drive (paying the unload/robot cost). Used by tape
  /// reorganisation after dead extents have been copied away.
  Status EraseMedium(MediumId medium);

  /// Flips one byte of already-written data (no cost charged) — a test
  /// hook to exercise end-to-end corruption detection (media decay).
  Status CorruptByteForTesting(MediumId medium, uint64_t offset);

  /// Marks a drive as failed: it goes offline (no future loads) and its
  /// medium is unloaded. Subsequent operations fail over to the surviving
  /// drives; with none left, reads/writes return IOError.
  Status FailDriveForTesting(DriveId drive);

  /// Drives currently able to serve media.
  uint32_t OnlineDrives() const;

  /// Snapshot of every drive's live state, indexed by DriveId.
  std::vector<TapeDriveState> DriveStates() const;

  /// Crash recovery: discards everything written to `medium` beyond
  /// `end` — both in memory and in the backing file. Used on reopen to
  /// drop torn or unjournaled append tails. No cost is charged (the robot
  /// never moved; the bytes simply never happened).
  Status TruncateMediumForRecovery(MediumId medium, uint64_t end);

  /// Simulated seconds consumed by all operations so far.
  double ElapsedSeconds() const { return clock_.Now(); }
  SimClock* clock() { return &clock_; }
  Statistics* stats() const { return stats_; }

 private:
  struct Drive {
    bool occupied = false;
    bool offline = false;  // failed drive: never picked for loads
    MediumId medium = 0;
    uint64_t head_position = 0;
    uint64_t last_used_seq = 0;  // for LRU drive eviction
  };

  struct Medium {
    std::string data;          // bytes written so far
    bool loaded = false;
    DriveId drive = 0;
    std::unique_ptr<File> file;  // write-through backing (persistent mode)
  };

  /// Path of the backing file for a cartridge.
  std::string MediumPath(MediumId medium) const;

  /// Ensures `medium` is in a drive; pays exchange/load costs. Returns the
  /// drive index.
  Result<DriveId> EnsureLoadedLocked(MediumId medium) REQUIRES(mu_);
  /// Takes `drive` offline (unloading its medium) and counts the failure.
  void TakeDriveOfflineLocked(DriveId drive) REQUIRES(mu_);
  /// Positions the head of `drive` at `offset`, paying seek cost.
  void SeekLocked(DriveId drive, uint64_t offset) REQUIRES(mu_);

  TapeLibraryOptions options_;  // analyze: unguarded(fixed at construction)
  Statistics* stats_;  // analyze: unguarded(Statistics is atomic inside)
  /// Null => in-memory only.
  Env* env_ = nullptr;  // analyze: unguarded(fixed at construction)
  std::string dir_;  // analyze: unguarded(fixed at construction)
  SimClock clock_;   // analyze: unguarded(internally locked)
  // null => no fault injection; attached before first use.
  FaultInjector* injector_ = nullptr;  // analyze: unguarded(internally locked)

  /// True when the drive may be picked for new work (online and, with a
  /// breaker installed, not tripped).
  bool DriveServableLocked(DriveId drive) const REQUIRES(mu_);

  void RecordTraceLocked(TapeTraceEvent::Kind kind, MediumId medium,
                         uint64_t offset, uint64_t bytes, double seconds)
      REQUIRES(mu_);

  mutable Mutex mu_ ACQUIRED_AFTER("HeavenDb::fetch_mu_");
  CircuitBreaker* breaker_ GUARDED_BY(mu_) = nullptr;  // null => no breaker
  std::vector<Drive> drives_ GUARDED_BY(mu_);
  std::vector<Medium> media_ GUARDED_BY(mu_);
  uint64_t use_seq_ GUARDED_BY(mu_) = 0;
  bool trace_enabled_ GUARDED_BY(mu_) = false;
  std::vector<TapeTraceEvent> trace_ GUARDED_BY(mu_);
};

}  // namespace heaven

#endif  // HEAVEN_TERTIARY_TAPE_LIBRARY_H_
