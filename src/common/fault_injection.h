#ifndef HEAVEN_COMMON_FAULT_INJECTION_H_
#define HEAVEN_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/admission.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace heaven {

/// Where a fault can strike. Each site draws from its own deterministic
/// random stream (derived from the policy seed), so the fault schedule of
/// one site does not shift when another site's call pattern changes —
/// failure scenarios replay exactly from their seed.
enum class FaultSite : int {
  kTapeRead = 0,   // transient read error on TapeLibrary::ReadAt
  kTapeWrite,      // transient write error on TapeLibrary::Append
  kExchangeJam,    // robot arm jams during a media exchange
  kDriveFailure,   // the serving drive dies and goes offline
  kBitRot,         // one bit flips in the bytes coming off the tape head
  kEnvWrite,       // filesystem write fails (FaultInjectionEnv)
  kEnvSync,        // fsync fails (FaultInjectionEnv)
  kTornWrite,      // write persists only a prefix, then fails
  kNumSites,       // must be last
};

std::string FaultSiteName(FaultSite site);

/// Configuration of the deterministic fault injector. Disabled by default;
/// with `enabled == false` (or every probability zero) no random stream is
/// ever consumed and the instrumented code takes the exact legacy path.
struct FaultPolicy {
  bool enabled = false;
  /// Seed of the per-site random streams; equal seeds (and equal call
  /// sequences) replay the identical failure schedule.
  uint64_t seed = 0;
  /// Stop injecting after this many faults fired (0 = unlimited). Lets a
  /// test inject exactly N faults and then run clean.
  uint64_t max_faults = 0;

  // Per-site probabilities in [0, 1].
  double tape_read_error_p = 0.0;
  double tape_write_error_p = 0.0;
  double exchange_jam_p = 0.0;
  double drive_failure_p = 0.0;
  double bit_rot_p = 0.0;
  double env_write_error_p = 0.0;
  double env_sync_error_p = 0.0;
  double torn_write_p = 0.0;
};

/// Seeded, deterministic fault source. Every potential fault point calls
/// ShouldFail(site); a firing roll counts Ticker::kFaultsInjected. Sites
/// with zero probability return immediately without touching their random
/// stream, so an all-zero policy is behaviourally identical to a disabled
/// one.
class FaultInjector {
 public:
  FaultInjector(const FaultPolicy& policy, Statistics* stats);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Rolls the site's dice; true means the caller must fail the operation.
  bool ShouldFail(FaultSite site);

  /// Deterministic auxiliary draw from the site's stream (e.g. which byte
  /// of a read buffer rots, how long a torn-write prefix is). bound > 0.
  uint64_t Draw(FaultSite site, uint64_t bound);

  /// Faults fired so far.
  uint64_t injected() const;

  /// Faults fired at one site (labeled metric `fault.injected{site=...}`).
  uint64_t injected_at(FaultSite site) const;

  const FaultPolicy& policy() const { return policy_; }

 private:
  double SiteProbability(FaultSite site) const;

  FaultPolicy policy_;  // analyze: unguarded(fixed at construction)
  Statistics* stats_;   // analyze: unguarded(Statistics is atomic inside)
  mutable Mutex mu_;  // analyze: leaf-lock
  std::vector<Rng> rngs_ GUARDED_BY(mu_);  // one stream per FaultSite
  uint64_t injected_ GUARDED_BY(mu_) = 0;
  std::vector<uint64_t> injected_by_site_ GUARDED_BY(mu_);
};

/// Bounded-retry policy for tertiary-storage operations. The backoff is
/// charged to the simulated clock (a real library would spend that time
/// repositioning / re-threading), so retries show up in the cost model.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retry).
  int max_attempts = 3;
  /// Simulated seconds before the first re-attempt.
  double backoff_initial_s = 1.0;
  /// Multiplier applied to the backoff after each re-attempt.
  double backoff_multiplier = 2.0;
};

/// Only transient failures are worth re-driving the robot for; logical
/// errors (bad id, out-of-range, corruption, full medium) are not.
inline bool IsRetryableTapeError(const Status& status) {
  return status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kAborted;
}

/// Runs `op` (returning Status) up to `policy.max_attempts` times. Each
/// re-attempt opens a "tape.retry" span, records Ticker::kTapeRetries and
/// advances `clock` by the exponential backoff. The first attempt is the
/// exact legacy call: when it succeeds, nothing is recorded and no
/// simulated time is consumed.
///
/// The deadline-aware overload gives up a retry whose backoff alone would
/// burn the remaining deadline budget — and returns the LAST REAL error
/// from the tape layer, not a synthetic timeout, so callers see what
/// actually failed. The cancel token (may be null) is polled before each
/// re-attempt; a cancelled retry loop likewise returns the last real
/// error.
template <typename Op>
Status RetryTapeOp(const RetryPolicy& policy, SimClock* clock,
                   Statistics* stats, const Deadline& deadline,
                   const CancelToken* cancel, Op&& op) {
  Status status = op();
  double backoff = policy.backoff_initial_s;
  for (int attempt = 1;
       !status.ok() && IsRetryableTapeError(status) &&
       attempt < policy.max_attempts;
       ++attempt) {
    if (cancel != nullptr && cancel->cancelled()) return status;
    if (deadline.has_deadline() && backoff >= deadline.remaining_s()) {
      // Sleeping out the backoff would expire the deadline; surface the
      // tape layer's own verdict instead of a generic timeout.
      return status;
    }
    ScopedSpan span(stats != nullptr ? stats->trace() : nullptr, "tape.retry");
    if (stats != nullptr) stats->Record(Ticker::kTapeRetries);
    if (clock != nullptr) clock->Advance(backoff);
    backoff *= policy.backoff_multiplier;
    status = op();
  }
  return status;
}

template <typename Op>
Status RetryTapeOp(const RetryPolicy& policy, SimClock* clock,
                   Statistics* stats, Op&& op) {
  return RetryTapeOp(policy, clock, stats, Deadline::Infinite(), nullptr,
                     std::forward<Op>(op));
}

/// Env wrapper injecting filesystem faults: write/sync errors, torn writes
/// (a deterministic prefix persists, then the call fails) and a hard write
/// limit for crash-point tests — after the limit is exhausted every write
/// and sync fails, simulating a killed process whose completed writes are
/// all that survives. A truncate or a file deletion counts as a write and
/// is all or nothing; it draws from no random fault stream. Reads always
/// pass through untouched.
class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(Env* base, const FaultPolicy& policy = {},
                             Statistics* stats = nullptr);

  Result<std::unique_ptr<File>> OpenFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDirIfMissing(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;

  /// The next `remaining_writes - 1` write calls succeed, the following one
  /// persists only half its payload (a truncate or deletion: nothing) and
  /// fails, and every write/truncate/deletion/sync after that fails — the
  /// deterministic "power cut after N writes" crash point.
  void SetWriteLimit(uint64_t remaining_writes);
  void ClearWriteLimit();

  /// Write, truncate and deletion calls observed so far (for choosing
  /// crash points).
  uint64_t writes_issued() const;

  FaultInjector* injector() { return &injector_; }

  /// Decides the fate of one write of `n` bytes (called by the wrapped file
  /// handles; not part of the public surface). Ok: write everything. Error
  /// with *allowed_prefix > 0: persist that prefix, then fail. Without
  /// `random_faults` only the write limit applies.
  Status CheckWrite(size_t n, size_t* allowed_prefix,
                    bool random_faults = true);
  Status CheckSync();

 private:
  Env* base_;               // analyze: unguarded(fixed at construction)
  FaultInjector injector_;  // analyze: unguarded(internally locked)
  mutable Mutex mu_;  // analyze: leaf-lock
  bool has_limit_ GUARDED_BY(mu_) = false;
  uint64_t remaining_writes_ GUARDED_BY(mu_) = 0;
  uint64_t writes_issued_ GUARDED_BY(mu_) = 0;
};

}  // namespace heaven

#endif  // HEAVEN_COMMON_FAULT_INJECTION_H_
