#ifndef HEAVEN_COMMON_METRICS_H_
#define HEAVEN_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/sim_clock.h"
#include "common/statistics.h"
#include "common/thread_annotations.h"

namespace heaven {

/// One "key=value" dimension attached to a gauge (medium, shard, policy,
/// drive, site, ...). Kept as an ordered vector so exposition output is
/// stable across runs.
using MetricLabel = std::pair<std::string, std::string>;
using MetricLabels = std::vector<MetricLabel>;

/// Last sampled value of one registered gauge.
struct GaugeSample {
  std::string name;
  std::string help;
  MetricLabels labels;
  double value = 0.0;
  /// False until the first SampleOnce() evaluated the callback.
  bool sampled = false;
};

/// Typed metric registry over one HeavenDb instance. Wraps the lock-free
/// Statistics tickers and histograms (every Ticker / HistogramKind is
/// exported automatically — new counters are added there, never as ad-hoc
/// side registries; scripts/lint.sh enforces this) and adds *sampled
/// gauges*: named callbacks into live components (cache shard occupancy,
/// buffer-pool residency, tape drive states, thread-pool queue depth, ...)
/// evaluated by SampleOnce() or by a background sampler thread.
///
/// Callbacks are evaluated OUTSIDE the registry mutex — they take internal
/// component locks and must never call back into the registry. A gauge
/// callback must stay valid until StopSampler() (or the registry's
/// destructor) returns; HeavenDb therefore stops its sampler before any
/// member the callbacks read is destroyed.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(Statistics* stats = nullptr);
  ~MetricsRegistry();  // stops the sampler if still running

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a sampled gauge. `name` uses the dotted metric namespace
  /// ("cache.shard_bytes"); `labels` distinguish instances of the same
  /// name ({{"shard","3"}}). Duplicate (name, labels) pairs overwrite.
  void RegisterGauge(const std::string& name, const std::string& help,
                     MetricLabels labels, std::function<double()> fn);

  /// Evaluates every gauge callback once and stores the values; returns
  /// the number of gauges sampled. Deterministic: no time source involved.
  size_t SampleOnce();

  /// Samples taken so far (each SampleOnce call counts one, whether run
  /// inline or from the sampler thread).
  uint64_t samples_taken() const;

  /// Starts a background thread sampling every `interval_seconds` (wall
  /// clock; clamped to >= 1ms). No-op if already running.
  void StartSampler(double interval_seconds);

  /// Stops and joins the sampler thread. Safe to call when not running.
  void StopSampler();

  bool sampler_running() const;

  /// Copy of every gauge with its last sampled value.
  std::vector<GaugeSample> LatestSamples() const;

  /// Prometheus text exposition: tickers as `heaven_<name> value` counter
  /// families, histograms as summaries (`_count`, `_sum`, quantile series)
  /// and gauges with their labels. Dots in metric names become
  /// underscores. Does NOT sample — call SampleOnce() first for fresh
  /// gauge values.
  std::string ToPrometheusText() const;

  /// JSON export: {"counters":{...},"histograms":{...},
  /// "gauges":[{"name":..,"labels":{..},"value":..}],"samples_taken":N}.
  std::string ToJson() const;

 private:
  struct Gauge {
    std::string name;
    std::string help;
    MetricLabels labels;
    std::function<double()> fn;
    double value = 0.0;
    bool sampled = false;
  };

  void SamplerLoop(double interval_seconds);

  Statistics* const stats_;  // may be null: no tickers or histograms
  mutable Mutex mu_ ACQUIRED_BEFORE("TraceCollector::mu_");
  CondVar sampler_cv_{&mu_};
  std::vector<Gauge> gauges_ GUARDED_BY(mu_);
  uint64_t samples_taken_ GUARDED_BY(mu_) = 0;
  bool sampler_stop_ GUARDED_BY(mu_) = false;
  bool sampler_running_ GUARDED_BY(mu_) = false;
  /// Joined under no lock; lifecycle serialized by sampler_running_.
  std::thread sampler_;  // analyze: unguarded(start/join via sampler_running_)
};

// ------------------------------------------------------------------------
// Per-query execution profiles.
// ------------------------------------------------------------------------

/// The stages a retrieval decomposes into along the ReadRegion / RasQL
/// path. Each stage is the stage-tagged ScopedSpan of the same site, so a
/// profile reconciles with the spans it summarizes:
///
///   stage             span              runs on
///   kParsePlan        rasql.parse       query thread
///   kIndexLookup      index.lookup      query thread
///   kSchedule         schedule          query thread
///   kTapeFetch        supertile.fetch   query thread (tape read + CRC)
///   kDecode           supertile.decode  pool worker (inline at 1 thread)
///   kScatter          array.scatter     query thread (copies fan out)
///   kSnapshotAcquire  snap.acquire      query thread
enum class ProfileStage : int {
  kParsePlan = 0,  // RasQL parse + plan
  kIndexLookup,    // R+-tree / index probe for intersecting tiles
  kSchedule,       // tape scheduler batch construction
  kTapeFetch,      // simulated tape transfer incl. retries (sim seconds)
  kDecode,         // container decode (wall seconds; no sim time)
  kScatter,        // copying tile bytes into the result region
  kSnapshotAcquire,  // pinning the metadata snapshot (near-zero by design)
  kNumStages,      // must be last
};

std::string ProfileStageName(ProfileStage stage);

/// Accumulated cost of one stage within one query.
struct ProfileStageData {
  double sim_seconds = 0.0;   // simulated tape-clock time
  double wall_seconds = 0.0;  // host wall-clock time
  uint64_t bytes = 0;         // payload bytes moved by this stage
  uint64_t count = 0;         // number of timed sections
};

/// Execution profile of one query. Totals are measured against the same
/// clocks as the stages. Sim time: `sum(stage sim_seconds) <=
/// total_sim_seconds`, and in the serial path (num_threads == 1, all sim
/// costs inside the fetch loop) the tape-fetch stage equals the query's
/// trace-span duration. Wall time: stages on pool workers (decode) overlap
/// the query thread, so stage wall times may sum to more than
/// `total_wall_seconds`.
struct QueryProfile {
  uint64_t query_id = 0;
  std::string label;  // e.g. "read_region", "rasql"
  double total_sim_seconds = 0.0;
  double total_wall_seconds = 0.0;
  /// Counted by this query's own super-tile lookups (exact per query).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t fetches_coalesced = 0;  // waits on another query's fetch
  /// How the query ended: "ok" (default), "shed", "deadline_exceeded",
  /// "cancelled" or "error" — set via QueryProfiler::NoteOutcome by the
  /// admission controller and the query entry points.
  std::string outcome = "ok";
  std::array<ProfileStageData, static_cast<size_t>(ProfileStage::kNumStages)>
      stages = {};

  const ProfileStageData& stage(ProfileStage s) const {
    return stages[static_cast<size_t>(s)];
  }

  /// Multi-line human-readable table.
  std::string ToString() const;
  /// One JSON object.
  std::string ToJson() const;
};

class QueryProfiler;

/// The profile of one running query, shared by every thread working for
/// it: the query thread and the pool tasks it enqueued reach it through
/// TraceContext::query. Credits and counts take its lock, so pool workers
/// credit the submitting query race-free. Pool tasks carrying it are
/// joined before the query's Scope closes (see HeavenDb::FetchSuperTiles).
class ActiveQuery {
 public:
  ActiveQuery(QueryProfiler* profiler, std::string label);

  ActiveQuery(const ActiveQuery&) = delete;
  ActiveQuery& operator=(const ActiveQuery&) = delete;

  QueryProfiler* profiler() const { return profiler_; }

  /// Adds one timed section to `stage`.
  void Credit(ProfileStage stage, double sim_seconds, double wall_seconds,
              uint64_t bytes);
  /// Bumps one per-query counter (&QueryProfile::cache_hits, ...).
  void Count(uint64_t QueryProfile::*counter);
  void SetOutcome(std::string outcome);
  /// The profile with its totals measured up to now.
  QueryProfile Finish();

  /// The profile's two time axes: the profiler's sim clock (0 without
  /// one) and the host's steady wall clock, in seconds.
  double SimNow() const;
  static double WallNow();

 private:
  QueryProfiler* const profiler_;
  const double sim_begin_;
  const double wall_begin_;
  Mutex mu_;  // analyze: leaf-lock
  QueryProfile profile_ GUARDED_BY(mu_);
};

/// Collects QueryProfiles along the query path. Disabled by default: a
/// disabled profiler opens no ActiveQuery, so every stage-tagged span
/// finds none in the thread's TraceContext and records nothing.
class QueryProfiler {
 public:
  QueryProfiler() = default;
  ~QueryProfiler();

  QueryProfiler(const QueryProfiler&) = delete;
  QueryProfiler& operator=(const QueryProfiler&) = delete;

  /// The simulated clock stage-tagged spans read (the tape-library clock,
  /// the same one trace spans are stamped against). May be null: sim
  /// times then record as zero.
  void SetClock(const SimClock* clock) { clock_.store(clock); }

  void SetEnabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Labels the outcome of the calling thread's active profile ("shed",
  /// "deadline_exceeded", "cancelled", ...). No-op when this thread has no
  /// active profile owned by this profiler.
  void NoteOutcome(std::string outcome);

  /// Bumps a counter of the calling thread's active query (no-op without
  /// one). The fetch path counts its own cache hits, misses and coalesced
  /// waits this way, so they are exact under any concurrency.
  static void Count(uint64_t QueryProfile::*counter);

  /// Most recent completed profile; false if none recorded yet.
  bool Last(QueryProfile* out) const;
  /// Up to kMaxRecent most recent profiles, oldest first.
  std::vector<QueryProfile> Recent() const;
  uint64_t profiles_recorded() const;
  void Clear();

  /// RAII over one query. Begins a profile only when the profiler is
  /// enabled and the calling thread has no active query — nested scopes
  /// (ReadRegion inside a RasQL statement) keep accumulating into the
  /// outermost query. The profile is published on destruction.
  class Scope {
   public:
    Scope(QueryProfiler* profiler, std::string label);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// True when this scope owns the thread's active query.
    bool active() const { return query_.has_value(); }

   private:
    std::optional<ActiveQuery> query_;
  };

  static constexpr size_t kMaxRecent = 32;

 private:
  friend class ActiveQuery;

  void Publish(QueryProfile profile);

  std::atomic<bool> enabled_{false};
  std::atomic<const SimClock*> clock_{nullptr};
  std::atomic<uint64_t> next_query_id_{1};
  mutable Mutex mu_;  // analyze: leaf-lock
  std::deque<QueryProfile> recent_ GUARDED_BY(mu_);
  uint64_t recorded_ GUARDED_BY(mu_) = 0;
};

}  // namespace heaven

#endif  // HEAVEN_COMMON_METRICS_H_
