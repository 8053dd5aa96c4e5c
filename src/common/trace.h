#ifndef HEAVEN_COMMON_TRACE_H_
#define HEAVEN_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_clock.h"
#include "common/thread_annotations.h"

namespace heaven {

using SpanId = uint64_t;
enum class ProfileStage : int;  // common/metrics.h
class ActiveQuery;              // common/metrics.h

/// One finished trace span: a named, nested interval on the simulated
/// timeline. Durations are simulated seconds (the clock the collector is
/// bound to — the tape library's clock inside a HeavenDb).
struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root
  std::string name;
  double start = 0.0;
  double end = 0.0;
  uint64_t bytes = 0;  // payload moved under this span (0 if n/a)

  double duration() const { return end - start; }
};

/// Collects finished spans from every thread into a bounded ring. Disabled
/// by default: a disabled collector costs one relaxed atomic load per
/// ScopedSpan. Nesting lives in each thread's TraceContext, not here, so a
/// span takes the collector's mutex once, when it finishes.
class TraceCollector {
 public:
  TraceCollector() = default;

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Timestamps for subsequent spans are read from `clock` (not owned).
  /// Pass nullptr to fall back to zero timestamps (structure-only traces).
  void SetClock(const SimClock* clock) { clock_.store(clock); }

  void Enable(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Finished spans in begin order (parents before their children).
  std::vector<Span> Spans() const;

  /// Bounds the finished-span ring buffer. When a span finishes with the
  /// buffer full, the *oldest* finished span is evicted (and counted in
  /// dropped()), so a long-running trace always retains the most recent
  /// activity. Shrinking below the current size evicts (and counts) the
  /// oldest spans immediately. Clamped to at least 1.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// Finished spans evicted from the ring buffer (the `trace.spans_dropped`
  /// metric). 0 until the buffer wraps.
  uint64_t dropped() const;

  /// Drops every finished span. Spans still open are not recorded when
  /// they close; ids keep counting, so they never collide with new spans.
  void Clear();

  /// {"spans":[{"id":..,"parent":..,"name":..,"start":..,"end":..,
  ///            "duration":..,"bytes":..},...],"dropped":0}
  std::string ToJson() const;

  /// Indented tree, one span per line ("  tape.seek 2.1s @t=40.0").
  std::string ToString() const;

 private:
  friend class ScopedSpan;
  friend struct TraceContext;

  /// Default ring-buffer capacity; caps memory for long-running processes.
  static constexpr size_t kDefaultMaxSpans = 1 << 20;

  double Now() const;
  void Record(Span span);

  mutable Mutex mu_ ACQUIRED_AFTER("HeavenDb::db_mu_");
  std::atomic<bool> enabled_{false};
  std::atomic<const SimClock*> clock_{nullptr};
  std::atomic<SpanId> next_id_{1};
  /// Spans with a smaller id were opened before the last Clear().
  SpanId first_live_id_ GUARDED_BY(mu_) = 1;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  size_t capacity_ GUARDED_BY(mu_) = kDefaultMaxSpans;
  /// Ring buffer of finished spans (front = oldest, evicted first).
  std::deque<Span> finished_ GUARDED_BY(mu_);
};

/// What a scope inherits from the scopes around it, one per thread: the
/// innermost open span (the parent of the next one) and the query whose
/// profile stage-tagged spans credit. ThreadPool hands the submitter's
/// context to every task it runs on a worker, so spans there hang below the
/// span that enqueued them and credit the submitting query.
struct TraceContext {
  TraceCollector* collector = nullptr;  // owner of `span`
  SpanId span = 0;
  ActiveQuery* query = nullptr;
  /// Set on a handed-over context: spans opened under it are stamped with
  /// the submitter's sim time `sim_now` instead of reading the shared tape
  /// clock, so pool work consumes no simulated time.
  bool handed_over = false;
  double sim_now = 0.0;

  bool empty() const { return collector == nullptr && query == nullptr; }

  /// The calling thread's context as a pool task inherits it: handed over,
  /// with sim time pinned to now. Reads no clock when empty().
  static TraceContext Capture();
};

/// The calling thread's context. Trivially constructed and destroyed, so
/// reading it is one thread-local load.
inline TraceContext& CurrentTraceContext() {
  static constinit thread_local TraceContext context;
  return context;
}

/// RAII: installs `context` on the calling thread and restores the
/// previous one on destruction (pool workers run each task under one).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context)
      : saved_(CurrentTraceContext()) {
    CurrentTraceContext() = context;
  }
  ~ScopedTraceContext() { CurrentTraceContext() = saved_; }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// The one instrumentation scope. Opens a trace span when `collector` is
/// enabled; with a `stage`, also adds its sim time, wall time and bytes to
/// that stage of the thread's active query profile (QueryProfiler::Scope).
/// Either part is skipped when off: a disabled span costs one relaxed load,
/// plus one thread-local load when it carries a stage.
class ScopedSpan {
 public:
  ScopedSpan(TraceCollector* collector, std::string_view name,
             std::optional<ProfileStage> stage = std::nullopt);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Annotates the span and its stage with a byte count (result size,
  /// transfer size).
  void SetBytes(uint64_t bytes) { bytes_ = bytes; }

  /// True when this span credits a stage of an active query profile.
  bool profiled() const { return query_ != nullptr; }

 private:
  TraceCollector* collector_ = nullptr;  // null when not tracing
  ActiveQuery* query_ = nullptr;         // null when not profiling
  ProfileStage stage_{};
  bool pinned_ = false;  // opened under a handed-over context
  SpanId id_ = 0;
  SpanId parent_ = 0;
  std::string name_;
  double start_ = 0.0;       // trace timestamp
  double stage_sim_ = 0.0;   // profile clock at open
  double stage_wall_ = 0.0;  // wall clock at open
  uint64_t bytes_ = 0;
  TraceContext saved_;
};

}  // namespace heaven

#endif  // HEAVEN_COMMON_TRACE_H_
