#ifndef HEAVEN_COMMON_THREAD_POOL_H_
#define HEAVEN_COMMON_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.h"
#include "common/trace.h"

namespace heaven {

/// Fixed-size worker pool for CPU-bound work (super-tile decode, container
/// packing, tile scatter). Tertiary-storage transfer time is simulated, so
/// the wall-clock cost of a retrieval is exactly this CPU-side work — the
/// pool lets it overlap with the (serial, tape-ordered) transfer loop and
/// fan out across cores.
///
/// Trace propagation: every task a worker runs carries the submitting
/// thread's TraceContext (TraceContext::Capture), so spans opened inside it
/// hang below the span that enqueued it, stage-tagged spans credit the
/// submitting query, and neither consumes simulated time. A submitter that
/// hands a query over must join the task before the query's scope closes.
///
/// A pool with zero workers runs every task inline on the submitting
/// thread, in submission order.
///
/// The destructor drains the queue and joins all workers (graceful
/// shutdown); callers that need task results must keep the returned futures
/// and wait on them before their captured state goes out of scope.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (zero: tasks run inline).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Tasks enqueued but not yet picked up by a worker (sampled gauge
  /// `pool.queue_depth`).
  size_t QueueDepth() const;
  /// Workers currently executing a task (sampled gauge `pool.active`;
  /// utilization = active / num_threads).
  size_t ActiveWorkers() const;

  /// Enqueues `fn` and returns a future for its result. `fn` must not
  /// acquire locks held by threads that wait on the returned future.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// Runs fn(0) .. fn(n-1), distributing indices dynamically across the
  /// workers; the calling thread participates, so the call makes progress
  /// even when every worker is busy with other tasks. Blocks until all
  /// indices finished. `fn` must tolerate concurrent invocation for
  /// distinct indices and must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  /// Wraps the task with the submitter's trace context and queues it;
  /// runs it right away when the pool has no workers.
  void Enqueue(std::function<void()> task);

  mutable Mutex mu_;  // analyze: leaf-lock
  CondVar cv_{&mu_};
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  size_t active_ GUARDED_BY(mu_) = 0;
  /// Created in the constructor, joined in the destructor; never resized
  /// while workers run.
  std::vector<std::thread> workers_;  // analyze: unguarded(ctor/dtor only)
};

}  // namespace heaven

#endif  // HEAVEN_COMMON_THREAD_POOL_H_
