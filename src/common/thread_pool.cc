#include "common/thread_pool.h"

#include <algorithm>

namespace heaven {

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  if (workers_.empty()) {
    // The task runs under the submitter's own context already.
    task();
    return;
  }
  const TraceContext context = TraceContext::Capture();
  if (!context.empty()) {
    task = [context, inner = std::move(task)] {
      ScopedTraceContext guard(context);
      inner();
    };
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(lock);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
    }
  }
}

size_t ThreadPool::QueueDepth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

size_t ThreadPool::ActiveWorkers() const {
  MutexLock lock(mu_);
  return active_;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t helpers = std::min(n - 1, workers_.size());
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto run_chunk = [next, n, &fn] {
    for (size_t i = next->fetch_add(1); i < n; i = next->fetch_add(1)) {
      fn(i);
    }
  };
  std::vector<std::future<void>> pending;
  pending.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) pending.push_back(Submit(run_chunk));
  run_chunk();
  for (std::future<void>& f : pending) f.get();
}

}  // namespace heaven
