// A small fixed-size thread pool, plus the one pooled-or-inline fan-out
// (the free parallel_for / parallel_map) every optional-pool caller uses.
//
// The paper's Algorithm 5.4 instruments communities "in parallel"; the
// refinement engine submits one sampling task per community through this
// pool. Brandes betweenness also shards its source loop across the pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rca {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Tasks submitted but not yet finished (queued + executing). The service
  /// layer's backpressure and the in-flight gauge read this; it is a
  /// monotonic snapshot, not a synchronization point.
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// Enqueue a task; the future resolves when the task finishes (exceptions
  /// propagate through the future).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([this, task] {
        (*task)();  // packaged_task captures exceptions into the future
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
      });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run body(i) for i in [0, n) across the pool; blocks until all complete.
  /// The first exception thrown by any iteration is rethrown to the caller
  /// (never lost), and remaining chunks stop claiming new iterations once a
  /// failure is recorded.
  /// Called from one of this pool's own workers it runs body(i) inline in
  /// index order instead, so nested fan-out cannot deadlock the pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Compute fn(i) for i in [0, n) across the pool and return the results in
  /// index order — the scheduling is free but the output is deterministic,
  /// which is what the parallel front-end's ordered reductions rely on.
  /// R must be default-constructible. Like parallel_for, the first worker
  /// exception propagates to the caller instead of being swallowed.
  template <typename R, typename F>
  std::vector<R> parallel_map(std::size_t n, const F& fn) {
    std::vector<R> out(n);
    parallel_for(n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::size_t> in_flight_{0};
  bool stop_ = false;
};

/// fn(i) for i in [0, n) on `pool` — or inline, in index order, when the
/// pool is null, has one worker, or n <= 1, where dispatch buys nothing.
template <typename F>
void parallel_for(ThreadPool* pool, std::size_t n, const F& fn) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->parallel_for(n, fn);
}

/// fn(i) for i in [0, n) in index order, fanned out like parallel_for above.
template <typename R, typename F>
std::vector<R> parallel_map(ThreadPool* pool, std::size_t n, const F& fn) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    std::vector<R> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
    return out;
  }
  return pool->parallel_map<R>(n, fn);
}

}  // namespace rca
