#include "support/thread_pool.hpp"

#include <atomic>
#include <exception>

namespace rca {

namespace {
/// The pool whose worker is running on this thread (null elsewhere).
thread_local const ThreadPool* t_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Called from one of this pool's own workers: queued chunks could wait
  // behind the very task that waits for them, so run the body inline.
  if (t_worker_of == this) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Chunk the index space so tiny bodies don't pay per-task overhead.
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  const std::size_t per = (n + chunks - 1) / chunks;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(submit([&] {
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) return;
        const std::size_t begin = next.fetch_add(per);
        if (begin >= n) return;
        const std::size_t end = std::min(begin + per, n);
        for (std::size_t i = begin; i < end; ++i) {
          try {
            body(i);
          } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
            return;
          }
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rca
