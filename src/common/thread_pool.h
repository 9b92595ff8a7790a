// A small fixed-size worker pool for fan-out/join parallelism. The
// btcsim event loop stays single-threaded; the pool exists so leaf
// computations (signature checks, header PoW hashing) can be fanned
// across cores and joined before the caller continues — callers never
// observe partial results, so simulation outcomes are independent of
// the thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace btcfast::common {

class ThreadPool {
 public:
  /// `threads == 0` creates an inline pool: submitted work runs on the
  /// calling thread at submit time. This is the deterministic baseline
  /// (and the TSan-friendly degenerate case); any other count must
  /// produce byte-identical results.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Queue a task; the future carries the result or the thrown exception.
  template <typename Fn>
  [[nodiscard]] std::future<std::invoke_result_t<Fn>> submit(Fn&& fn) {
    using R = std::invoke_result_t<Fn>;
    // shared_ptr because std::function requires copyable targets and
    // packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    auto fut = task->get_future();
    if (workers_.empty()) {
      (*task)();  // inline mode
      return fut;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n), blocking until all complete. Indices are
  /// claimed in chunks; each is processed exactly once and the caller
  /// participates, so an inline pool degenerates to a plain loop. The
  /// join waits on completed indices, not helper tasks — helpers that
  /// never got scheduled before the range drained don't cost the caller a
  /// context switch (they later find no work and exit without touching
  /// fn). The first exception thrown by any fn(i) is rethrown here, after
  /// every in-flight helper has finished.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// One worker per hardware thread except the caller's (which joins
  /// every parallel_for): max(1, hardware_concurrency()) - 1, so 0 — the
  /// inline pool — on a single-thread machine.
  [[nodiscard]] static std::size_t hardware_workers() noexcept;

  /// Process-wide pool, sized by configure_global(). Inline until a
  /// caller sizes it (core::Deployment does, from its verify_threads).
  [[nodiscard]] static ThreadPool& global();
  /// Replace the global pool's size. Not thread-safe against concurrent
  /// global() users — call during setup only.
  static void configure_global(std::size_t threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace btcfast::common
