// A small fixed-size worker pool for fan-out/join parallelism. The
// btcsim event loop stays single-threaded; the pool exists so leaf
// computations (signature checks, header PoW hashing) can be fanned
// across cores and joined before the caller continues — callers never
// observe partial results, so simulation outcomes are independent of
// the thread count.
//
// The pool places its workers itself: each is pinned to one CPU and has
// its own mailbox, and parallel_for wakes only workers on CPUs other than
// the caller's. A host that does not balance load across CPUs (cpuset
// sched_load_balance = 0) never moves a thread off the CPU it was forked
// on, so unplaced workers would all wake on the set-up thread's CPU.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace btcfast::common {

/// Pin `t` to `cpu`; false, leaving `t` unpinned, when that fails (-1, a
/// CPU outside the affinity mask, or not Linux).
bool pin_to_cpu(std::thread& t, int cpu);

class ThreadPool {
 public:
  /// `threads == 0` creates an inline pool: submitted work runs on the
  /// calling thread at submit time. This is the deterministic baseline
  /// (and the TSan-friendly degenerate case); any other count must
  /// produce byte-identical results. Worker i is pinned to the i-th CPU
  /// of allowed_cpus(), wrapping around when there are more workers than
  /// CPUs.
  explicit ThreadPool(std::size_t threads);
  /// One worker per entry, pinned to that CPU. A worker whose CPU cannot
  /// be pinned (-1, outside the affinity mask, or not Linux) runs
  /// unpinned; results are the same either way.
  explicit ThreadPool(const std::vector<int>& cpus);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// The CPU each worker is pinned to, in worker order; -1 for an
  /// unpinned worker.
  [[nodiscard]] std::vector<int> worker_cpus() const;

  /// Queue a task on the next worker in turn; the future carries the
  /// result or the thrown exception.
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
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    post(*workers_[i], [task]() { (*task)(); });
    return fut;
  }

  /// Run fn(i) for i in [0, n), blocking until all complete. Indices are
  /// claimed in chunks; each is processed exactly once and the caller
  /// participates, so an inline pool degenerates to a plain loop. Helpers
  /// go only to workers pinned to a CPU other than the caller's, so
  /// during a pass there is one runnable thread per CPU. The join waits
  /// on completed indices, not helper tasks — helpers that never got
  /// scheduled before the range drained don't cost the caller a context
  /// switch (they later find no work and exit without touching fn). The
  /// first exception thrown by any fn(i) is rethrown here, after every
  /// in-flight helper has finished.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  class FanOut;
  /// Start fn(i) for i in [0, n) and return at once; the returned FanOut
  /// lets the caller wait for one index at a time. Indices are claimed
  /// one at a time in increasing order, each runs exactly once, and
  /// helpers go only to workers on CPUs other than the caller's, as in
  /// parallel_for. The caller runs unclaimed indices itself while it
  /// waits, so an inline pool degenerates to a plain loop.
  [[nodiscard]] FanOut fan_out(std::size_t n, std::function<void(std::size_t)> fn);

  /// The CPUs the calling thread may run on (sched_getaffinity), in
  /// ascending order; empty where that cannot be read.
  [[nodiscard]] static std::vector<int> allowed_cpus();

  /// One worker per allowed CPU (hardware_concurrency() where the mask
  /// cannot be read). parallel_for never wakes the worker on the
  /// caller's CPU, so the caller's CPU is not oversubscribed.
  [[nodiscard]] static std::size_t hardware_workers() noexcept;

  /// Process-wide pool, sized by configure_global(). Inline until a
  /// caller sizes it (core::Deployment does, from its verify_threads).
  [[nodiscard]] static ThreadPool& global();
  /// Replace the global pool's size. Not thread-safe against concurrent
  /// global() users — call during setup only.
  static void configure_global(std::size_t threads);

 private:
  struct Worker {
    int cpu = -1;  ///< pinned CPU, -1 when unpinned
    std::mutex mutex;
    std::condition_variable cv;
    std::queue<std::function<void()>> queue;
    bool stopping = false;
    std::thread thread;
  };

  static void post(Worker& w, std::function<void()> task);
  /// The workers pinned to a CPU other than the caller's, starting after
  /// the caller's own worker so concurrent callers on different CPUs
  /// spread out.
  [[nodiscard]] std::vector<Worker*> other_cpus_workers() const;
  static void worker_loop(Worker& w);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> next_{0};  ///< submit()'s round-robin cursor
};

/// An in-flight fan_out. Single-owner: only the thread that started it
/// calls wait() and wait_all().
class ThreadPool::FanOut {
 public:
  FanOut(FanOut&&) noexcept = default;
  FanOut& operator=(FanOut&&) = delete;
  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;
  /// Stops further claims and waits for every index already running, so
  /// no helper touches the caller's state after the fan-out is gone.
  ~FanOut();

  /// Return once fn(i) has finished. While it has not, the caller runs
  /// the lowest unclaimed index, or sleeps when every index is claimed.
  /// If any fn threw, the first exception is rethrown once no helper is
  /// still running fn (and nothing more is claimed).
  void wait(std::size_t i);
  /// wait() on every index.
  void wait_all();

 private:
  friend class ThreadPool;
  struct Shared;
  explicit FanOut(std::shared_ptr<Shared> shared) : shared_(std::move(shared)) {}
  std::shared_ptr<Shared> shared_;
};

}  // namespace btcfast::common
