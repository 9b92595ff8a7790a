#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace btcfast::common {

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // The join waits on *completed indices*, not on helper tasks: once
  // `done == n` the caller returns even if some queued helpers were never
  // scheduled (they find the range exhausted and exit without touching
  // `fn`). This is what keeps tiny warm batches flat as the thread count
  // grows — the old future-join paid one context switch per helper on an
  // oversubscribed machine, which dwarfed microsecond-scale work items.
  struct Shared {
    std::function<void(std::size_t)> fn;  // owned: late helpers may outlive the call frame
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex mutex;
    std::condition_variable cv;
  };
  auto shared = std::make_shared<Shared>();
  shared->fn = fn;
  shared->n = n;
  // Claim indices in chunks so the atomic and the per-claim bookkeeping
  // amortize; cap the chunk so every participant still gets a share.
  shared->chunk = std::max<std::size_t>(1, n / (4 * (workers_.size() + 1)));

  auto drain = [](const std::shared_ptr<Shared>& s) {
    std::size_t completed = 0;
    while (!s->failed.load(std::memory_order_relaxed)) {
      const std::size_t begin = s->next.fetch_add(s->chunk, std::memory_order_relaxed);
      if (begin >= s->n) break;
      const std::size_t end = std::min(begin + s->chunk, s->n);
      try {
        for (std::size_t i = begin; i < end; ++i) {
          s->fn(i);
          ++completed;
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(s->mutex);
          if (!s->error) s->error = std::current_exception();
          s->failed.store(true, std::memory_order_relaxed);
        }
        s->cv.notify_all();
        break;
      }
    }
    if (completed > 0 &&
        s->done.fetch_add(completed, std::memory_order_acq_rel) + completed == s->n) {
      std::lock_guard<std::mutex> lock(s->mutex);  // pair with the waiter's predicate check
      s->cv.notify_all();
    }
  };

  const std::size_t helpers = std::min(workers_.size(), (n - 1) / shared->chunk);
  std::vector<std::future<void>> joins;
  joins.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) {
    joins.push_back(submit([shared, drain] { drain(shared); }));
  }
  drain(shared);  // the caller works too

  {
    std::unique_lock<std::mutex> lock(shared->mutex);
    shared->cv.wait(lock, [&] {
      return shared->done.load(std::memory_order_acquire) == n ||
             shared->failed.load(std::memory_order_relaxed);
    });
  }
  if (shared->failed.load(std::memory_order_relaxed)) {
    // A work item threw: wait for every helper task so no in-flight call
    // can touch caller state during unwinding, then propagate.
    for (auto& j : joins) j.get();
    std::rethrow_exception(shared->error);
  }
}

namespace {

// Leaked on purpose: worker threads must not be joined during static
// destruction, whose order across translation units is unspecified.
std::unique_ptr<ThreadPool>& global_slot() {
  static auto* slot = new std::unique_ptr<ThreadPool>(std::make_unique<ThreadPool>(0));
  return *slot;
}

}  // namespace

std::size_t ThreadPool::hardware_workers() noexcept {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency()) - 1;
}

ThreadPool& ThreadPool::global() { return *global_slot(); }

void ThreadPool::configure_global(std::size_t threads) {
  static std::mutex m;
  std::lock_guard<std::mutex> lock(m);
  auto& slot = global_slot();
  if (slot->thread_count() == threads) return;
  slot = std::make_unique<ThreadPool>(threads);  // assignment joins the old pool
}

}  // namespace btcfast::common
