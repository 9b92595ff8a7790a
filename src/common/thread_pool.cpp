#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace btcfast::common {

bool pin_to_cpu(std::thread& t, int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(t.native_handle(), sizeof(set), &set) == 0;
#else
  (void)t;
  (void)cpu;
  return false;
#endif
}

namespace {

int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

std::vector<int> placement(std::size_t threads) {
  const std::vector<int> allowed = ThreadPool::allowed_cpus();
  std::vector<int> cpus(threads, -1);
  if (allowed.empty()) return cpus;
  for (std::size_t i = 0; i < threads; ++i) cpus[i] = allowed[i % allowed.size()];
  return cpus;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : ThreadPool(placement(threads)) {}

ThreadPool::ThreadPool(const std::vector<int>& cpus) {
  workers_.reserve(cpus.size());
  for (const int cpu : cpus) {
    auto w = std::make_unique<Worker>();
    w->thread = std::thread([w = w.get()] { worker_loop(*w); });
    if (pin_to_cpu(w->thread, cpu)) w->cpu = cpu;
    workers_.push_back(std::move(w));
  }
}

ThreadPool::~ThreadPool() {
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mutex);
      w->stopping = true;
    }
    w->cv.notify_one();
  }
  for (auto& w : workers_) w->thread.join();
}

std::vector<int> ThreadPool::worker_cpus() const {
  std::vector<int> cpus;
  cpus.reserve(workers_.size());
  for (const auto& w : workers_) cpus.push_back(w->cpu);
  return cpus;
}

void ThreadPool::post(Worker& w, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    w.queue.push(std::move(task));
  }
  w.cv.notify_one();
}

void ThreadPool::worker_loop(Worker& w) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(w.mutex);
      w.cv.wait(lock, [&w] { return w.stopping || !w.queue.empty(); });
      if (w.queue.empty()) return;  // stopping with a drained mailbox
      task = std::move(w.queue.front());
      w.queue.pop();
    }
    task();
  }
}

std::vector<ThreadPool::Worker*> ThreadPool::other_cpus_workers() const {
  const int cpu = current_cpu();
  const auto on_callers_cpu = [cpu](const Worker& w) { return cpu >= 0 && w.cpu == cpu; };
  const std::size_t count = workers_.size();
  std::size_t first = 0;
  while (first < count && !on_callers_cpu(*workers_[first])) ++first;
  std::vector<Worker*> others;
  others.reserve(count);
  for (std::size_t k = 1; k <= count; ++k) {
    Worker* w = workers_[(first + k) % count].get();
    if (!on_callers_cpu(*w)) others.push_back(w);
  }
  return others;
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Helpers go to the workers on other CPUs. The caller's CPU already has
  // a runnable thread: the caller, which drains too.
  std::vector<Worker*> others;
  if (n > 1 && !workers_.empty()) others = other_cpus_workers();
  if (others.empty()) {
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
  shared->chunk = std::max<std::size_t>(1, n / (4 * (others.size() + 1)));

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

  const std::size_t helpers = std::min(others.size(), (n - 1) / shared->chunk);
  std::vector<std::future<void>> joins;
  joins.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) {
    auto task = std::make_shared<std::packaged_task<void()>>([shared, drain] { drain(shared); });
    joins.push_back(task->get_future());
    post(*others[i], [task] { (*task)(); });
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

// One mutex guards the whole fan-out: its indices are coarse (a chunk of
// signature checks each), so a claim under the lock costs nothing next to
// the work, and the owner's wait needs no second synchronisation.
struct ThreadPool::FanOut::Shared {
  std::function<void(std::size_t)> fn;  // owned: late helpers may outlive the owner
  std::size_t n = 0;
  std::mutex mutex;
  std::condition_variable cv;  // the owner waits here; finishers notify
  std::size_t next = 0;        // lowest unclaimed index
  std::size_t running = 0;     // claimed, not yet finished
  std::vector<bool> done;
  bool stopped = false;  // claim nothing more: an index threw, or the owner is gone
  std::exception_ptr error;

  /// Claim the next index and run it with the lock released. Requires
  /// `lock` held and next < n.
  void run_next(std::unique_lock<std::mutex>& lock) {
    const std::size_t i = next++;
    ++running;
    lock.unlock();
    std::exception_ptr thrown;
    try {
      fn(i);
    } catch (...) {
      thrown = std::current_exception();
    }
    lock.lock();
    --running;
    if (thrown) {
      if (!error) error = thrown;
      stopped = true;
    } else {
      done[i] = true;
    }
    cv.notify_all();
  }

  /// A helper's task: run indices until none is left to claim.
  void help() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopped && next < n) run_next(lock);
  }
};

ThreadPool::FanOut ThreadPool::fan_out(std::size_t n, std::function<void(std::size_t)> fn) {
  auto shared = std::make_shared<FanOut::Shared>();
  shared->fn = std::move(fn);
  shared->n = n;
  shared->done.assign(n, false);
  if (n > 1 && !workers_.empty()) {
    const std::vector<Worker*> others = other_cpus_workers();
    const std::size_t helpers = std::min(others.size(), n - 1);
    for (std::size_t k = 0; k < helpers; ++k) post(*others[k], [shared] { shared->help(); });
  }
  return FanOut(std::move(shared));
}

ThreadPool::FanOut::~FanOut() {
  if (!shared_) return;  // moved from
  Shared& s = *shared_;
  std::unique_lock<std::mutex> lock(s.mutex);
  s.stopped = true;
  s.cv.wait(lock, [&s] { return s.running == 0; });
}

void ThreadPool::FanOut::wait(std::size_t i) {
  Shared& s = *shared_;
  std::unique_lock<std::mutex> lock(s.mutex);
  while (!s.done[i]) {
    if (s.error) {
      // Rethrow only once no helper is inside fn, and claim nothing more.
      s.cv.wait(lock, [&s] { return s.running == 0; });
      std::rethrow_exception(s.error);
    }
    if (s.next < s.n) {
      s.run_next(lock);
    } else {
      s.cv.wait(lock);
    }
  }
}

void ThreadPool::FanOut::wait_all() {
  for (std::size_t i = 0; i < shared_->n; ++i) wait(i);
}

namespace {

// Leaked on purpose: worker threads must not be joined during static
// destruction, whose order across translation units is unspecified.
std::unique_ptr<ThreadPool>& global_slot() {
  static auto* slot = new std::unique_ptr<ThreadPool>(std::make_unique<ThreadPool>(0));
  return *slot;
}

}  // namespace

std::vector<int> ThreadPool::allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
#endif
  return cpus;
}

std::size_t ThreadPool::hardware_workers() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
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
