// Shared helpers for the full-stack benchmark: the clock, order
// statistics, peak RSS, the in-memory span log and metric output.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sched.h>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// The CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pin the calling thread to one CPU (no-op when `cpu` < 0).
///
/// On a shared host a vCPU is as fast as what else runs on its physical
/// core lets it be, and the host this benchmark was written on kept one
/// vCPU up to 30% slower than the others for seconds at a time. The
/// scheduler leaves a busy thread where it is, so a whole run could sit
/// on the slow one. The benchmark therefore moves its threads to a
/// different CPU for each repetition or time slice, so every run samples
/// every CPU the process may use. A new thread inherits its creator's
/// CPU, so pinning starts only after set-up: the library's worker pool,
/// created during set-up, keeps every CPU.
inline void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// The CPU for repetition `k` from `cpus`, rotating; -1 when there is
/// no choice to make.
inline int rotating_cpu(const std::vector<int>& cpus, std::size_t k) {
  return cpus.size() < 2 ? -1 : cpus[k % cpus.size()];
}

/// A second CPU for repetition `k`, never rotating_cpu(cpus, k): over
/// n(n-1) repetitions the two run through every ordered pair of distinct
/// CPUs once.
inline int partner_cpu(const std::vector<int>& cpus, std::size_t k) {
  const std::size_t n = cpus.size();
  return n < 2 ? -1 : cpus[(k + 1 + (k / n) % (n - 1)) % n];
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty. Sorts in place.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double percentile_copy(std::vector<double> v, double p) { return percentile(v, p); }

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// One timed interval at a layer boundary. `key` identifies the unit of
/// work (request id, handler call, batch index); `parent` is the key of
/// the enclosing span (0 when none).
struct Span {
  const char* name = "";
  std::uint64_t key = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Spans stay in memory while the run measures and are written out once
/// it ends. Each log is appended to by one thread at a time (a thread
/// hand-off such as a join orders the writers), so recording takes no
/// lock. Enabling is atomic so another thread may switch a pass to traced.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  void add(const char* name, std::uint64_t key, std::uint64_t parent, std::uint64_t start_ns,
           std::uint64_t end_ns) {
    if (enabled()) spans_.push_back(Span{name, key, parent, start_ns, end_ns});
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::atomic<bool> enabled_;
  std::vector<Span> spans_;
};

/// Append every span of `logs` to `path` as CSV (name,key,parent,start_ns,end_ns).
inline bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,key,parent,start_ns,end_ns\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%s,%llu,%llu,%llu,%llu\n", s.name, static_cast<unsigned long long>(s.key),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion-independent (sorted) order.
using Metrics = std::map<std::string, Metric>;

/// What one workload run hands back to main().
struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
};

inline double median(std::vector<double> v) { return percentile(v, 50); }

/// Whether to time one more set-up build, given the build times so far:
/// at least 3 builds and at least 1 s of them, at most 15. The median is
/// reported, so a single slow build does not set it.
inline bool more_setups(const std::vector<double>& setup_s) {
  double total = 0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 1.0 && setup_s.size() < 15);
}

/// The near-best value: with the values ordered best first (highest
/// first when higher is better), the one at index size/20, so a
/// twentieth of them are better (0 when empty). On the host this
/// benchmark was written on, each vCPU switches between a fast and an up
/// to 30% slower state every few seconds. A slow spell only ever makes a
/// sample worse, while a change in the program moves every sample. So the
/// near-best sample follows the program, and a single lucky sample does
/// not set it.
inline double near_best(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (higher_is_better) std::reverse(v.begin(), v.end());
  return v[v.size() / 20];
}

}  // namespace perfbench
