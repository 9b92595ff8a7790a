// Gateway observability: lock-free counters (accepts, rejects keyed by
// RejectReason, sheds, queue depth) and a fixed-bucket latency histogram
// with percentile estimation, rendered as the stats document: one JSON
// object that also carries, as StatsSections, the counters other
// subsystems own. Everything here is safe to update from any worker
// thread; reads are racy-but-coherent (relaxed atomics), which is fine
// for monitoring.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "btcfast/protocol.h"

namespace btcfast::gateway {

/// Power-of-two bucketed histogram over microsecond latencies. Bucket i
/// covers [2^i, 2^(i+1)) us (bucket 0 also catches sub-microsecond);
/// percentile() interpolates linearly inside the winning bucket, which is
/// plenty of resolution for p50/p99 reporting across ns..minutes.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram& other) noexcept { accumulate(other); }
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record_us(std::uint64_t us) noexcept;

  /// Fold another histogram's counts into this one (relaxed reads, so a
  /// concurrent recorder yields a racy-but-coherent snapshot — the same
  /// guarantee every other read here gives).
  void accumulate(const LatencyHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// p in [0, 100]. Returns 0 when empty.
  [[nodiscard]] double percentile_us(double p) const noexcept;
  [[nodiscard]] double mean_us() const noexcept;

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// Pipeline stages instrumented with per-stage latency histograms, so a
/// p99 blow-up is attributable to decode vs verify vs WAL without a
/// profiler. kEvaluate covers the merchant's terms/coverage check,
/// kVerify its signature and input checks, kCommit the queue handoff,
/// kRespond receipt recording + frame encoding, kWal the reserve
/// record's append and commit (inside serve_batch: the append plus an
/// even share of the batch's one commit and quorum round). kVerifyPass
/// is serve_batch's loop-thread time outside the per-frame stages until
/// the last verdict is in: decoding every frame and the verify pass's
/// prologue, then every stretch spent running a verify chunk or waiting
/// for one before a decision. While the loop thread decides, the pool's
/// chunk work is not counted, so the stages still add up to the loop
/// thread's time. The total is split evenly across the window's submit
/// frames, one sample per frame.
enum class Stage : std::size_t {
  kDecode = 0,
  kVerify,
  kEvaluate,
  kReserve,
  kWal,
  kCommit,
  kRespond,
  kVerifyPass,
};
inline constexpr std::size_t kStageCount = 8;

[[nodiscard]] const char* stage_name(Stage stage) noexcept;

/// One named object of the stats document: counters, then nested
/// objects. Each subsystem renders its own section from its own counters
/// at the moment the document is built (TcpServer::stats_section,
/// ReplicationGroup::stats_section, Gateway::stats_json for the store and
/// the crypto caches), so nothing is copied ahead of time.
struct StatsSection {
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> values;
  std::vector<StatsSection> sections;
};

/// The counters of the gateway's own decisions: accepts, rejects by
/// reason, sheds, queue depth, end-to-end and per-stage latency.
class GatewayStats {
 public:
  GatewayStats() = default;
  /// Copying takes a relaxed snapshot — this is how Gateway::stats()
  /// returns an aggregated view over per-shard instances.
  GatewayStats(const GatewayStats& other) noexcept { accumulate(other); }
  GatewayStats& operator=(const GatewayStats&) = delete;

  void on_accept(std::uint64_t latency_us) noexcept;
  void on_reject(core::RejectReason code, std::uint64_t latency_us) noexcept;
  void on_shed() noexcept;  ///< overload rejection before any work

  void queue_enter() noexcept {
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
    note_depth();
  }
  void queue_exit() noexcept { queue_depth_.fetch_sub(1, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t accepts() const noexcept {
    return accepts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejects() const noexcept {
    return rejects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sheds() const noexcept {
    return sheds_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejects_for(core::RejectReason code) const noexcept;
  [[nodiscard]] std::uint64_t queue_depth() const noexcept {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak_queue_depth() const noexcept {
    return peak_queue_depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const LatencyHistogram& latency() const noexcept { return latency_; }

  void on_stage(Stage stage, std::uint64_t latency_us) noexcept {
    stages_[static_cast<std::size_t>(stage) % kStageCount].record_us(latency_us);
  }
  [[nodiscard]] const LatencyHistogram& stage(Stage stage) const noexcept {
    return stages_[static_cast<std::size_t>(stage) % kStageCount];
  }

  /// Fold `other`'s counters into this instance (per-shard -> aggregate).
  void accumulate(const GatewayStats& other) noexcept;

  /// The stats document: one JSON object with totals, per-reason reject
  /// counts (only nonzero reasons, keyed by describe()), queue depths,
  /// then `sections` in order, then latency and per-stage percentiles.
  [[nodiscard]] std::string to_json(const std::vector<StatsSection>& sections = {}) const;

  void reset() noexcept;

 private:
  void note_depth() noexcept;

  std::atomic<std::uint64_t> accepts_{0};
  std::atomic<std::uint64_t> rejects_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> peak_queue_depth_{0};
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(core::RejectReason::kMaxReason)>
      by_reason_{};
  LatencyHistogram latency_;
  std::array<LatencyHistogram, kStageCount> stages_;
};

}  // namespace btcfast::gateway
