// Gateway observability: lock-free counters (accepts, rejects keyed by
// RejectReason, sheds, queue depth) and a fixed-bucket latency histogram
// with percentile estimation, dumped as a JSON object. Everything here is
// safe to update from any worker thread; reads are racy-but-coherent
// (relaxed atomics), which is fine for monitoring.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

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
/// is serve_batch's phase 1 ahead of the per-frame stages — decoding
/// every frame and batch-verifying its signature jobs: its wall time is
/// split evenly across the submit frames it covered, one sample per
/// frame.
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

/// All gateway counters in one place.
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
  /// Store metrics are process-wide gauges, not per-shard counters, so
  /// accumulate takes max instead of sum for them.
  void accumulate(const GatewayStats& other) noexcept;

  /// Mirror the durable store's counters into the stats dump (the
  /// gateway refreshes these after each commit point). All zeros when no
  /// store is attached.
  void set_store_metrics(std::uint64_t wal_appends, std::uint64_t wal_fsyncs,
                         std::uint64_t recovery_replayed, std::uint64_t snapshot_bytes) noexcept {
    store_wal_appends_.store(wal_appends, std::memory_order_relaxed);
    store_wal_fsyncs_.store(wal_fsyncs, std::memory_order_relaxed);
    store_recovery_replayed_.store(recovery_replayed, std::memory_order_relaxed);
    store_snapshot_bytes_.store(snapshot_bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t store_wal_appends() const noexcept {
    return store_wal_appends_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t store_wal_fsyncs() const noexcept {
    return store_wal_fsyncs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t store_recovery_replayed() const noexcept {
    return store_recovery_replayed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t store_snapshot_bytes() const noexcept {
    return store_snapshot_bytes_.load(std::memory_order_relaxed);
  }

  /// Mirror the process-wide crypto cache counters (SigCache and the
  /// per-pubkey GLV precomp cache) into the stats dump. Like the store
  /// metrics these are gauges filled at snapshot time, so accumulate()
  /// takes max instead of summing them across shards.
  void set_cache_metrics(std::uint64_t sig_hits, std::uint64_t sig_misses,
                         std::uint64_t sig_insertions, std::uint64_t sig_evictions,
                         std::uint64_t pre_hits, std::uint64_t pre_misses,
                         std::uint64_t pre_insertions, std::uint64_t pre_evictions) noexcept {
    sigcache_hits_.store(sig_hits, std::memory_order_relaxed);
    sigcache_misses_.store(sig_misses, std::memory_order_relaxed);
    sigcache_insertions_.store(sig_insertions, std::memory_order_relaxed);
    sigcache_evictions_.store(sig_evictions, std::memory_order_relaxed);
    precomp_hits_.store(pre_hits, std::memory_order_relaxed);
    precomp_misses_.store(pre_misses, std::memory_order_relaxed);
    precomp_insertions_.store(pre_insertions, std::memory_order_relaxed);
    precomp_evictions_.store(pre_evictions, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sigcache_hits() const noexcept {
    return sigcache_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sigcache_misses() const noexcept {
    return sigcache_misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sigcache_insertions() const noexcept {
    return sigcache_insertions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sigcache_evictions() const noexcept {
    return sigcache_evictions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t precomp_hits() const noexcept {
    return precomp_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t precomp_misses() const noexcept {
    return precomp_misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t precomp_insertions() const noexcept {
    return precomp_insertions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t precomp_evictions() const noexcept {
    return precomp_evictions_.load(std::memory_order_relaxed);
  }

  /// Mirror the TCP front end's counters (src/net TcpServer) into the
  /// stats dump. Gauges filled at snapshot time, like the store metrics,
  /// so accumulate() takes max instead of summing across shards.
  void set_net_metrics(std::uint64_t conns_accepted, std::uint64_t conns_active,
                       std::uint64_t bans, std::uint64_t frames_in, std::uint64_t sheds_seen,
                       std::uint64_t disconnects) noexcept {
    net_conns_accepted_.store(conns_accepted, std::memory_order_relaxed);
    net_conns_active_.store(conns_active, std::memory_order_relaxed);
    net_bans_.store(bans, std::memory_order_relaxed);
    net_frames_in_.store(frames_in, std::memory_order_relaxed);
    net_sheds_seen_.store(sheds_seen, std::memory_order_relaxed);
    net_disconnects_.store(disconnects, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t net_conns_accepted() const noexcept {
    return net_conns_accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t net_conns_active() const noexcept {
    return net_conns_active_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t net_bans() const noexcept {
    return net_bans_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t net_frames_in() const noexcept {
    return net_frames_in_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t net_sheds_seen() const noexcept {
    return net_sheds_seen_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t net_disconnects() const noexcept {
    return net_disconnects_.load(std::memory_order_relaxed);
  }

  /// Mirror the replication group's gauges (primary epoch, follower
  /// count, quorum config, quorum-acked watermark, ship counters) into
  /// the stats dump. Gauge slots, like the net metrics.
  void set_replication_metrics(std::uint64_t epoch, std::uint64_t followers,
                               std::uint64_t quorum, std::uint64_t acked_seq,
                               std::uint64_t batches_shipped, std::uint64_t ship_failures,
                               std::uint64_t snapshot_installs) noexcept {
    repl_epoch_.store(epoch, std::memory_order_relaxed);
    repl_followers_.store(followers, std::memory_order_relaxed);
    repl_quorum_.store(quorum, std::memory_order_relaxed);
    repl_acked_seq_.store(acked_seq, std::memory_order_relaxed);
    repl_batches_shipped_.store(batches_shipped, std::memory_order_relaxed);
    repl_ship_failures_.store(ship_failures, std::memory_order_relaxed);
    repl_snapshot_installs_.store(snapshot_installs, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t repl_epoch() const noexcept {
    return repl_epoch_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t repl_followers() const noexcept {
    return repl_followers_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t repl_quorum() const noexcept {
    return repl_quorum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t repl_acked_seq() const noexcept {
    return repl_acked_seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t repl_batches_shipped() const noexcept {
    return repl_batches_shipped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t repl_ship_failures() const noexcept {
    return repl_ship_failures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t repl_snapshot_installs() const noexcept {
    return repl_snapshot_installs_.load(std::memory_order_relaxed);
  }

  /// One JSON object: totals, per-reason reject counts (only nonzero
  /// reasons, keyed by describe()), queue depths, latency percentiles.
  [[nodiscard]] std::string to_json() const;

  /// Atomically write to_json() to `path` (temp file + rename), so a
  /// monitoring reader never sees a torn file. Returns false on IO error.
  bool write_json(const std::string& path) const;

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
  std::atomic<std::uint64_t> store_wal_appends_{0};
  std::atomic<std::uint64_t> store_wal_fsyncs_{0};
  std::atomic<std::uint64_t> store_recovery_replayed_{0};
  std::atomic<std::uint64_t> store_snapshot_bytes_{0};
  std::atomic<std::uint64_t> sigcache_hits_{0};
  std::atomic<std::uint64_t> sigcache_misses_{0};
  std::atomic<std::uint64_t> sigcache_insertions_{0};
  std::atomic<std::uint64_t> sigcache_evictions_{0};
  std::atomic<std::uint64_t> precomp_hits_{0};
  std::atomic<std::uint64_t> precomp_misses_{0};
  std::atomic<std::uint64_t> precomp_insertions_{0};
  std::atomic<std::uint64_t> precomp_evictions_{0};
  std::atomic<std::uint64_t> net_conns_accepted_{0};
  std::atomic<std::uint64_t> net_conns_active_{0};
  std::atomic<std::uint64_t> net_bans_{0};
  std::atomic<std::uint64_t> net_frames_in_{0};
  std::atomic<std::uint64_t> net_sheds_seen_{0};
  std::atomic<std::uint64_t> net_disconnects_{0};
  std::atomic<std::uint64_t> repl_epoch_{0};
  std::atomic<std::uint64_t> repl_followers_{0};
  std::atomic<std::uint64_t> repl_quorum_{0};
  std::atomic<std::uint64_t> repl_acked_seq_{0};
  std::atomic<std::uint64_t> repl_batches_shipped_{0};
  std::atomic<std::uint64_t> repl_ship_failures_{0};
  std::atomic<std::uint64_t> repl_snapshot_installs_{0};
  LatencyHistogram latency_;
  std::array<LatencyHistogram, kStageCount> stages_;
};

}  // namespace btcfast::gateway
