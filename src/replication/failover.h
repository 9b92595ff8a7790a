// Epoch-numbered failover over the log shipper. ReplicationGroup is the
// primary-side coordinator: it implements store::CommitGate so the
// gateway acks a reservation only once a configurable quorum of
// followers have durably appended it (quorum = 0 degrades to today's
// single-node behavior), and it plans promotions — pick the reachable
// follower with the highest (epoch, sequence), fence the others, and
// hand its directory to promote_follower(), which replays the WAL
// through the existing DurableStore::open path. The promoted store's
// first write is a kEpochChange record, so the new epoch is itself part
// of the replicated, byte-exact state.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "gateway/stats.h"
#include "replication/follower.h"
#include "replication/log_ship.h"
#include "store/recovery.h"

namespace btcfast::replication {

struct ReplicationConfig {
  /// Followers that must durably hold a record before the primary acks
  /// it. 0 = no gating (single-node behavior).
  std::size_t quorum = 0;
  std::size_t max_batch_records = 256;
  std::size_t max_buffer_records = 4096;
  std::uint64_t retry_backoff_ms = 50;
  std::uint64_t max_backoff_ms = 2000;
  /// Retries of the full ship round inside one quorum_commit() before
  /// giving up (each advances the internal clock past one backoff step).
  std::size_t quorum_attempts = 3;
};

struct ReplicationStats {
  std::uint64_t epoch = 0;
  std::uint64_t followers = 0;
  std::uint64_t quorum = 0;
  std::uint64_t acked_watermark = 0;  ///< highest seq a quorum holds
  std::uint64_t acked_high = 0;       ///< highest seq quorum_commit() acked
  std::uint64_t batches_shipped = 0;
  std::uint64_t records_shipped = 0;
  std::uint64_t ship_failures = 0;
  std::uint64_t snapshot_installs = 0;
  std::uint64_t quorum_failures = 0;  ///< quorum_commit() calls that gave up
  bool fenced_out = false;            ///< this primary was deposed
};

/// The outcome of picking a promotion target.
struct PromotionPlan {
  std::size_t index = 0;          ///< follower slot to promote
  std::uint64_t new_epoch = 0;    ///< epoch the promoted node writes under
  std::uint64_t promoted_seq = 0; ///< its durable position at plan time
  std::string error;              ///< nonempty: no reachable follower

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// A completed promotion: the follower's directory reopened through
/// DurableStore::open (full replay — the cross-node extension of the
/// byte-exact recovery invariant) with the kEpochChange record already
/// committed.
struct Promotion {
  std::unique_ptr<store::DurableStore> store;
  std::uint64_t epoch = 0;
  std::uint64_t promoted_seq = 0;  ///< last sequence carried over (pre-epoch-record)
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Promote one follower: fence it at `new_epoch` first (a crash
/// mid-promotion must leave the node deaf to the old primary), close its
/// store, reopen the directory from scratch, then commit + fsync the
/// kEpochChange record. The Follower object is defunct afterwards.
[[nodiscard]] Promotion promote_follower(Follower& follower, std::uint64_t new_epoch);

class ReplicationGroup final : public store::CommitGate {
 public:
  explicit ReplicationGroup(ReplicationConfig config);

  /// Point the group at (a new) primary store: installs the commit tap
  /// and adopts the primary's epoch.
  void attach_primary(store::DurableStore* primary);
  void detach_primary();

  std::size_t add_follower(FollowerLink* link);
  void remove_follower(std::size_t index);

  /// store::CommitGate — safe for concurrent serve threads. Ships until
  /// a quorum durably holds `seq` or the attempts run out. `now_ms` only
  /// ratchets the internal clock forward (passing 0 reuses the latest).
  [[nodiscard]] bool quorum_commit(std::uint64_t seq, std::uint64_t now_ms) override;

  /// Ship without gating (background catch-up driver).
  void pump(std::uint64_t now_ms);

  /// Pick the reachable follower with the highest (epoch, sequence).
  [[nodiscard]] PromotionPlan plan_promotion();

  /// Best-effort fence on every reachable follower; returns how many
  /// accepted. Called with the plan's new_epoch before promote_follower.
  std::size_t fence_followers(std::uint64_t epoch);

  [[nodiscard]] std::uint64_t acked_high() const;
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] ReplicationStats stats() const;
  /// This group's section of the stats document (Gateway::stats_json),
  /// read from stats() at the call.
  [[nodiscard]] gateway::StatsSection stats_section() const;

 private:
  ReplicationConfig config_;
  mutable std::mutex mu_;
  LogShipper shipper_;
  std::uint64_t acked_high_ = 0;
  std::uint64_t now_floor_ = 0;
  std::uint64_t quorum_failures_ = 0;
};

}  // namespace btcfast::replication
