// DurableStore: the directory-level store tying WAL and snapshots
// together. Layout inside the store directory:
//
//   snap-<seq:016x>.snap   state through WAL sequence <seq>
//   wal-<seq:016x>.wal     segment whose first record is <seq>
//
// open() loads the newest decodable snapshot, replays every WAL segment
// record with seq > snapshot.last_seq (contiguity enforced), and starts
// a fresh active segment at the next sequence number. take_snapshot()
// persists the live image atomically, rotates the WAL, and prunes the
// segments and older snapshots the new snapshot makes obsolete.
//
// All public methods are mutex-serialized: the gateway's serve() workers
// append concurrently while the control thread commits/snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "store/snapshot.h"
#include "store/wal.h"

namespace btcfast::store {

struct StoreOptions {
  FsyncPolicy policy = FsyncPolicy::kBatch;
  std::size_t batch_records = 32;
  /// Auto-compaction: take a snapshot after this many records applied
  /// since the last one. 0 = snapshots only on explicit take_snapshot().
  std::size_t snapshot_every = 0;
};

/// Durability gate consulted after a local WAL commit and before the
/// corresponding response leaves the node: quorum_commit(seq) returns
/// once `seq` is durably appended on a quorum of replicas. A deployment
/// with no replication simply has no gate (or quorum 0) and keeps
/// today's single-node behavior. Implemented by replication::ReplicationGroup;
/// declared here so the gateway can hold one without a layering cycle.
class CommitGate {
 public:
  virtual ~CommitGate() = default;
  [[nodiscard]] virtual bool quorum_commit(std::uint64_t seq, std::uint64_t now_ms) = 0;
};

/// Resumable position for forward streaming through read_range: names
/// the byte offset of the next unread record so a follow-up read can
/// skip re-parsing the segment prefix. Purely an optimization hint —
/// a stale or wrong cursor degrades to the unhinted full-segment scan,
/// never to wrong bytes (the windowed scan re-validates CRCs and
/// sequence continuity exactly like the recovery path).
struct ReadCursor {
  std::uint64_t segment = 0;   ///< start sequence of the segment `offset` is in
  std::uint64_t offset = 0;    ///< byte offset of the record with seq `next_seq`
  std::uint64_t next_seq = 0;  ///< sequence expected at `offset`; 0 = no hint
};

/// One WAL range read (the ship/catch-up seam).
struct RangeScan {
  std::vector<WalRecord> records;
  bool pruned = false;  ///< from_seq predates the oldest retained record
  std::string error;    ///< nonempty: segment corruption, fail closed
  ReadCursor resume;    ///< pass back as `hint` to continue where this read ended

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// What open() found on disk.
struct RecoveryInfo {
  std::uint64_t snapshot_seq = 0;       ///< 0 = recovered from scratch
  std::uint64_t replayed_records = 0;   ///< WAL records applied after the snapshot
  std::uint64_t segments_scanned = 0;
  std::uint64_t snapshots_skipped = 0;  ///< newer snapshots that failed to decode
  bool truncated_tail = false;          ///< final segment ended in a torn write
  std::string error;                    ///< nonempty: recovery failed closed
};

class DurableStore {
 public:
  /// Open or create the store at `dir`. Returns nullptr (with
  /// info->error set when `info` is non-null) on mid-log corruption or
  /// IO failure — never a silently partial recovery.
  [[nodiscard]] static std::unique_ptr<DurableStore> open(const std::string& dir,
                                                          StoreOptions options,
                                                          RecoveryInfo* info = nullptr);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Append one event: serialize, frame into the WAL buffer, apply to
  /// the live image. Returns the assigned sequence number, or nullopt if
  /// the record is an invalid transition (see IndexedImage::apply) — in which
  /// case nothing was logged.
  [[nodiscard]] std::optional<std::uint64_t> append(const StoreRecord& record);

  /// Group-commit the buffered appends (fsync per policy).
  bool commit();

  /// commit() + unconditional fsync.
  bool sync();

  /// Compact: write the live image as a new snapshot, rotate the WAL,
  /// prune obsolete segments and older snapshots.
  bool take_snapshot();

  /// Thread-safe copy of the live image.
  [[nodiscard]] StateImage image_copy() const;

  /// Install/clear the commit observer on the underlying WAL. Survives
  /// snapshot rotation. The tap runs under the store mutex: it must only
  /// buffer bytes, never call back into this store.
  void set_commit_tap(CommitTap tap);

  /// Read committed records starting exactly at `from_seq` (bounded by
  /// `max_records`), from the on-disk segments. Sets `pruned` when
  /// compaction already dropped that range — the caller must fall back
  /// to a snapshot install. A forward-streaming caller passes the prior
  /// read's `resume` cursor back as `hint` to start the segment parse at
  /// the remembered byte offset instead of the segment front; a stale or
  /// mismatched hint is ignored (full re-scan), never trusted blindly.
  [[nodiscard]] RangeScan read_range(std::uint64_t from_seq, std::size_t max_records,
                                     const ReadCursor* hint = nullptr);

  /// Next sequence number the WAL will assign.
  [[nodiscard]] std::uint64_t next_seq() const;
  /// Highest sequence number committed to the file; 0 when none.
  [[nodiscard]] std::uint64_t last_committed_seq() const;

  [[nodiscard]] const RecoveryInfo& recovery() const noexcept { return recovery_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  // Metrics for the gateway stats dump.
  [[nodiscard]] std::uint64_t wal_appends() const;
  [[nodiscard]] std::uint64_t wal_syncs() const;
  [[nodiscard]] std::uint64_t wal_bytes() const;
  [[nodiscard]] std::uint64_t snapshot_bytes() const;  ///< size of the newest snapshot
  [[nodiscard]] std::uint64_t snapshots_taken() const;

 private:
  DurableStore(std::string dir, StoreOptions options);

  bool take_snapshot_locked();
  [[nodiscard]] std::string segment_path(std::uint64_t first_seq) const;
  [[nodiscard]] std::string snapshot_path(std::uint64_t seq) const;

  std::string dir_;
  StoreOptions options_;
  RecoveryInfo recovery_;

  mutable std::mutex mu_;
  IndexedImage image_;
  std::unique_ptr<Wal> wal_;
  CommitTap tap_;  ///< kept so rotation re-installs it on the new Wal
  std::uint64_t active_segment_start_ = 1;
  std::uint64_t records_since_snapshot_ = 0;
  std::uint64_t snapshot_bytes_ = 0;
  std::uint64_t snapshots_taken_ = 0;
  // Carried across WAL rotations so metrics survive take_snapshot().
  std::uint64_t retired_appends_ = 0;
  std::uint64_t retired_syncs_ = 0;
  std::uint64_t retired_bytes_ = 0;
};

}  // namespace btcfast::store
