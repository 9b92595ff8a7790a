// Replication subsystem tests: WAL-shipping parity (followers
// byte-identical to the primary), fail-closed batch validation (gaps,
// CRC flips, stale epochs, cross-epoch divergence), quorum semantics
// including the quorum=0 degradation and unreachable-quorum rejection,
// crash-point-exhaustive failover (kill the primary at every ship
// boundary and prove the promoted store is byte-exact for every acked
// record), catch-up after follower restart, and snapshot install past
// compaction.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "replication/failover.h"
#include "replication/follower.h"
#include "replication/log_ship.h"
#include "store/recovery.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace btcfast::replication {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("btcfast-repl-test-" + tag + "-" +
                      std::to_string(static_cast<unsigned long>(::getpid())));
  fs::remove_all(p);
  return p.string();
}

store::StoreOptions no_fsync() {
  store::StoreOptions o;
  o.policy = store::FsyncPolicy::kNone;
  return o;
}

store::StoreRecord reserve_rec(store::ReservationId rid) {
  store::StoreRecord r;
  r.kind = store::RecordKind::kReserve;
  r.reservation_id = rid;
  r.escrow_id = 7;
  r.amount = 1000 + rid;
  r.expires_at_ms = 50'000 + rid;
  r.txid[0] = static_cast<std::uint8_t>(rid);
  return r;
}

store::StoreRecord release_rec(store::ReservationId rid) {
  store::StoreRecord r;
  r.kind = store::RecordKind::kRelease;
  r.reservation_id = rid;
  r.cause = store::ReleaseCause::kRejected;
  return r;
}

/// A primary + N followers rig with local in-process links, everything
/// fsync-free (tests simulate crashes by dropping handles, not power).
struct Rig {
  Rig() = default;
  Rig(Rig&&) = default;
  Rig& operator=(Rig&&) = default;

  std::unique_ptr<store::DurableStore> primary;
  std::vector<std::unique_ptr<Follower>> followers;
  std::vector<std::unique_ptr<LocalFollowerLink>> links;
  std::vector<std::string> dirs;
  std::string primary_dir;

  static Rig make(const std::string& tag, std::size_t n_followers,
                  store::StoreOptions primary_opts) {
    Rig rig;
    rig.primary_dir = scratch_dir(tag + "-primary");
    rig.primary = store::DurableStore::open(rig.primary_dir, primary_opts);
    EXPECT_NE(rig.primary, nullptr);
    for (std::size_t i = 0; i < n_followers; ++i) {
      rig.dirs.push_back(scratch_dir(tag + "-f" + std::to_string(i)));
      Follower::Options fopts;
      fopts.store = no_fsync();
      std::string err;
      rig.followers.push_back(Follower::open(rig.dirs[i], fopts, &err));
      EXPECT_NE(rig.followers[i], nullptr) << err;
      rig.links.push_back(std::make_unique<LocalFollowerLink>(rig.followers[i].get()));
    }
    return rig;
  }

  ~Rig() {
    for (const auto& d : dirs) fs::remove_all(d);
    if (!primary_dir.empty()) fs::remove_all(primary_dir);
  }
};

/// Rebuild the primary's state image at `upto` by replaying its WAL
/// from sequence 1 — the byte-exact control for failover assertions.
store::StateImage replay_primary_to(store::DurableStore& primary, std::uint64_t upto) {
  store::StateImage img;
  const auto scan = primary.read_range(1, 1 << 20);
  EXPECT_TRUE(scan.ok()) << scan.error;
  EXPECT_FALSE(scan.pruned) << "control replay needs the full WAL (snapshot_every=0)";
  for (const auto& wr : scan.records) {
    if (wr.seq > upto) break;
    const auto rec = store::StoreRecord::deserialize(wr.payload);
    EXPECT_TRUE(rec.has_value());
    EXPECT_TRUE(store::apply_record(img, *rec, wr.seq));
  }
  return img;
}

// ------------------------------------------------------------ shipping

TEST(LogShip, FollowersConvergeByteIdentical) {
  Rig rig = Rig::make("parity", 2, no_fsync());
  LogShipper shipper(LogShipper::Options{});
  shipper.attach_primary(rig.primary.get());
  shipper.add_follower(rig.links[0].get());
  shipper.add_follower(rig.links[1].get());

  for (store::ReservationId rid = 1; rid <= 40; ++rid) {
    ASSERT_TRUE(rig.primary->append(reserve_rec(rid)).has_value());
    if (rid % 3 == 0) {
      ASSERT_TRUE(rig.primary->append(release_rec(rid)).has_value());
    }
    ASSERT_TRUE(rig.primary->commit());
    if (rid % 5 == 0) shipper.pump(rid);
  }
  shipper.pump(1000);

  const Bytes want = rig.primary->image_copy().serialize();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rig.followers[i]->store()->image_copy().serialize(), want) << "follower " << i;
    EXPECT_EQ(rig.followers[i]->cursor().last_seq, rig.primary->last_committed_seq());
  }
  EXPECT_EQ(shipper.acked_watermark(2), rig.primary->last_committed_seq());
  EXPECT_GT(shipper.stats().batches_shipped, 0u);
}

TEST(LogShip, ReshipIsIdempotent) {
  Rig rig = Rig::make("reship", 1, no_fsync());
  ASSERT_TRUE(rig.primary->append(reserve_rec(1)).has_value());
  ASSERT_TRUE(rig.primary->commit());

  Bytes framed;
  {
    const auto scan = rig.primary->read_range(1, 16);
    ASSERT_TRUE(scan.ok());
    for (const auto& wr : scan.records) store::append_wal_record(framed, wr.seq, wr.payload);
  }
  ShipBatch batch;
  batch.epoch = 0;
  batch.first_seq = 1;
  batch.count = 1;
  batch.framed = framed;

  ASSERT_TRUE(rig.followers[0]->append_batch(batch).ok);
  const auto again = rig.followers[0]->append_batch(batch);
  EXPECT_TRUE(again.ok) << static_cast<int>(again.error);
  EXPECT_EQ(again.next_seq, 2u);
  EXPECT_EQ(rig.followers[0]->store()->image_copy().serialize(),
            rig.primary->image_copy().serialize());
}

// ------------------------------------------------- fail-closed intake

class FollowerRejects : public ::testing::Test {
 protected:
  void SetUp() override {
    rig_ = std::make_unique<Rig>(Rig::make("reject", 1, no_fsync()));
    ASSERT_TRUE(rig_->primary->append(reserve_rec(1)).has_value());
    ASSERT_TRUE(rig_->primary->append(reserve_rec(2)).has_value());
    ASSERT_TRUE(rig_->primary->commit());
    const auto scan = rig_->primary->read_range(1, 16);
    ASSERT_TRUE(scan.ok());
    for (const auto& wr : scan.records) {
      store::append_wal_record(batch_.framed, wr.seq, wr.payload);
    }
    batch_.epoch = 0;
    batch_.first_seq = 1;
    batch_.count = 2;
  }

  std::unique_ptr<Rig> rig_;
  ShipBatch batch_;
};

TEST_F(FollowerRejects, SequenceGapFailsClosed) {
  // A well-formed batch starting past the follower's next sequence: the
  // same payloads re-framed (valid CRCs) at seqs 5 and 6.
  ShipBatch gap;
  gap.epoch = 0;
  gap.first_seq = 5;  // follower expects 1
  gap.count = 2;
  const auto scan = rig_->primary->read_range(1, 16);
  ASSERT_TRUE(scan.ok());
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    store::append_wal_record(gap.framed, 5 + i, scan.records[i].payload);
  }
  const auto ack = rig_->followers[0]->append_batch(gap);
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.error, ShipError::kSequenceGap);
  EXPECT_EQ(ack.next_seq, 1u);
  EXPECT_EQ(rig_->followers[0]->store()->last_committed_seq(), 0u);
}

TEST_F(FollowerRejects, EveryCrcFlipFailsClosed) {
  for (std::size_t i = 0; i < batch_.framed.size(); ++i) {
    ShipBatch bad = batch_;
    bad.framed[i] ^= 0x01;
    const auto ack = rig_->followers[0]->append_batch(bad);
    EXPECT_FALSE(ack.ok) << "flip at " << i;
    EXPECT_EQ(rig_->followers[0]->store()->last_committed_seq(), 0u) << "flip at " << i;
  }
  // The pristine batch still lands: nothing was half-applied.
  EXPECT_TRUE(rig_->followers[0]->append_batch(batch_).ok);
  EXPECT_EQ(rig_->followers[0]->store()->last_committed_seq(), 2u);
}

TEST_F(FollowerRejects, StaleEpochFailsClosed) {
  ASSERT_TRUE(rig_->followers[0]->fence(3));
  const auto ack = rig_->followers[0]->append_batch(batch_);  // epoch 0 < fence 3
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.error, ShipError::kStaleEpoch);
  EXPECT_EQ(rig_->followers[0]->store()->last_committed_seq(), 0u);
}

TEST_F(FollowerRejects, CrossEpochOverlapIsDivergence) {
  ASSERT_TRUE(rig_->followers[0]->append_batch(batch_).ok);
  ShipBatch newer = batch_;
  newer.epoch = 2;  // a promoted primary re-shipping seq 1 = histories split
  const auto ack = rig_->followers[0]->append_batch(newer);
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.error, ShipError::kDiverged);
}

TEST_F(FollowerRejects, FencePersistsAcrossRestart) {
  ASSERT_TRUE(rig_->followers[0]->fence(9));
  const std::string dir = rig_->followers[0]->dir();
  rig_->followers[0].reset();
  Follower::Options fopts;
  fopts.store = no_fsync();
  auto reopened = Follower::open(dir, fopts);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->fenced_epoch(), 9u);
  const auto ack = reopened->append_batch(batch_);
  EXPECT_EQ(ack.error, ShipError::kStaleEpoch);
}

// --------------------------------------------------------- quorum gate

TEST(ReplicationGroup, QuorumZeroIsSingleNode) {
  Rig rig = Rig::make("q0", 0, no_fsync());
  ReplicationConfig cfg;
  cfg.quorum = 0;
  ReplicationGroup group(cfg);
  group.attach_primary(rig.primary.get());
  const auto seq = rig.primary->append(reserve_rec(1));
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(rig.primary->commit());
  EXPECT_TRUE(group.quorum_commit(*seq, 1));
  group.detach_primary();
}

TEST(ReplicationGroup, UnreachableQuorumFailsClosed) {
  Rig rig = Rig::make("qdown", 1, no_fsync());
  ReplicationConfig cfg;
  cfg.quorum = 1;
  ReplicationGroup group(cfg);
  group.attach_primary(rig.primary.get());
  group.add_follower(rig.links[0].get());

  rig.links[0]->set_down(true);
  const auto seq = rig.primary->append(reserve_rec(1));
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(rig.primary->commit());
  EXPECT_FALSE(group.quorum_commit(*seq, 1));
  EXPECT_GT(group.stats().quorum_failures, 0u);

  // The follower coming back heals the gate without operator action.
  rig.links[0]->set_down(false);
  EXPECT_TRUE(group.quorum_commit(*seq, 10'000));
  EXPECT_EQ(group.acked_high(), *seq);
  group.detach_primary();
}

TEST(ReplicationGroup, QuorumOneNeedsOnlyFastestFollower) {
  Rig rig = Rig::make("q1of2", 2, no_fsync());
  ReplicationConfig cfg;
  cfg.quorum = 1;
  ReplicationGroup group(cfg);
  group.attach_primary(rig.primary.get());
  group.add_follower(rig.links[0].get());
  group.add_follower(rig.links[1].get());

  rig.links[1]->set_down(true);  // slow replica lost; group stays writable
  const auto seq = rig.primary->append(reserve_rec(1));
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(rig.primary->commit());
  EXPECT_TRUE(group.quorum_commit(*seq, 1));
  EXPECT_EQ(rig.followers[0]->cursor().last_seq, *seq);
  EXPECT_EQ(rig.followers[1]->cursor().last_seq, 0u);
  group.detach_primary();
}

// ------------------------------------------------------------ failover

// Kill the primary at every ship boundary k (k committed records were
// quorum-acked, the rest never shipped) and promote the follower. The
// promoted store must (a) cover every acked sequence and (b) be
// byte-identical to replaying the primary's WAL to its promoted_seq —
// with the new epoch, whose record the promotion itself writes.
TEST(Failover, CrashPointExhaustiveByteExactPromotion) {
  constexpr std::uint64_t kRecords = 7;
  for (std::uint64_t k = 0; k <= kRecords; ++k) {
    Rig rig = Rig::make("fo" + std::to_string(k), 1, no_fsync());
    ReplicationConfig cfg;
    cfg.quorum = 1;
    ReplicationGroup group(cfg);
    group.attach_primary(rig.primary.get());
    group.add_follower(rig.links[0].get());

    for (std::uint64_t i = 1; i <= kRecords; ++i) {
      const auto seq = rig.primary->append(reserve_rec(i));
      ASSERT_TRUE(seq.has_value());
      ASSERT_TRUE(rig.primary->commit());
      if (i <= k) {
        ASSERT_TRUE(group.quorum_commit(*seq, i)) << "k=" << k << " i=" << i;
      }
    }
    const std::uint64_t acked_high = group.acked_high();
    ASSERT_EQ(acked_high, k);

    const auto plan = group.plan_promotion();
    ASSERT_TRUE(plan.ok()) << plan.error;
    EXPECT_EQ(plan.new_epoch, 1u);
    group.detach_primary();

    auto promo = promote_follower(*rig.followers[plan.index], plan.new_epoch);
    ASSERT_TRUE(promo.ok()) << promo.error;
    ASSERT_NE(promo.store, nullptr);
    EXPECT_GE(promo.promoted_seq, acked_high) << "acked record lost at k=" << k;

    store::StateImage want = replay_primary_to(*rig.primary, promo.promoted_seq);
    want.epoch = plan.new_epoch;
    want.last_seq = promo.store->last_committed_seq();  // + the kEpochChange record
    EXPECT_EQ(promo.store->image_copy().serialize(), want.serialize()) << "k=" << k;

    // The promoted node is fenced: it refuses the deposed primary's epoch.
    const auto img = promo.store->image_copy();
    EXPECT_EQ(img.epoch, plan.new_epoch);
  }
}

TEST(Failover, DeposedPrimaryIsFencedOut) {
  Rig rig = Rig::make("fence", 1, no_fsync());
  ReplicationConfig cfg;
  cfg.quorum = 1;
  ReplicationGroup group(cfg);
  group.attach_primary(rig.primary.get());
  group.add_follower(rig.links[0].get());

  const auto seq = rig.primary->append(reserve_rec(1));
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(rig.primary->commit());
  ASSERT_TRUE(group.quorum_commit(*seq, 1));

  // Promotion happens "elsewhere": the follower is fenced at epoch 1.
  ASSERT_TRUE(rig.followers[0]->fence(1));

  // The old primary's next quorum_commit must fail — and latch.
  const auto seq2 = rig.primary->append(reserve_rec(2));
  ASSERT_TRUE(seq2.has_value());
  ASSERT_TRUE(rig.primary->commit());
  EXPECT_FALSE(group.quorum_commit(*seq2, 2));
  EXPECT_TRUE(group.stats().fenced_out);
  group.detach_primary();
}

TEST(Failover, CatchUpAfterFollowerRestart) {
  Rig rig = Rig::make("catchup", 1, no_fsync());
  LogShipper shipper(LogShipper::Options{});
  shipper.attach_primary(rig.primary.get());
  shipper.add_follower(rig.links[0].get());

  ASSERT_TRUE(rig.primary->append(reserve_rec(1)).has_value());
  ASSERT_TRUE(rig.primary->commit());
  shipper.pump(1);
  ASSERT_EQ(rig.followers[0]->cursor().last_seq, 1u);

  // Follower process dies; primary keeps committing.
  rig.links[0]->set_follower(nullptr);
  for (store::ReservationId rid = 2; rid <= 10; ++rid) {
    ASSERT_TRUE(rig.primary->append(reserve_rec(rid)).has_value());
    ASSERT_TRUE(rig.primary->commit());
    shipper.pump(rid);  // all NACK as unreachable
  }

  // Restart from its own disk; the shipper replays the delta.
  rig.followers[0].reset();
  Follower::Options fopts;
  fopts.store = no_fsync();
  rig.followers[0] = Follower::open(rig.dirs[0], fopts);
  ASSERT_NE(rig.followers[0], nullptr);
  EXPECT_EQ(rig.followers[0]->cursor().last_seq, 1u);
  rig.links[0]->set_follower(rig.followers[0].get());

  shipper.pump(100'000);  // past any backoff
  EXPECT_EQ(rig.followers[0]->store()->image_copy().serialize(),
            rig.primary->image_copy().serialize());
}

TEST(Failover, SnapshotInstallWhenLogIsPruned) {
  store::StoreOptions popts = no_fsync();
  Rig rig = Rig::make("install", 1, popts);
  for (store::ReservationId rid = 1; rid <= 20; ++rid) {
    ASSERT_TRUE(rig.primary->append(reserve_rec(rid)).has_value());
    ASSERT_TRUE(rig.primary->commit());
  }
  // Compaction drops the shipped history before the follower ever sees it.
  ASSERT_TRUE(rig.primary->take_snapshot());
  ASSERT_TRUE(rig.primary->append(reserve_rec(21)).has_value());
  ASSERT_TRUE(rig.primary->commit());

  LogShipper shipper(LogShipper::Options{});
  shipper.attach_primary(rig.primary.get());
  shipper.add_follower(rig.links[0].get());
  shipper.pump(1);

  EXPECT_GE(shipper.stats().snapshot_installs, 1u);
  EXPECT_EQ(rig.followers[0]->store()->image_copy().serialize(),
            rig.primary->image_copy().serialize());

  // And the installed follower keeps tailing normally afterwards.
  ASSERT_TRUE(rig.primary->append(reserve_rec(22)).has_value());
  ASSERT_TRUE(rig.primary->commit());
  shipper.pump(100'000);
  EXPECT_EQ(rig.followers[0]->store()->image_copy().serialize(),
            rig.primary->image_copy().serialize());
}

}  // namespace
}  // namespace btcfast::replication
