// Replication subsystem tests: WAL-shipping parity (followers
// byte-identical to the primary), fail-closed batch validation (gaps,
// CRC flips, stale epochs, cross-epoch divergence), quorum semantics
// including the quorum=0 degradation and unreachable-quorum rejection,
// crash-point-exhaustive failover (kill the primary at every ship
// boundary and prove the promoted store is byte-exact for every acked
// record), catch-up after follower restart, and snapshot install past
// compaction. The gateway's batch commit is tested here too: one WAL
// commit and one quorum commit per serve_batch, byte-identical to a
// serve() loop, and undone whole when the commit or the quorum fails;
// so is its stats document's replication section.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "btc/transaction.h"
#include "btcfast/orchestrator.h"
#include "btcsim/scenario.h"
#include "common/thread_pool.h"
#include "gateway/pipeline.h"
#include "gateway/wire.h"
#include "replication/failover.h"
#include "replication/follower.h"
#include "replication/log_ship.h"
#include "stats_doc.h"
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
  store::IndexedImage img;
  const auto scan = primary.read_range(1, 1 << 20);
  EXPECT_TRUE(scan.ok()) << scan.error;
  EXPECT_FALSE(scan.pruned) << "control replay needs the full WAL (snapshot_every=0)";
  for (const auto& wr : scan.records) {
    if (wr.seq > upto) break;
    const auto rec = store::StoreRecord::deserialize(wr.payload);
    EXPECT_TRUE(rec.has_value());
    EXPECT_TRUE(img.apply(*rec, wr.seq));
  }
  return img.image();
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

// --------------------------------------------- gateway batch commit

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// One seeded world for the batch-commit tests: a deployment whose escrow
/// covers every valid payment, one invoice per frame slot, and a frame
/// list mixing accepts with every verify_payment rejection, a replay, a
/// bad invoice, a garbage frame and reads. Two worlds built from the same
/// seed hold identical state, so the frames of one are valid for both.
struct BatchWorld {
  BatchWorld() {
    core::DeploymentConfig cfg;
    cfg.seed = 5150;
    cfg.funded_coins = 9;
    cfg.collateral = 20'000'000;
    dep = std::make_unique<core::Deployment>(cfg);
    now = static_cast<std::uint64_t>(dep->simulator().now());
    for (int i = 0; i < 9; ++i) {
      invoices.push_back(dep->merchant().make_invoice(5 * btc::kCoin, cfg.compensation, now,
                                                      10ULL * 60 * 1000));
    }
    coins = sim::find_spendable(dep->customer_node().chain(),
                                dep->customer().btc_identity().script);
  }

  core::FastPayPackage pay(std::size_t i) {
    return dep->customer().create_fastpay(invoices[i], coins[i].first, coins[i].second.out.value,
                                          now, dep->config().binding_ttl_ms);
  }

  /// Re-point the binding at the (modified) payment tx and re-sign it.
  void rebind(core::FastPayPackage& p) const {
    p.binding.binding.btc_txid = p.payment_tx.txid();
    p.binding.customer_sig =
        crypto::ecdsa_sign(dep->customer().btc_identity().key, p.binding.binding.signing_digest())
            .serialize();
  }

  gateway::Gateway& gateway(common::ThreadPool& pool) {
    gw = std::make_unique<gateway::Gateway>(dep->merchant(), pool, gateway::GatewayConfig{});
    for (const auto& inv : invoices) gw->register_invoice(inv);
    gw->track_escrow(dep->customer().escrow_id());
    return *gw;
  }

  std::unique_ptr<core::Deployment> dep;
  std::unique_ptr<gateway::Gateway> gw;
  std::uint64_t now = 0;
  std::vector<core::Invoice> invoices;
  std::vector<std::pair<btc::OutPoint, btc::Coin>> coins;
};

Bytes submit(std::uint64_t rid, const core::Invoice& inv, const core::FastPayPackage& p) {
  gateway::SubmitFastPayRequest req;
  req.invoice_id = inv.invoice_id;
  req.package = p;
  return gateway::make_frame(gateway::MsgType::kSubmitFastPay, rid, req.serialize());
}

struct BatchFrames {
  std::vector<Bytes> frames;
  btc::Transaction conflict;  ///< goes into the merchant mempool first
};

/// The frame mix (built against `w`; the same bytes serve every world).
BatchFrames batch_frames(BatchWorld& w) {
  BatchFrames out;
  auto& f = out.frames;
  const auto p0 = w.pay(0);
  f.push_back(submit(1, w.invoices[0], p0));
  f.push_back(submit(2, w.invoices[1], w.pay(1)));
  f.push_back(gateway::make_frame(gateway::MsgType::kGetReceipt, 3,
                                  gateway::GetReceiptRequest{1}.serialize()));
  f.push_back(submit(4, w.invoices[0], p0));  // replay: kDuplicatePayment
  auto bad_binding = w.pay(2);
  bad_binding.binding.customer_sig[5] ^= 0x10;
  f.push_back(submit(5, w.invoices[2], bad_binding));  // kBindingSigInvalid
  gateway::QueryEscrowRequest q;
  q.escrow_id = w.dep->customer().escrow_id();
  f.push_back(gateway::make_frame(gateway::MsgType::kQueryEscrow, 6, q.serialize()));
  auto bad_input = w.pay(3);
  bad_input.payment_tx.inputs[0].script_sig.signature[9] ^= 0x01;
  w.rebind(bad_input);
  f.push_back(submit(7, w.invoices[3], bad_input));  // kInputSigInvalid
  auto missing = w.pay(4);
  missing.payment_tx.inputs[0].prevout.txid.bytes[3] ^= 0x01;
  w.rebind(missing);
  f.push_back(submit(8, w.invoices[4], missing));  // kInputMissing
  auto inflated = w.pay(5);
  inflated.payment_tx.outputs[0].value += 100 * btc::kCoin;
  btc::sign_input(inflated.payment_tx, 0, w.dep->customer().btc_identity().key,
                  w.coins[5].second.out.script_pubkey);
  w.rebind(inflated);
  f.push_back(submit(9, w.invoices[5], inflated));  // kValueInflation
  const auto conflicted = w.pay(6);
  // A different spend of the same coin sits in the merchant's mempool.
  auto other = w.pay(6);
  other.payment_tx.outputs[0].value -= 1;
  btc::sign_input(other.payment_tx, 0, w.dep->customer().btc_identity().key,
                  w.coins[6].second.out.script_pubkey);
  out.conflict = other.payment_tx;
  f.push_back(submit(10, w.invoices[6], conflicted));  // kInputConflict
  f.push_back(submit(11, w.invoices[7], w.pay(7)));
  core::Invoice unknown = w.invoices[8];
  unknown.invoice_id += 1000;
  f.push_back(submit(12, unknown, w.pay(8)));  // kUnknownInvoice
  f.push_back(Bytes{0xde, 0xad, 0xbe, 0xef});   // undecodable frame
  f.push_back(submit(14, w.invoices[8], w.pay(8)));
  f.push_back(gateway::make_frame(gateway::MsgType::kGetReceipt, 15,
                                  gateway::GetReceiptRequest{11}.serialize()));
  return out;
}

/// Commit gate over a ReplicationGroup that checks the ordering rule at
/// every quorum ask: the records are already committed locally.
struct CheckedGate final : store::CommitGate {
  CheckedGate(store::CommitGate& inner, store::DurableStore& primary)
      : inner(inner), primary(primary) {}
  bool quorum_commit(std::uint64_t seq, std::uint64_t now_ms) override {
    ++calls;
    EXPECT_GE(primary.last_committed_seq(), seq);
    return inner.quorum_commit(seq, now_ms);
  }
  store::CommitGate& inner;
  store::DurableStore& primary;
  int calls = 0;
};

struct ServedRun {
  std::vector<Bytes> responses;
  Bytes wal;              ///< the primary's WAL segment
  Bytes follower_image;   ///< the follower's recovered image, serialized
  int quorum_calls = 0;
};

/// Serve `frames` through a gateway with a store and a quorum-1 follower
/// attached: one serve() per frame (`batches` empty) or one serve_batch
/// per [begin, end) range, then flush.
ServedRun serve_frames(const std::string& tag, std::size_t pool_workers,
                       const std::vector<std::pair<std::size_t, std::size_t>>& batches) {
  BatchWorld w;
  const BatchFrames bf = batch_frames(w);
  w.dep->merchant_node().receive_tx(bf.conflict);
  common::ThreadPool pool(pool_workers);
  gateway::Gateway& gw = w.gateway(pool);

  Rig rig = Rig::make(tag, 1, store::StoreOptions{});
  ReplicationConfig rcfg;
  rcfg.quorum = 1;
  ServedRun run;
  {
    ReplicationGroup group(rcfg);
    group.attach_primary(rig.primary.get());
    group.add_follower(rig.links[0].get());
    CheckedGate gate(group, *rig.primary);
    gw.attach_store(rig.primary.get());
    gw.attach_commit_gate(&gate);
    if (batches.empty()) {
      for (const auto& f : bf.frames) run.responses.push_back(gw.serve(f, w.now));
    } else {
      for (const auto& [begin, end] : batches) {
        const std::vector<Bytes> part(bf.frames.begin() + static_cast<std::ptrdiff_t>(begin),
                                      bf.frames.begin() + static_cast<std::ptrdiff_t>(end));
        for (auto& r : gw.serve_batch(part, w.now)) run.responses.push_back(std::move(r));
      }
    }
    (void)gw.flush_accepted(w.now);
    run.quorum_calls = gate.calls;
    gw.attach_commit_gate(nullptr);
    gw.attach_store(nullptr);
  }
  rig.links.clear();
  rig.followers.clear();
  rig.primary.reset();
  run.wal = read_file(rig.primary_dir + "/wal-0000000000000001.wal");
  auto follower = store::DurableStore::open(rig.dirs[0], no_fsync());
  EXPECT_NE(follower, nullptr);
  if (follower) run.follower_image = follower->image_copy().serialize();
  return run;
}

std::uint16_t result_code(const Bytes& response) {
  const auto frame = gateway::Frame::deserialize(response);
  if (!frame || frame->type != gateway::MsgType::kFastPayResult) return 0xffff;
  const auto r = gateway::FastPayResultResponse::deserialize(frame->payload);
  return r ? static_cast<std::uint16_t>(r->code) : 0xffff;
}

TEST(GatewayBatchCommit, MatchesServeLoopBytesWalAndFollowerAtEveryPoolSize) {
  const ServedRun loop = serve_frames("batch-loop", 0, {});
  // The mix reaches every verify_payment rejection the wire can carry,
  // plus the replay guard, in serve() and in serve_batch alike.
  using core::RejectReason;
  const std::vector<std::pair<std::size_t, RejectReason>> expect = {
      {0, RejectReason::kNone},          {1, RejectReason::kNone},
      {3, RejectReason::kDuplicatePayment}, {4, RejectReason::kBindingSigInvalid},
      {6, RejectReason::kInputSigInvalid},  {7, RejectReason::kInputMissing},
      {8, RejectReason::kValueInflation},   {9, RejectReason::kInputConflict},
      {10, RejectReason::kNone},         {11, RejectReason::kUnknownInvoice},
      {13, RejectReason::kNone}};
  ASSERT_EQ(loop.responses.size(), 15u);
  for (const auto& [i, code] : expect) {
    EXPECT_EQ(result_code(loop.responses[i]), static_cast<std::uint16_t>(code)) << "frame " << i;
  }
  EXPECT_EQ(loop.quorum_calls, 4);  // one per accept; the flush asks none
  ASSERT_FALSE(loop.wal.empty());
  ASSERT_FALSE(loop.follower_image.empty());

  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    common::ThreadPool::hardware_workers()}) {
    const ServedRun batch = serve_frames("batch-" + std::to_string(workers), workers,
                                         {{0, 7}, {7, 15}});
    EXPECT_EQ(batch.responses, loop.responses) << workers << " workers";
    EXPECT_EQ(batch.wal, loop.wal) << workers << " workers";
    EXPECT_EQ(batch.follower_image, loop.follower_image) << workers << " workers";
    EXPECT_EQ(batch.quorum_calls, 2) << "one per batch; the flush asks none";
  }
}

/// Grants every quorum ask except the next `refusals` ones.
struct RefusingGate final : store::CommitGate {
  bool quorum_commit(std::uint64_t, std::uint64_t) override {
    if (refusals == 0) return true;
    --refusals;
    return false;
  }
  int refusals = 0;
};

TEST(GatewayBatchCommit, RefusedQuorumUndoesEveryAcceptOfTheBatch) {
  BatchWorld w;
  const BatchFrames bf = batch_frames(w);
  w.dep->merchant_node().receive_tx(bf.conflict);
  common::ThreadPool pool(common::ThreadPool::hardware_workers());
  gateway::Gateway& gw = w.gateway(pool);
  const std::string dir = scratch_dir("batch-refused");
  auto st = store::DurableStore::open(dir, no_fsync());
  ASSERT_NE(st, nullptr);
  RefusingGate gate;
  gate.refusals = 1;
  gw.attach_store(st.get());
  gw.attach_commit_gate(&gate);

  const auto out = gw.serve_batch(bf.frames, w.now);
  ASSERT_EQ(out.size(), bf.frames.size());
  for (const std::size_t i : {0, 1, 10, 13}) {
    EXPECT_EQ(result_code(out[i]), static_cast<std::uint16_t>(core::RejectReason::kOverloaded))
        << "frame " << i;
  }
  // The reads were answered after the undo: the receipt of the undone
  // accept says so, and the escrow shows no hold.
  const auto receipt_frame = gateway::Frame::deserialize(out[2]);
  ASSERT_TRUE(receipt_frame.has_value());
  const auto receipt = gateway::ReceiptInfoResponse::deserialize(receipt_frame->payload);
  ASSERT_TRUE(receipt.has_value());
  EXPECT_TRUE(receipt->found);
  EXPECT_FALSE(receipt->accepted);
  EXPECT_EQ(receipt->code, core::RejectReason::kOverloaded);
  const auto info_frame = gateway::Frame::deserialize(out[5]);
  ASSERT_TRUE(info_frame.has_value());
  const auto info = gateway::EscrowInfoResponse::deserialize(info_frame->payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->reserved, 0u);

  const auto snap = gw.escrow_snapshot(w.dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->live_reservations, 0u);
  EXPECT_EQ(snap->local_reserved, 0u);
  EXPECT_EQ(gw.commit_queue_depth(), 0u);
  EXPECT_EQ(gw.stats().accepts(), 0u);
  EXPECT_TRUE(gw.flush_accepted(w.now).empty());
  EXPECT_TRUE(w.dep->merchant().pending().empty());

  // Recovery replays each reserve and its rejected-release: nothing live.
  gw.attach_commit_gate(nullptr);
  gw.attach_store(nullptr);
  st.reset();
  store::RecoveryInfo rinfo;
  auto recovered = store::DurableStore::open(dir, no_fsync(), &rinfo);
  ASSERT_NE(recovered, nullptr) << rinfo.error;
  const auto image = recovered->image_copy();
  EXPECT_TRUE(image.reservations.empty());
  EXPECT_EQ(image.released_count, 4u);

  // The undo also cleared the replay guard: the same frames are accepted
  // once the quorum is back.
  gw.attach_store(recovered.get());
  gw.attach_commit_gate(&gate);
  const auto again = gw.serve_batch(bf.frames, w.now);
  for (const std::size_t i : {0, 1, 10, 13}) {
    EXPECT_EQ(result_code(again[i]), static_cast<std::uint16_t>(core::RejectReason::kNone))
        << "frame " << i;
  }
  gw.attach_commit_gate(nullptr);
  gw.attach_store(nullptr);
  recovered.reset();
  fs::remove_all(dir);
}

TEST(GatewayBatchCommit, CrashInsideTheBatchCommitKeepsEveryReturnedAccept) {
  // The durable store cannot take an injected file, so the crash is
  // modelled the way a torn write leaves the disk: the batch commit's
  // bytes are cut at every offset. A cut short of the end means the
  // commit write never completed, so no accept of the batch was returned;
  // the full write means all of them were. Either way recovery must
  // succeed and hold the reservation of every accept a client saw, and
  // its evidence: the package the merchant would dispute with.
  BatchWorld w;
  const BatchFrames bf = batch_frames(w);
  w.dep->merchant_node().receive_tx(bf.conflict);
  common::ThreadPool pool(0);
  gateway::Gateway& gw = w.gateway(pool);
  const std::string dir = scratch_dir("batch-torn");
  auto st = store::DurableStore::open(dir, no_fsync());
  ASSERT_NE(st, nullptr);
  gw.attach_store(st.get());

  // One accept before the batch: its commit is the surviving prefix.
  const auto first = gateway::Frame::deserialize(gw.serve(bf.frames[0], w.now));
  ASSERT_TRUE(first.has_value());
  const auto first_result = gateway::FastPayResultResponse::deserialize(first->payload);
  ASSERT_TRUE(first_result.has_value() && first_result->accepted);
  ASSERT_TRUE(st->sync());  // push the prefix to the file to measure it
  const std::string segment = dir + "/wal-0000000000000001.wal";
  const std::uint64_t before = fs::file_size(segment);
  ASSERT_GT(before, 0u);
  const std::vector<Bytes> rest(bf.frames.begin() + 1, bf.frames.end());
  const auto out = gw.serve_batch(rest, w.now);
  // Each returned accept's reservation id, and the txid its frame paid.
  auto paid_txid = [](const Bytes& submit) {
    const auto frame = gateway::Frame::deserialize(submit);
    EXPECT_TRUE(frame.has_value());
    const auto req = gateway::SubmitFastPayRequest::deserialize(frame->payload);
    EXPECT_TRUE(req.has_value());
    return req->package.payment_tx.txid();
  };
  std::map<store::ReservationId, btc::Txid> txid_of = {
      {first_result->reservation_id, paid_txid(bf.frames[0])}};
  std::vector<store::ReservationId> batch_rids;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto frame = gateway::Frame::deserialize(out[i]);
    if (!frame || frame->type != gateway::MsgType::kFastPayResult) continue;
    const auto res = gateway::FastPayResultResponse::deserialize(frame->payload);
    if (!res || !res->accepted) continue;
    batch_rids.push_back(res->reservation_id);
    txid_of[res->reservation_id] = paid_txid(rest[i]);
  }
  ASSERT_EQ(batch_rids.size(), 3u);
  gw.attach_store(nullptr);
  st.reset();
  const Bytes full = read_file(segment);
  ASSERT_GT(full.size(), before);

  const std::string cut_dir = scratch_dir("batch-torn-cut");
  for (std::uint64_t cut = before; cut <= full.size(); ++cut) {
    fs::remove_all(cut_dir);
    fs::create_directories(cut_dir);
    {
      std::ofstream o(cut_dir + "/wal-0000000000000001.wal", std::ios::binary);
      o.write(reinterpret_cast<const char*>(full.data()), static_cast<std::streamsize>(cut));
    }
    store::RecoveryInfo rinfo;
    auto rec = store::DurableStore::open(cut_dir, no_fsync(), &rinfo);
    ASSERT_NE(rec, nullptr) << "cut " << cut << ": " << rinfo.error;
    const auto image = rec->image_copy();
    std::vector<store::ReservationId> returned = {first_result->reservation_id};
    if (cut == full.size()) returned.insert(returned.end(), batch_rids.begin(), batch_rids.end());
    for (const auto rid : returned) {
      const bool held = std::any_of(image.reservations.begin(), image.reservations.end(),
                                    [&](const auto& r) { return r.id == rid; });
      EXPECT_TRUE(held) << "cut " << cut << ": reservation " << rid << " lost";
      const auto acc = std::find_if(image.accepted.begin(), image.accepted.end(),
                                    [&](const auto& a) { return a.reservation_id == rid; });
      if (acc == image.accepted.end()) {
        ADD_FAILURE() << "cut " << cut << ": evidence of reservation " << rid << " lost";
        continue;
      }
      const auto pkg = core::FastPayPackage::deserialize(acc->package);
      ASSERT_TRUE(pkg.has_value()) << "cut " << cut << ": reservation " << rid;
      EXPECT_EQ(pkg->payment_tx.txid(), txid_of.at(rid)) << "cut " << cut;
    }
  }
  fs::remove_all(cut_dir);
  fs::remove_all(dir);
}

// The stats document reads every owner when it is rendered: after one
// accept through a store and a quorum-1 group, its replication section is
// the group's stats() and its store section the store's counters.
TEST(ReplicationGroup, StatsDocumentReadsTheGroupAndTheStore) {
  BatchWorld w;
  common::ThreadPool pool(0);
  gateway::Gateway& gw = w.gateway(pool);
  Rig rig = Rig::make("stats-doc", 1, no_fsync());
  ReplicationConfig rcfg;
  rcfg.quorum = 1;
  ReplicationGroup group(rcfg);
  group.attach_primary(rig.primary.get());
  group.add_follower(rig.links[0].get());
  gw.attach_store(rig.primary.get());
  gw.attach_commit_gate(&group);
  ASSERT_EQ(result_code(gw.serve(submit(1, w.invoices[0], w.pay(0)), w.now)),
            static_cast<std::uint16_t>(core::RejectReason::kNone));

  const std::string doc = gw.stats_json({group.stats_section()});
  const ReplicationStats rs = group.stats();
  EXPECT_EQ(rs.followers, 1u);
  EXPECT_EQ(rs.quorum, 1u);
  EXPECT_GE(rs.batches_shipped, 1u);
  using stats_doc::counter;
  EXPECT_EQ(counter(doc, "replication", "epoch"), rs.epoch);
  EXPECT_EQ(counter(doc, "replication", "followers"), rs.followers);
  EXPECT_EQ(counter(doc, "replication", "quorum"), rs.quorum);
  EXPECT_EQ(counter(doc, "replication", "acked_seq"), rs.acked_watermark);
  EXPECT_EQ(counter(doc, "replication", "batches_shipped"), rs.batches_shipped);
  EXPECT_EQ(counter(doc, "replication", "ship_failures"), rs.ship_failures);
  EXPECT_EQ(counter(doc, "replication", "snapshot_installs"), rs.snapshot_installs);

  store::DurableStore& st = *rig.primary;
  EXPECT_EQ(counter(doc, "store", "wal_appends"), st.wal_appends());
  EXPECT_EQ(counter(doc, "store", "fsyncs"), st.wal_syncs());
  EXPECT_EQ(counter(doc, "store", "recovery_replayed_records"), st.recovery().replayed_records);
  EXPECT_EQ(counter(doc, "store", "snapshot_bytes"), st.snapshot_bytes());
  EXPECT_EQ(counter(doc, "", "accepts"), 1u);

  gw.attach_commit_gate(nullptr);
  gw.attach_store(nullptr);
}

}  // namespace
}  // namespace btcfast::replication
