// Durable store tests: CRC32C vectors, record codecs, WAL framing and
// the two corruption classes (torn tail tolerated, mid-log fails
// closed), crash-consistency via the FaultFile shim (recovery after
// every prefix of a commit), snapshot atomicity and total decoding, and
// DurableStore end-to-end — replay, compaction/pruning, byte-exact
// recovery at every crash point, and the gateway's accept/flush
// durability boundary against a live deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "btcfast/customer.h"
#include "btcfast/orchestrator.h"
#include "btcfast/payjudger.h"
#include "common/thread_pool.h"
#include "gateway/pipeline.h"
#include "gateway/wire.h"
#include "stats_doc.h"
#include "store/crc32c.h"
#include "store/fault_file.h"
#include "store/recovery.h"

namespace btcfast::store {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("btcfast-store-test-" + tag + "-" +
                      std::to_string(static_cast<unsigned long>(::getpid())));
  fs::remove_all(p);
  return p.string();
}

// ------------------------------------------------------------------ crc

TEST(Crc32c, KnownVector) {
  const char* msg = "123456789";
  EXPECT_EQ(crc32c({reinterpret_cast<const std::uint8_t*>(msg), 9}), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c(ByteSpan{}), 0u); }

TEST(Crc32c, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(i * 7 + 3));
  const auto whole = crc32c(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{150},
                            std::size_t{299}, data.size()}) {
    const auto part = crc32c({data.data() + split, data.size() - split},
                             crc32c({data.data(), split}));
    EXPECT_EQ(part, whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsEverySingleByteFlip) {
  Bytes data(64, 0xa5);
  const auto base = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    Bytes mutated = data;
    mutated[i] ^= 0x01;
    EXPECT_NE(crc32c(mutated), base) << "flip at " << i;
  }
}

// -------------------------------------------------------------- records

/// An accept's one record: the hold, and the evidence blobs with it.
StoreRecord reserve_rec(ReservationId rid, EscrowId eid, std::uint64_t amount) {
  StoreRecord r;
  r.kind = RecordKind::kReserve;
  r.reservation_id = rid;
  r.escrow_id = eid;
  r.amount = amount;
  r.expires_at_ms = 10'000 + rid;
  r.txid[0] = static_cast<std::uint8_t>(rid);
  r.txid[31] = static_cast<std::uint8_t>(eid);
  r.accepted_at_ms = 77'000;
  r.package = {0xde, 0xad, 0xbe, 0xef, static_cast<std::uint8_t>(rid)};
  r.invoice = {0x01, 0x02};
  return r;
}

StoreRecord release_rec(ReservationId rid, ReleaseCause cause) {
  StoreRecord r;
  r.kind = RecordKind::kRelease;
  r.reservation_id = rid;
  r.cause = cause;
  return r;
}

StoreRecord dispute_open_rec(EscrowId eid, std::uint8_t txid_tag) {
  StoreRecord r;
  r.kind = RecordKind::kDisputeOpen;
  r.escrow_id = eid;
  r.amount = 500;
  r.expires_at_ms = 99'000;
  r.txid[5] = txid_tag;
  return r;
}

StoreRecord dispute_resolve_rec(EscrowId eid, std::uint8_t txid_tag) {
  StoreRecord r;
  r.kind = RecordKind::kDisputeResolve;
  r.escrow_id = eid;
  r.txid[5] = txid_tag;
  return r;
}

StoreRecord epoch_rec(std::uint64_t epoch) {
  StoreRecord r;
  r.kind = RecordKind::kEpochChange;
  r.epoch = epoch;
  return r;
}

StoreRecord header_rec(std::uint8_t tag) {
  StoreRecord r;
  r.kind = RecordKind::kHeaderAccept;
  for (std::size_t i = 0; i < r.header.size(); ++i) {
    r.header[i] = static_cast<std::uint8_t>(tag + i);
  }
  return r;
}

TEST(StoreRecords, EveryKindRoundTrips) {
  const StoreRecord samples[] = {
      reserve_rec(0x1203, 9, 12345), release_rec(0x1203, ReleaseCause::kExpired),
      dispute_open_rec(9, 0x42), dispute_resolve_rec(9, 0x42), epoch_rec(3), header_rec(0x50)};
  for (const auto& rec : samples) {
    const auto back = StoreRecord::deserialize(rec.serialize());
    ASSERT_TRUE(back.has_value()) << "kind " << static_cast<int>(rec.kind);
    EXPECT_EQ(*back, rec) << "kind " << static_cast<int>(rec.kind);
  }
}

TEST(StoreRecords, RejectsTruncationAndTrailingBytes) {
  for (const auto& rec : {reserve_rec(1, 2, 3), dispute_open_rec(3, 1)}) {
    const Bytes full = rec.serialize();
    for (std::size_t len = 0; len < full.size(); ++len) {
      EXPECT_FALSE(StoreRecord::deserialize({full.data(), len}).has_value())
          << "kind " << static_cast<int>(rec.kind) << " prefix " << len;
    }
    Bytes extra = full;
    extra.push_back(0x00);
    EXPECT_FALSE(StoreRecord::deserialize(extra).has_value());
  }
}

TEST(StoreRecords, RejectsBadEnums) {
  Bytes bad_kind = reserve_rec(1, 2, 3).serialize();
  bad_kind[0] = 0x77;
  EXPECT_FALSE(StoreRecord::deserialize(bad_kind).has_value());
  // Kind 3 is retired (a flush-time accept record): it fails closed, and
  // so does a reserve body of the old layout, which lacks the evidence.
  Bytes retired = reserve_rec(1, 2, 3).serialize();
  retired[0] = 0x03;
  EXPECT_FALSE(StoreRecord::deserialize(retired).has_value());
  const Bytes full = reserve_rec(1, 2, 3).serialize();
  const Bytes old_layout(full.begin(), full.begin() + 1 + 4 * 8 + 32);
  EXPECT_FALSE(StoreRecord::deserialize(old_layout).has_value());

  Bytes bad_cause = release_rec(1, ReleaseCause::kResolved).serialize();
  bad_cause.back() = 0x09;  // cause is the final byte
  EXPECT_FALSE(StoreRecord::deserialize(bad_cause).has_value());
}

// ------------------------------------------------------------------ wal

/// A Wal writing into an owned-but-observable FaultFile.
struct MemWal {
  explicit MemWal(WalOptions opts = {}, std::uint64_t next_seq = 1) {
    auto f = std::make_unique<FaultFile>();
    file = f.get();
    wal = std::make_unique<Wal>(std::move(f), opts, next_seq);
  }
  FaultFile* file = nullptr;
  std::unique_ptr<Wal> wal;
};

Bytes payload_n(std::uint8_t n, std::size_t len = 24) {
  Bytes p(len, 0);
  for (std::size_t i = 0; i < len; ++i) p[i] = static_cast<std::uint8_t>(n + i);
  return p;
}

TEST(WalFormat, AppendCommitScanRoundTrip) {
  MemWal w;
  for (std::uint8_t i = 0; i < 5; ++i) EXPECT_EQ(w.wal->append(payload_n(i)), i + 1u);
  ASSERT_TRUE(w.wal->commit());
  const auto scan = scan_wal(w.file->written(), 1);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(scan.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1);
    EXPECT_EQ(scan.records[i].payload, payload_n(static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(scan.valid_bytes, w.file->written().size());
}

TEST(WalFormat, FsyncPolicyNeverChangesBytes) {
  // Durability policy is about when data becomes stable, never about what
  // is written: all three policies must produce identical files.
  Bytes images[3];
  const FsyncPolicy policies[] = {FsyncPolicy::kAlways, FsyncPolicy::kBatch, FsyncPolicy::kNone};
  for (int p = 0; p < 3; ++p) {
    WalOptions opts;
    opts.policy = policies[p];
    opts.batch_records = 2;
    MemWal w(opts);
    for (std::uint8_t i = 0; i < 7; ++i) {
      (void)w.wal->append(payload_n(i));
      ASSERT_TRUE(w.wal->commit());
    }
    images[p] = w.file->written();
  }
  EXPECT_EQ(images[0], images[1]);
  EXPECT_EQ(images[0], images[2]);
}

TEST(WalFormat, SyncCountsFollowPolicy) {
  WalOptions always;
  always.policy = FsyncPolicy::kAlways;
  MemWal a(always);
  for (std::uint8_t i = 0; i < 4; ++i) {
    (void)a.wal->append(payload_n(i));
    ASSERT_TRUE(a.wal->commit());
  }
  EXPECT_EQ(a.wal->syncs(), 4u);

  WalOptions batch;
  batch.policy = FsyncPolicy::kBatch;
  batch.batch_records = 3;
  MemWal b(batch);
  for (std::uint8_t i = 0; i < 7; ++i) {
    (void)b.wal->append(payload_n(i));
    ASSERT_TRUE(b.wal->commit());
  }
  EXPECT_EQ(b.wal->syncs(), 2u);  // after records 3 and 6

  WalOptions none;
  none.policy = FsyncPolicy::kNone;
  MemWal c(none);
  for (std::uint8_t i = 0; i < 4; ++i) {
    (void)c.wal->append(payload_n(i));
    ASSERT_TRUE(c.wal->commit());
  }
  EXPECT_EQ(c.wal->syncs(), 0u);
  ASSERT_TRUE(c.wal->sync());  // explicit sync forces it even under kNone
  EXPECT_EQ(c.wal->syncs(), 1u);
}

TEST(WalFormat, TornTailAtEveryCutOffset) {
  // Build a clean 3-record image, then scan every byte prefix: the reader
  // must return exactly the records whose bytes are fully present, flag
  // the torn tail otherwise, and never error — a prefix is always a
  // plausible crash artifact.
  Bytes full;
  append_wal_header(full);
  std::vector<std::size_t> boundaries{full.size()};
  for (std::uint8_t i = 0; i < 3; ++i) {
    append_wal_record(full, i + 1, payload_n(i));
    boundaries.push_back(full.size());
  }
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const auto scan = scan_wal({full.data(), cut}, 1);
    ASSERT_TRUE(scan.ok()) << "cut " << cut << ": " << scan.error;
    std::size_t expect_records = 0;
    for (std::size_t b = 1; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) expect_records = b;
    }
    EXPECT_EQ(scan.records.size(), expect_records) << "cut " << cut;
    const bool at_boundary =
        cut == 0 || std::find(boundaries.begin(), boundaries.end(), cut) != boundaries.end();
    EXPECT_EQ(scan.truncated_tail, !at_boundary) << "cut " << cut;
  }
}

TEST(WalFormat, SingleByteFlipsNeverFabricateRecords) {
  // Flip every byte of a 3-record image. The scan must never invent or
  // alter a record: whatever it returns is a byte-identical prefix of
  // the original stream, and a flip that leaves all three records
  // intact is impossible (every byte is covered by the header check,
  // the framing, or a record checksum).
  Bytes full;
  append_wal_header(full);
  std::vector<Bytes> payloads;
  for (std::uint8_t i = 0; i < 3; ++i) {
    payloads.push_back(payload_n(i));
    append_wal_record(full, i + 1, payloads.back());
  }
  for (std::size_t i = 0; i < full.size(); ++i) {
    Bytes mutated = full;
    mutated[i] ^= 0x10;
    const auto scan = scan_wal(mutated, 1);
    ASSERT_LT(scan.records.size(), 3u) << "flip at " << i << " went unnoticed";
    for (std::size_t r = 0; r < scan.records.size(); ++r) {
      EXPECT_EQ(scan.records[r].seq, r + 1) << "flip at " << i;
      EXPECT_EQ(scan.records[r].payload, payloads[r]) << "flip at " << i;
    }
  }
}

TEST(WalFormat, MidLogChecksumFlipFailsClosedFinalRecordFlipIsTorn) {
  Bytes full;
  append_wal_header(full);
  append_wal_record(full, 1, payload_n(1));
  const std::size_t second_at = full.size();
  append_wal_record(full, 2, payload_n(2));

  // Flip inside record 1's payload: data follows, so this is silent
  // corruption and the scan must refuse the whole log.
  Bytes mid = full;
  mid[kWalHeaderSize + kWalRecordHeaderSize + 3] ^= 0x01;
  const auto mid_scan = scan_wal(mid, 1);
  EXPECT_FALSE(mid_scan.ok());
  EXPECT_TRUE(mid_scan.records.empty());

  // The same flip in the FINAL record is indistinguishable from a torn
  // write: tolerated, record dropped.
  Bytes tail = full;
  tail[second_at + kWalRecordHeaderSize + 3] ^= 0x01;
  const auto tail_scan = scan_wal(tail, 1);
  ASSERT_TRUE(tail_scan.ok()) << tail_scan.error;
  EXPECT_TRUE(tail_scan.truncated_tail);
  ASSERT_EQ(tail_scan.records.size(), 1u);
  EXPECT_EQ(tail_scan.valid_bytes, second_at);
}

TEST(WalFormat, DuplicateAndSkippedSequencesFailClosed) {
  {
    Bytes dup;
    append_wal_header(dup);
    append_wal_record(dup, 1, payload_n(1));
    append_wal_record(dup, 1, payload_n(2));  // replayed write
    const auto scan = scan_wal(dup, 1);
    EXPECT_FALSE(scan.ok());
  }
  {
    Bytes gap;
    append_wal_header(gap);
    append_wal_record(gap, 1, payload_n(1));
    append_wal_record(gap, 3, payload_n(3));  // lost record 2
    const auto scan = scan_wal(gap, 1);
    EXPECT_FALSE(scan.ok());
  }
  {
    Bytes wrong_start;
    append_wal_header(wrong_start);
    append_wal_record(wrong_start, 5, payload_n(5));
    EXPECT_FALSE(scan_wal(wrong_start, 1).ok());
    // Accept-any-start mode tolerates it (snapshot recovery sets the pin).
    EXPECT_TRUE(scan_wal(wrong_start, 0).ok());
    EXPECT_TRUE(scan_wal(wrong_start, 5).ok());
  }
}

TEST(WalFormat, BadHeaderFailsClosed) {
  Bytes image;
  append_wal_header(image);
  append_wal_record(image, 1, payload_n(1));
  Bytes bad_magic = image;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(scan_wal(bad_magic, 1).ok());
  Bytes bad_version = image;
  bad_version[4] = 0x63;
  EXPECT_FALSE(scan_wal(bad_version, 1).ok());
}

// ----------------------------------------------------------- fault file

TEST(FaultFileShim, CrashAtEveryWriteOffsetRecoversPrefix) {
  // Reference run: 6 records, one commit each, no faults.
  MemWal ref;
  for (std::uint8_t i = 0; i < 6; ++i) {
    (void)ref.wal->append(payload_n(i));
    ASSERT_TRUE(ref.wal->commit());
  }
  const Bytes& clean = ref.file->written();

  // Crash runs: cut the file at every possible byte limit. Whatever
  // survived must scan to a prefix of the reference records — recovery
  // can lose the tail of a commit, never the middle. The cut is armed
  // before the Wal exists so even the file header can tear.
  for (std::uint64_t limit = 0; limit <= clean.size(); ++limit) {
    auto f = std::make_unique<FaultFile>();
    FaultFile* ff = f.get();
    ff->cut_writes_at(limit);
    Wal wal(std::move(f), WalOptions{}, 1);
    for (std::uint8_t i = 0; i < 6; ++i) {
      (void)wal.append(payload_n(i));
      (void)wal.commit();  // may fail once the cut hits; keep going
    }
    EXPECT_EQ(ff->written(),
              Bytes(clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(
                                                       std::min<std::uint64_t>(limit, clean.size()))))
        << "limit " << limit;
    const auto scan = scan_wal(ff->written(), 1);
    ASSERT_TRUE(scan.ok()) << "limit " << limit << ": " << scan.error;
    for (std::size_t r = 0; r < scan.records.size(); ++r) {
      EXPECT_EQ(scan.records[r].payload, payload_n(static_cast<std::uint8_t>(r)));
    }
  }
}

TEST(FaultFileShim, DroppedFsyncLosesOnlyTheUnsyncedSuffix) {
  WalOptions opts;
  opts.policy = FsyncPolicy::kAlways;
  MemWal w(opts);
  (void)w.wal->append(payload_n(0));
  ASSERT_TRUE(w.wal->commit());
  const std::uint64_t synced_after_first = w.file->synced_bytes();

  w.file->drop_syncs(true);  // power rail fails before the second fsync
  (void)w.wal->append(payload_n(1));
  ASSERT_TRUE(w.wal->commit());
  EXPECT_EQ(w.file->synced_bytes(), synced_after_first);

  // The pessimistic post-crash view holds exactly the first record.
  const auto scan = scan_wal(w.file->durable(), 1);
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, payload_n(0));
}

// ------------------------------------------------------------- snapshot

StateImage sample_image() {
  StateImage img;
  img.last_seq = 42;
  img.released_count = 3;
  img.resolved_disputes = 1;
  for (std::uint8_t i = 0; i < 3; ++i) {
    ReservationImage r;
    r.id = 0x300u + i;
    r.escrow_id = 7;
    r.amount = 1000u + i;
    r.expires_at_ms = 50'000;
    r.txid[0] = i;
    img.reservations.push_back(r);
  }
  AcceptedImage a;
  a.reservation_id = 0x301;
  a.accepted_at_ms = 12'000;
  a.package = {9, 8, 7};
  a.invoice = {6, 5};
  img.accepted.push_back(a);
  DisputeImage d;
  d.escrow_id = 7;
  d.txid[1] = 0xcc;
  d.amount = 777;
  d.deadline_ms = 60'000;
  img.open_disputes.push_back(d);
  return img;
}

TEST(Snapshot, ImageSerializationIsCanonical) {
  StateImage img = sample_image();
  StateImage shuffled = img;
  std::swap(shuffled.reservations[0], shuffled.reservations[2]);
  EXPECT_EQ(img.serialize(), shuffled.serialize());
  const auto back = StateImage::deserialize(img.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), img.serialize());
  EXPECT_EQ(back->last_seq, img.last_seq);
  EXPECT_EQ(back->reservations.size(), img.reservations.size());
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  const StateImage img = sample_image();
  const auto back = decode_snapshot(encode_snapshot(img));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), img.serialize());
}

TEST(Snapshot, EveryByteFlipAndTruncationFailsClosed) {
  const Bytes enc = encode_snapshot(sample_image());
  for (std::size_t i = 0; i < enc.size(); ++i) {
    Bytes mutated = enc;
    mutated[i] ^= 0x04;
    EXPECT_FALSE(decode_snapshot(mutated).has_value()) << "flip at " << i;
  }
  for (std::size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(decode_snapshot({enc.data(), len}).has_value()) << "prefix " << len;
  }
}

TEST(Snapshot, AtomicWriteLeavesNoTempFiles) {
  const std::string dir = scratch_dir("snap-atomic");
  fs::create_directories(dir);
  const std::string path = dir + "/snap-test.snap";
  ASSERT_TRUE(write_snapshot(path, sample_image()));
  const auto back = read_snapshot(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), sample_image().serialize());
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(e.path().extension(), ".snap") << e.path();
  }
  EXPECT_EQ(files, 1u);  // the temp file was renamed away, not leaked
  fs::remove_all(dir);
}

TEST(Snapshot, ApplyRecordRejectsImpossibleTransitions) {
  IndexedImage img;
  EXPECT_FALSE(img.apply(release_rec(5, ReleaseCause::kResolved), 1));  // unknown rid
  EXPECT_TRUE(img.apply(reserve_rec(5, 1, 100), 1));
  EXPECT_FALSE(img.apply(reserve_rec(5, 1, 100), 2));  // double reserve
  // The reserve brought its evidence into the image with the hold.
  ASSERT_EQ(img.image().accepted.size(), 1u);
  EXPECT_EQ(img.image().accepted[0].reservation_id, 5u);
  EXPECT_EQ(img.image().accepted[0].package, reserve_rec(5, 1, 100).package);
  EXPECT_TRUE(img.apply(dispute_open_rec(1, 0x11), 3));
  EXPECT_FALSE(img.apply(dispute_open_rec(1, 0x11), 4));     // dup dispute
  EXPECT_FALSE(img.apply(dispute_resolve_rec(1, 0x22), 4));  // wrong txid
  EXPECT_TRUE(img.apply(dispute_resolve_rec(1, 0x11), 4));
  EXPECT_EQ(img.image().last_seq, 4u);
  EXPECT_EQ(img.image().resolved_disputes, 1u);
  // Releasing the reservation also retires its evidence.
  EXPECT_TRUE(img.apply(release_rec(5, ReleaseCause::kResolved), 5));
  EXPECT_TRUE(img.image().accepted.empty());
  EXPECT_TRUE(img.image().reservations.empty());

  // A loaded image can hold evidence whose hold is gone (an older writer
  // logged the two apart). A reserve of that id fails and changes
  // nothing: no hold is left behind for a release to find.
  StateImage orphan = sample_image();
  orphan.accepted[0].reservation_id = 0x399;
  auto loaded = IndexedImage::index(orphan);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->apply(reserve_rec(0x399, 7, 10), 43));
  EXPECT_FALSE(loaded->apply(release_rec(0x399, ReleaseCause::kRejected), 43));
  EXPECT_EQ(loaded->image().serialize(), orphan.serialize());
}

TEST(Snapshot, EpochOnlyRatchetsUpAndHeadersStayUnique) {
  IndexedImage img;
  EXPECT_TRUE(img.apply(epoch_rec(2), 1));
  EXPECT_EQ(img.image().epoch, 2u);
  EXPECT_FALSE(img.apply(epoch_rec(2), 2));  // no re-entry
  EXPECT_FALSE(img.apply(epoch_rec(1), 2));  // no regression
  EXPECT_TRUE(img.apply(epoch_rec(5), 2));
  EXPECT_EQ(img.image().epoch, 5u);

  EXPECT_TRUE(img.apply(header_rec(0x10), 3));
  EXPECT_FALSE(img.apply(header_rec(0x10), 4));  // duplicate header
  EXPECT_TRUE(img.apply(header_rec(0x20), 4));
  ASSERT_EQ(img.image().headers.size(), 2u);

  // Headers serialize in insertion order — the order is logical content
  // (restore re-accepts sequentially), unlike the sorted entry sections.
  const auto back = StateImage::deserialize(img.image().serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 5u);
  ASSERT_EQ(back->headers.size(), 2u);
  EXPECT_EQ(back->headers[0], img.image().headers[0]);
  EXPECT_EQ(back->headers[1], img.image().headers[1]);
}

/// A churning record sequence: 300 reservations, each with its evidence,
/// half released in scattered order (removals from the middle
/// of the image), released ids reserved again, disputes opened and
/// resolved out of order, headers and epoch changes.
std::vector<StoreRecord> churn_tape() {
  std::vector<StoreRecord> tape;
  constexpr ReservationId kN = 300;
  for (ReservationId id = 1; id <= kN; ++id) {
    tape.push_back(reserve_rec(id, id % 7 + 1, 1'000 + id));
    if (id % 50 == 0) tape.push_back(header_rec(static_cast<std::uint8_t>(id / 50)));
  }
  for (std::uint8_t k = 0; k < 20; ++k) tape.push_back(dispute_open_rec(k % 5 + 1, k));
  tape.push_back(epoch_rec(1));
  for (ReservationId k = 0; k < kN / 2; ++k) {
    const ReservationId id = (k * 37) % kN + 1;  // 37 is coprime to 300: distinct ids
    tape.push_back(release_rec(id, k % 2 == 0 ? ReleaseCause::kResolved : ReleaseCause::kExpired));
    if (k % 10 == 0) tape.push_back(reserve_rec(id, 9, 77 + k));
  }
  for (int k = 19; k >= 0; k -= 2) {
    tape.push_back(dispute_resolve_rec(static_cast<EscrowId>(k % 5 + 1), static_cast<std::uint8_t>(k)));
  }
  tape.push_back(epoch_rec(3));
  return tape;
}

// The snapshot bytes of a churning sequence, pinned: removals reorder
// the live image's entries, and the encoding must not show it. The pin
// is the encoding a naive scan-and-erase replay produces for this
// sequence, where every reserve carries its evidence blobs.
constexpr std::size_t kPinnedChurnBytes = 15773;
constexpr std::uint32_t kPinnedChurnCrc = 0x5487a575;

TEST(Snapshot, ChurnSequenceEncodesToPinnedBytes) {
  const auto tape = churn_tape();
  IndexedImage img;
  std::uint64_t seq = 0;
  for (const auto& rec : tape) ASSERT_TRUE(img.apply(rec, ++seq)) << "seq " << seq;
  const Bytes enc = encode_snapshot(img.image());
  EXPECT_EQ(enc.size(), kPinnedChurnBytes);
  EXPECT_EQ(crc32c(enc), kPinnedChurnCrc);

  // Impossible transitions still fail closed and change nothing.
  EXPECT_FALSE(img.apply(reserve_rec(4, 1, 5), seq + 1));       // id 4 is live
  EXPECT_FALSE(img.apply(release_rec(38, ReleaseCause::kResolved), seq + 1));  // released
  EXPECT_FALSE(img.apply(dispute_resolve_rec(5, 19), seq + 1));  // resolved already
  EXPECT_FALSE(img.apply(header_rec(1), seq + 1));               // accepted already
  EXPECT_EQ(encode_snapshot(img.image()), enc);

  // Recovery's path: a snapshot mid-way, re-indexed, then the suffix.
  const std::size_t mid = tape.size() / 2;
  IndexedImage head;
  for (std::size_t i = 0; i < mid; ++i) ASSERT_TRUE(head.apply(tape[i], i + 1));
  auto decoded = decode_snapshot(encode_snapshot(head.image()));
  ASSERT_TRUE(decoded.has_value());
  auto resumed = IndexedImage::index(std::move(*decoded));
  ASSERT_TRUE(resumed.has_value());
  for (std::size_t i = mid; i < tape.size(); ++i) ASSERT_TRUE(resumed->apply(tape[i], i + 1));
  EXPECT_EQ(encode_snapshot(resumed->image()), enc);
}

TEST(Snapshot, IndexRefusesAnImageHoldingAKeyTwice) {
  StateImage img = sample_image();
  ASSERT_TRUE(IndexedImage::index(img).has_value());
  img.reservations.push_back(img.reservations.front());
  EXPECT_FALSE(IndexedImage::index(img).has_value());
}

// --------------------------------------------------------- durable store

/// The deterministic event tape used by the crash-point tests: a full
/// accept/dispute/release/rollback lifecycle across two escrows.
std::vector<StoreRecord> event_tape() {
  std::vector<StoreRecord> tape;
  tape.push_back(reserve_rec(0x101, 1, 1000));
  tape.push_back(reserve_rec(0x202, 2, 2000));
  tape.push_back(reserve_rec(0x505, 1, 300));
  tape.push_back(dispute_open_rec(1, 0x31));
  tape.push_back(release_rec(0x202, ReleaseCause::kExpired));
  tape.push_back(reserve_rec(0x303, 2, 500));
  tape.push_back(dispute_resolve_rec(1, 0x31));
  tape.push_back(release_rec(0x505, ReleaseCause::kRejected));
  tape.push_back(release_rec(0x101, ReleaseCause::kResolved));
  tape.push_back(dispute_open_rec(2, 0x44));
  return tape;
}

TEST(DurableStoreTest, OpenEmptyAppendReopenReplays) {
  const std::string dir = scratch_dir("replay");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  RecoveryInfo info;
  {
    auto st = DurableStore::open(dir, opts, &info);
    ASSERT_NE(st, nullptr) << info.error;
    EXPECT_EQ(info.replayed_records, 0u);
    for (const auto& rec : event_tape()) ASSERT_TRUE(st->append(rec).has_value());
    ASSERT_TRUE(st->commit());
    EXPECT_EQ(st->wal_appends(), event_tape().size());
  }
  auto st = DurableStore::open(dir, opts, &info);
  ASSERT_NE(st, nullptr) << info.error;
  EXPECT_EQ(info.replayed_records, event_tape().size());
  EXPECT_EQ(info.snapshot_seq, 0u);
  EXPECT_FALSE(info.truncated_tail);

  IndexedImage control;
  std::uint64_t seq = 0;
  for (const auto& rec : event_tape()) ASSERT_TRUE(control.apply(rec, ++seq));
  EXPECT_EQ(st->image_copy().serialize(), control.image().serialize());

  // Sequence numbering resumes exactly where the replay ended.
  StoreRecord next = reserve_rec(0x404, 3, 10);
  const auto assigned = st->append(next);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(*assigned, event_tape().size() + 1);
  fs::remove_all(dir);
}

TEST(DurableStoreTest, AppendRejectsInvalidTransitionWithoutLogging) {
  const std::string dir = scratch_dir("invalid-transition");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  auto st = DurableStore::open(dir, opts);
  ASSERT_NE(st, nullptr);
  const auto first = st->append(reserve_rec(1, 1, 10));
  ASSERT_TRUE(first.has_value());
  const auto appends_before = st->wal_appends();
  EXPECT_FALSE(st->append(reserve_rec(1, 1, 10)).has_value());  // double reserve
  EXPECT_EQ(st->wal_appends(), appends_before);  // nothing hit the log
  EXPECT_EQ(st->image_copy().reservations.size(), 1u);
  // The refused record left no frame and no sequence gap: the next
  // append takes the next number, and the log replays cleanly.
  const auto second = st->append(reserve_rec(2, 1, 10));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first + 1);
  ASSERT_TRUE(st->commit());
  st.reset();
  const auto reopened = DurableStore::open(dir, opts);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->image_copy().reservations.size(), 2u);
  fs::remove_all(dir);
}

TEST(DurableStoreTest, RecoveryByteExactAtEveryCrashPoint) {
  // The acceptance property: crash after ANY prefix of the event tape and
  // the recovered image must serialize byte-identically to a control
  // image that applied exactly those events and never crashed.
  const auto tape = event_tape();
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  for (std::size_t crash_at = 0; crash_at <= tape.size(); ++crash_at) {
    const std::string dir = scratch_dir("crash-" + std::to_string(crash_at));
    {
      auto st = DurableStore::open(dir, opts);
      ASSERT_NE(st, nullptr);
      for (std::size_t i = 0; i < crash_at; ++i) {
        ASSERT_TRUE(st->append(tape[i]).has_value());
        ASSERT_TRUE(st->commit());
      }
      // Destructor without sync(): the crash. (kNone means the "disk"
      // state is whatever stdio flushed — the close flushes it all, so
      // this models crash-after-commit; torn commits are covered by the
      // FaultFile and prefix tests.)
    }
    RecoveryInfo info;
    auto st = DurableStore::open(dir, opts, &info);
    ASSERT_NE(st, nullptr) << "crash_at " << crash_at << ": " << info.error;
    IndexedImage control;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < crash_at; ++i) {
      ASSERT_TRUE(control.apply(tape[i], ++seq));
    }
    EXPECT_EQ(st->image_copy().serialize(), control.image().serialize()) << "crash_at " << crash_at;
    st.reset();
    fs::remove_all(dir);
  }
}

TEST(DurableStoreTest, RecoveryFromEveryWalBytePrefix) {
  // Byte-level variant: truncate the WAL segment itself at every offset
  // (the torn-write shape a real crash leaves) and reopen. Recovery must
  // always succeed and yield the image of the complete-record prefix.
  const auto tape = event_tape();
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  const std::string ref_dir = scratch_dir("prefix-ref");
  {
    auto st = DurableStore::open(ref_dir, opts);
    ASSERT_NE(st, nullptr);
    for (const auto& rec : tape) ASSERT_TRUE(st->append(rec).has_value());
    ASSERT_TRUE(st->sync());
  }
  Bytes full;
  {
    std::ifstream in(ref_dir + "/wal-0000000000000001.wal", std::ios::binary);
    ASSERT_TRUE(in.good());
    full.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), kWalHeaderSize);

  const std::string dir = scratch_dir("prefix-run");
  for (std::size_t cut = 0; cut <= full.size(); cut += 3) {  // stride keeps runtime sane
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      std::ofstream out(dir + "/wal-0000000000000001.wal", std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(full.data()), static_cast<std::streamsize>(cut));
    }
    RecoveryInfo info;
    auto st = DurableStore::open(dir, opts, &info);
    ASSERT_NE(st, nullptr) << "cut " << cut << ": " << info.error;
    const auto scan = scan_wal({full.data(), cut}, 1);
    IndexedImage control;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      ASSERT_TRUE(control.apply(tape[i], ++seq));
    }
    EXPECT_EQ(st->image_copy().serialize(), control.image().serialize()) << "cut " << cut;
    EXPECT_EQ(info.replayed_records, scan.records.size());
  }
  fs::remove_all(ref_dir);
  fs::remove_all(dir);
}

TEST(DurableStoreTest, TornTailPhysicallyTruncatedOnRecovery) {
  const std::string dir = scratch_dir("torn");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  {
    auto st = DurableStore::open(dir, opts);
    ASSERT_NE(st, nullptr);
    ASSERT_TRUE(st->append(reserve_rec(1, 1, 10)).has_value());
    ASSERT_TRUE(st->append(reserve_rec(2, 1, 20)).has_value());
    ASSERT_TRUE(st->sync());
  }
  const std::string seg = dir + "/wal-0000000000000001.wal";
  const auto clean_size = fs::file_size(seg);
  {
    std::ofstream out(seg, std::ios::binary | std::ios::app);
    const char junk[] = {0x13, 0x37, 0x00};  // 3 bytes: torn record header
    out.write(junk, sizeof(junk));
  }
  RecoveryInfo info;
  auto st = DurableStore::open(dir, opts, &info);
  ASSERT_NE(st, nullptr) << info.error;
  EXPECT_TRUE(info.truncated_tail);
  EXPECT_EQ(info.replayed_records, 2u);
  // "Truncate at first bad checksum": the junk is gone from disk, so the
  // next open sees a clean log again.
  EXPECT_EQ(fs::file_size(seg), clean_size);
  st.reset();
  RecoveryInfo info2;
  auto st2 = DurableStore::open(dir, opts, &info2);
  ASSERT_NE(st2, nullptr) << info2.error;
  EXPECT_FALSE(info2.truncated_tail);
  EXPECT_EQ(info2.replayed_records, 2u);
  st2.reset();
  fs::remove_all(dir);
}

TEST(DurableStoreTest, MidLogCorruptionFailsClosed) {
  const std::string dir = scratch_dir("midlog");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  {
    auto st = DurableStore::open(dir, opts);
    ASSERT_NE(st, nullptr);
    for (const auto& rec : event_tape()) ASSERT_TRUE(st->append(rec).has_value());
    ASSERT_TRUE(st->sync());
  }
  const std::string seg = dir + "/wal-0000000000000001.wal";
  {
    // Flip one payload byte of the FIRST record — plenty of valid data
    // follows, so this can only be silent corruption.
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(kWalHeaderSize + kWalRecordHeaderSize + 1));
    char b = 0;
    f.read(&b, 1);
    f.seekp(static_cast<std::streamoff>(kWalHeaderSize + kWalRecordHeaderSize + 1));
    b = static_cast<char>(b ^ 0x01);
    f.write(&b, 1);
  }
  RecoveryInfo info;
  auto st = DurableStore::open(dir, opts, &info);
  EXPECT_EQ(st, nullptr);
  EXPECT_FALSE(info.error.empty());
  fs::remove_all(dir);
}

TEST(DurableStoreTest, DuplicateSequenceSegmentFailsClosed) {
  const std::string dir = scratch_dir("dupseq");
  fs::create_directories(dir);
  Bytes image;
  append_wal_header(image);
  append_wal_record(image, 1, reserve_rec(1, 1, 10).serialize());
  append_wal_record(image, 1, reserve_rec(2, 1, 20).serialize());  // duplicate seq
  {
    std::ofstream out(dir + "/wal-0000000000000001.wal", std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  RecoveryInfo info;
  EXPECT_EQ(DurableStore::open(dir, opts, &info), nullptr);
  EXPECT_FALSE(info.error.empty());
  fs::remove_all(dir);
}

TEST(DurableStoreTest, SnapshotCompactsPrunesAndBoundsReplay) {
  const std::string dir = scratch_dir("compact");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  opts.snapshot_every = 4;
  IndexedImage control;
  std::uint64_t seq = 0;
  {
    auto st = DurableStore::open(dir, opts);
    ASSERT_NE(st, nullptr);
    for (const auto& rec : event_tape()) {
      ASSERT_TRUE(st->append(rec).has_value());
      ASSERT_TRUE(control.apply(rec, ++seq));
    }
    ASSERT_TRUE(st->commit());
    EXPECT_GE(st->snapshots_taken(), 2u);  // every 4 of 10 records
    EXPECT_GT(st->snapshot_bytes(), 0u);
  }
  // Pruning: one snapshot survives, and only segments past it.
  std::size_t snaps = 0;
  std::size_t wals = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".snap") ++snaps;
    if (e.path().extension() == ".wal") ++wals;
  }
  EXPECT_EQ(snaps, 1u);
  EXPECT_GE(wals, 1u);

  RecoveryInfo info;
  auto st = DurableStore::open(dir, opts, &info);
  ASSERT_NE(st, nullptr) << info.error;
  EXPECT_EQ(info.snapshot_seq, 8u);        // last auto-snapshot at record 8
  EXPECT_EQ(info.replayed_records, 2u);    // only the suffix replays
  EXPECT_EQ(st->image_copy().serialize(), control.image().serialize());
  st.reset();
  fs::remove_all(dir);
}

TEST(DurableStoreTest, SnapshotBytesEqualTheNewestSnapshotFileSize) {
  const std::string dir = scratch_dir("snapsize");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  opts.snapshot_every = 3;
  auto st = DurableStore::open(dir, opts);
  ASSERT_NE(st, nullptr);
  std::size_t checked = 0;
  for (const auto& rec : event_tape()) {
    const std::uint64_t taken = st->snapshots_taken();
    ASSERT_TRUE(st->append(rec).has_value());
    if (st->snapshots_taken() == taken) continue;
    // Pruning leaves exactly the snapshot just taken.
    std::vector<fs::path> snaps;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".snap") snaps.push_back(e.path());
    }
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(st->snapshot_bytes(), fs::file_size(snaps[0]));
    ++checked;
  }
  EXPECT_GE(checked, 2u);
  st.reset();
  fs::remove_all(dir);
}

TEST(DurableStoreTest, ReadRangeCursorStreamsIdenticallyAndSurvivesStaleHints) {
  const std::string dir = scratch_dir("cursor");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  auto st = DurableStore::open(dir, opts);
  ASSERT_NE(st, nullptr);
  constexpr std::uint64_t kPairs = 300;
  for (std::uint64_t i = 1; i <= kPairs; ++i) {
    ASSERT_TRUE(st->append(reserve_rec(i, 1 + (i % 4), 100 * i)).has_value());
    ASSERT_TRUE(st->append(release_rec(i, ReleaseCause::kResolved)).has_value());
  }
  ASSERT_TRUE(st->commit());
  const std::uint64_t committed = st->last_committed_seq();
  ASSERT_EQ(committed, 2 * kPairs);

  // Ground truth: one unhinted read of the whole range.
  const RangeScan full = st->read_range(1, static_cast<std::size_t>(committed));
  ASSERT_TRUE(full.ok()) << full.error;
  ASSERT_EQ(full.records.size(), committed);

  // Cursor-streamed batches must reproduce the exact same records, and
  // every hinted read past the first must be answered from the resume
  // offset, not a fresh segment parse.
  ReadCursor cursor;
  std::size_t streamed = 0;
  while (streamed < committed) {
    const RangeScan batch = st->read_range(streamed + 1, 64, &cursor);
    ASSERT_TRUE(batch.ok()) << batch.error;
    ASSERT_FALSE(batch.records.empty());
    for (const auto& rec : batch.records) {
      ASSERT_LT(streamed, full.records.size());
      EXPECT_EQ(rec.seq, full.records[streamed].seq);
      EXPECT_EQ(rec.payload, full.records[streamed].payload);
      ++streamed;
    }
    cursor = batch.resume;
    EXPECT_EQ(cursor.next_seq, streamed + 1);
    EXPECT_GT(cursor.offset, kWalHeaderSize);
  }
  EXPECT_EQ(streamed, committed);

  // A hint pointing at garbage (mid-record offset) must degrade to the
  // unhinted scan — same records, no error, never wrong bytes.
  ReadCursor stale;
  stale.segment = cursor.segment;
  stale.offset = cursor.offset / 2 + 3;  // almost surely mid-record
  stale.next_seq = 10;
  const RangeScan recovered = st->read_range(10, 16, &stale);
  ASSERT_TRUE(recovered.ok()) << recovered.error;
  ASSERT_EQ(recovered.records.size(), 16u);
  for (std::size_t i = 0; i < recovered.records.size(); ++i) {
    EXPECT_EQ(recovered.records[i].seq, full.records[9 + i].seq);
    EXPECT_EQ(recovered.records[i].payload, full.records[9 + i].payload);
  }

  // A cursor that lags the requested range (buffer-served batches moved
  // from_seq ahead) still resumes: the scan skips forward from the
  // remembered offset instead of failing or rescanning.
  const RangeScan early = st->read_range(1, 8, nullptr);
  ASSERT_TRUE(early.ok());
  ReadCursor behind = early.resume;  // points at seq 9
  const RangeScan ahead = st->read_range(101, 8, &behind);
  ASSERT_TRUE(ahead.ok()) << ahead.error;
  ASSERT_EQ(ahead.records.size(), 8u);
  EXPECT_EQ(ahead.records.front().seq, 101u);
  EXPECT_EQ(ahead.records.front().payload, full.records[100].payload);

  st.reset();
  fs::remove_all(dir);
}

TEST(DurableStoreTest, CorruptNewestSnapshotFallsBackToOlderState) {
  const std::string dir = scratch_dir("snapfall");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  {
    auto st = DurableStore::open(dir, opts);
    ASSERT_NE(st, nullptr);
    ASSERT_TRUE(st->append(reserve_rec(1, 1, 10)).has_value());
    ASSERT_TRUE(st->take_snapshot());
  }
  // Corrupt the snapshot body; the WAL alone still covers the state, so
  // recovery must fall back rather than fail or trust the bad bytes.
  std::string snap_path;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".snap") snap_path = e.path().string();
  }
  ASSERT_FALSE(snap_path.empty());
  {
    std::fstream f(snap_path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    const char z = 0x5a;
    f.write(&z, 1);
  }
  RecoveryInfo info;
  auto st = DurableStore::open(dir, opts, &info);
  // The snapshot is the only holder of record 1 (the WAL was pruned at
  // snapshot time), so the fall-back path must fail closed: an older
  // state exists but the log to rebuild forward from it is gone.
  if (st != nullptr) {
    // Acceptable alternative: recovery succeeded from an older snapshot
    // or intact WAL coverage — state must still match.
    EXPECT_GE(info.snapshots_skipped, 1u);
  } else {
    EXPECT_FALSE(info.error.empty());
  }
  fs::remove_all(dir);
}

// --------------------------------------------------- gateway durability

/// Deployment-backed fixture (same idiom as GatewayUnit): one funded
/// escrow whose collateral fits exactly one payment's compensation plus
/// half — so a recovered reservation must block a second accept.
struct StoreGatewayUnit : ::testing::Test {
  StoreGatewayUnit() {
    core::DeploymentConfig cfg;
    cfg.seed = 4242;
    cfg.funded_coins = 3;
    cfg.collateral = 1'500'000;  // 1.5x the default 1'000'000 compensation
    dep = std::make_unique<core::Deployment>(cfg);
    now = static_cast<std::uint64_t>(dep->simulator().now());
    invoice = dep->merchant().make_invoice(5 * btc::kCoin, dep->config().compensation, now,
                                           10ULL * 60 * 1000);
    coins = sim::find_spendable(dep->customer_node().chain(),
                                dep->customer().btc_identity().script);
    pkg = dep->customer().create_fastpay(invoice, coins[0].first, coins[0].second.out.value, now,
                                         dep->config().binding_ttl_ms);
  }

  std::unique_ptr<gateway::Gateway> make_gateway(core::MerchantService& merchant) {
    auto gw = std::make_unique<gateway::Gateway>(merchant, pool, gateway::GatewayConfig{});
    gw->track_escrow(dep->customer().escrow_id());
    return gw;
  }

  [[nodiscard]] Bytes submit_frame(std::uint64_t request_id, const core::Invoice& inv,
                                   const core::FastPayPackage& p) const {
    gateway::SubmitFastPayRequest req;
    req.invoice_id = inv.invoice_id;
    req.package = p;
    return gateway::make_frame(gateway::MsgType::kSubmitFastPay, request_id, req.serialize());
  }

  static gateway::FastPayResultResponse decode_result(const Bytes& bytes) {
    const auto frame = gateway::Frame::deserialize(bytes);
    EXPECT_TRUE(frame.has_value());
    const auto resp = gateway::FastPayResultResponse::deserialize(frame->payload);
    EXPECT_TRUE(resp.has_value());
    return resp.value_or(gateway::FastPayResultResponse{});
  }

  common::ThreadPool pool{0};
  std::unique_ptr<core::Deployment> dep;
  std::uint64_t now = 0;
  core::Invoice invoice{};
  std::vector<std::pair<btc::OutPoint, btc::Coin>> coins;
  core::FastPayPackage pkg{};
};

TEST_F(StoreGatewayUnit, CrashBetweenAcceptAndFlushKeepsReservationAndAccept) {
  const std::string dir = scratch_dir("gw-accept-flush");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  auto st = DurableStore::open(dir, opts);
  ASSERT_NE(st, nullptr);

  auto gw = make_gateway(dep->merchant());
  gw->attach_store(st.get());
  gw->register_invoice(invoice);
  const auto resp = decode_result(gw->serve(submit_frame(1, invoice, pkg), now));
  ASSERT_TRUE(resp.accepted) << resp.reason;
  EXPECT_EQ(gw->commit_queue_depth(), 1u);
  // The accept's one record was WAL-committed before the response left
  // serve(), and the document's store section reads the store.
  EXPECT_EQ(st->wal_appends(), 1u);
  EXPECT_EQ(stats_doc::counter(gw->stats_json(), "store", "wal_appends"), st->wal_appends());

  // Crash between accept and flush: gateway memory and store handle die,
  // with the commit queue entry, before the merchant booked or broadcast.
  gw.reset();
  st.reset();
  const btc::Txid txid = pkg.payment_tx.txid();
  ASSERT_TRUE(dep->merchant().pending().empty());
  ASSERT_FALSE(dep->merchant_node().mempool().contains(txid));

  RecoveryInfo info;
  auto st2 = DurableStore::open(dir, opts, &info);
  ASSERT_NE(st2, nullptr) << info.error;
  EXPECT_EQ(info.replayed_records, 1u);
  const StateImage image = st2->image_copy();
  ASSERT_EQ(image.reservations.size(), 1u);
  ASSERT_EQ(image.accepted.size(), 1u);  // the evidence was durable at ack
  EXPECT_EQ(image.reservations[0].escrow_id, dep->customer().escrow_id());
  EXPECT_EQ(image.reservations[0].amount, pkg.binding.binding.compensation);
  EXPECT_EQ(image.accepted[0].reservation_id, resp.reservation_id);
  EXPECT_EQ(image.accepted[0].accepted_at_ms, now);

  auto gw2 = make_gateway(dep->merchant());
  gw2->attach_store(st2.get());
  ASSERT_TRUE(gw2->restore_from(image));
  // Recovery books the acked payment and hands it to the merchant's node,
  // which never saw it; the collateral hold survived too.
  ASSERT_EQ(dep->merchant().pending().size(), 1u);
  EXPECT_EQ(dep->merchant().pending()[0].package.binding.binding.btc_txid, txid);
  EXPECT_EQ(dep->merchant().pending()[0].invoice.invoice_id, invoice.invoice_id);
  EXPECT_TRUE(dep->merchant_node().mempool().contains(txid));
  const auto snap = gw2->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, pkg.binding.binding.compensation);

  // A second payment against the same escrow now overcommits the
  // recovered hold (1.0M held + 1.0M asked > 1.5M collateral): denied.
  const auto inv2 = dep->merchant().make_invoice(5 * btc::kCoin, dep->config().compensation, now,
                                                 10ULL * 60 * 1000);
  gw2->register_invoice(inv2);
  const auto pkg2 = dep->customer().create_fastpay(inv2, coins[1].first,
                                                   coins[1].second.out.value, now,
                                                   dep->config().binding_ttl_ms);
  const auto resp2 = decode_result(gw2->serve(submit_frame(2, inv2, pkg2), now));
  EXPECT_FALSE(resp2.accepted);
  EXPECT_EQ(resp2.code, core::RejectReason::kInsufficientCollateral);
  gw2.reset();
  st2.reset();
  fs::remove_all(dir);
}

TEST_F(StoreGatewayUnit, PendingLimitRefusalWritesNothingToTheWal) {
  // The store-attached twin of GatewayUnit.PendingLimitClaimedAtomicallyAcrossQueues:
  // the book slot is claimed before the WAL append, so the refused
  // accept leaves no record behind — the log holds the winner's reserve
  // and nothing else.
  const std::string dir = scratch_dir("gw-pending-limit");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  auto st = DurableStore::open(dir, opts);
  ASSERT_NE(st, nullptr);
  core::MerchantService::Config mcfg = dep->merchant().config();
  mcfg.max_pending_payments = 1;
  core::MerchantService limited(dep->merchant().btc_identity(), dep->merchant_node(), dep->psc(),
                                mcfg);
  auto gw = make_gateway(limited);
  gw->attach_store(st.get());
  gw->register_invoice(invoice);
  // The second payment is small enough for the escrow's collateral, so
  // only the pending limit can refuse it.
  const auto inv2 =
      dep->merchant().make_invoice(5 * btc::kCoin, dep->config().compensation / 4, now,
                                   10ULL * 60 * 1000);
  gw->register_invoice(inv2);
  const auto pkg2 = dep->customer().create_fastpay(inv2, coins[1].first,
                                                   coins[1].second.out.value, now,
                                                   dep->config().binding_ttl_ms);
  const auto first = decode_result(gw->serve(submit_frame(1, invoice, pkg), now));
  ASSERT_TRUE(first.accepted) << first.reason;
  const auto second = decode_result(gw->serve(submit_frame(2, inv2, pkg2), now));
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.code, core::RejectReason::kPendingLimit);
  EXPECT_EQ(st->wal_appends(), 1u);

  gw.reset();
  st.reset();
  RecoveryInfo info;
  auto st2 = DurableStore::open(dir, opts, &info);
  ASSERT_NE(st2, nullptr) << info.error;
  EXPECT_EQ(info.replayed_records, 1u);
  const StateImage image = st2->image_copy();
  ASSERT_EQ(image.reservations.size(), 1u);
  EXPECT_EQ(image.reservations[0].id, first.reservation_id);
  EXPECT_EQ(image.released_count, 0u);
  st2.reset();
  fs::remove_all(dir);
}

TEST_F(StoreGatewayUnit, RecoveryRestoresFlushedAcceptsIntoFreshProcess) {
  const std::string dir = scratch_dir("gw-flushed");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  auto st = DurableStore::open(dir, opts);
  ASSERT_NE(st, nullptr);

  auto gw = make_gateway(dep->merchant());
  gw->attach_store(st.get());
  gw->register_invoice(invoice);
  const auto resp = decode_result(gw->serve(submit_frame(1, invoice, pkg), now));
  ASSERT_TRUE(resp.accepted) << resp.reason;
  (void)gw->flush_accepted();
  EXPECT_EQ(dep->merchant().pending().size(), 1u);

  // The document's store section is read from the store.
  const std::string json = gw->stats_json();
  EXPECT_NE(json.find("\"wal_appends\""), std::string::npos);
  EXPECT_EQ(st->wal_appends(), 1u);  // one record per accept; the flush logs nothing
  EXPECT_EQ(stats_doc::counter(json, "store", "wal_appends"), st->wal_appends());
  EXPECT_EQ(stats_doc::counter(json, "store", "fsyncs"), st->wal_syncs());
  EXPECT_EQ(stats_doc::counter(json, "store", "recovery_replayed_records"),
            st->recovery().replayed_records);
  EXPECT_EQ(stats_doc::counter(json, "store", "snapshot_bytes"), st->snapshot_bytes());

  gw.reset();
  st.reset();

  // A replacement process: same deployment parameters, empty merchant
  // book, recovers reservation AND accepted binding from disk.
  core::DeploymentConfig cfg2 = dep->config();
  auto dep2 = std::make_unique<core::Deployment>(cfg2);
  EXPECT_EQ(dep2->merchant().pending().size(), 0u);

  RecoveryInfo info;
  auto st2 = DurableStore::open(dir, opts, &info);
  ASSERT_NE(st2, nullptr) << info.error;
  EXPECT_EQ(info.replayed_records, 1u);
  const StateImage image = st2->image_copy();
  ASSERT_EQ(image.reservations.size(), 1u);
  ASSERT_EQ(image.accepted.size(), 1u);

  auto gw2 = std::make_unique<gateway::Gateway>(dep2->merchant(), pool, gateway::GatewayConfig{});
  gw2->track_escrow(dep2->customer().escrow_id());
  gw2->attach_store(st2.get());
  ASSERT_TRUE(gw2->restore_from(image));
  EXPECT_EQ(stats_doc::counter(gw2->stats_json(), "store", "recovery_replayed_records"),
            st2->recovery().replayed_records);

  ASSERT_EQ(dep2->merchant().pending().size(), 1u);
  const auto& restored = dep2->merchant().pending()[0];
  EXPECT_EQ(restored.package.binding.binding.btc_txid, pkg.payment_tx.txid());
  EXPECT_EQ(restored.invoice.invoice_id, invoice.invoice_id);
  EXPECT_EQ(restored.accepted_at_ms, now);
  const auto snap = gw2->escrow_snapshot(dep2->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, pkg.binding.binding.compensation);
  gw2.reset();
  st2.reset();
  fs::remove_all(dir);
}

/// Replication gate double: grants every quorum ask except the next
/// `refusals` ones.
struct RefusingGate final : CommitGate {
  bool quorum_commit(std::uint64_t, std::uint64_t) override {
    if (refusals == 0) return true;
    --refusals;
    return false;
  }
  int refusals = 0;
};

TEST_F(StoreGatewayUnit, DuplicateIndexFollowsTheHoldThroughReleaseAndRecovery) {
  // The replay guard lives exactly as long as the hold: a quorum refusal
  // releases the hold and clears the txid, so the same package is
  // accepted on retry; after a crash, restore_from rebuilds the index
  // from the recovered reservations, so a replay is still refused.
  const std::string dir = scratch_dir("gw-duplicate-index");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  auto st = DurableStore::open(dir, opts);
  ASSERT_NE(st, nullptr);
  RefusingGate gate;
  gate.refusals = 1;

  auto gw = make_gateway(dep->merchant());
  gw->attach_store(st.get());
  gw->attach_commit_gate(&gate);
  gw->register_invoice(invoice);
  const auto refused = decode_result(gw->serve(submit_frame(1, invoice, pkg), now));
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.code, core::RejectReason::kOverloaded);
  const auto retried = decode_result(gw->serve(submit_frame(2, invoice, pkg), now));
  ASSERT_TRUE(retried.accepted) << retried.reason;
  const auto replay = decode_result(gw->serve(submit_frame(3, invoice, pkg), now));
  EXPECT_EQ(replay.code, core::RejectReason::kDuplicatePayment);

  gw.reset();
  st.reset();
  auto st2 = DurableStore::open(dir, opts);
  ASSERT_NE(st2, nullptr);
  ASSERT_EQ(st2->image_copy().reservations.size(), 1u);
  auto gw2 = make_gateway(dep->merchant());
  gw2->attach_store(st2.get());
  gw2->register_invoice(invoice);
  ASSERT_TRUE(gw2->restore_from(st2->image_copy()));
  const auto after = decode_result(gw2->serve(submit_frame(4, invoice, pkg), now));
  EXPECT_FALSE(after.accepted);
  EXPECT_EQ(after.code, core::RejectReason::kDuplicatePayment);
  gw2.reset();
  st2.reset();
  fs::remove_all(dir);
}

TEST(StoreGatewayQuorum, FlushAppliesInShardOrderBooksOnceAndLogsNothing) {
  core::DeploymentConfig cfg;
  cfg.seed = 4343;
  cfg.funded_coins = 4;
  cfg.reserve_payments = true;  // flush returns one reservePayment tx per accept
  core::Deployment dep(cfg);
  const auto now = static_cast<std::uint64_t>(dep.simulator().now());

  common::ThreadPool pool{0};
  gateway::Gateway gw(dep.merchant(), pool, gateway::GatewayConfig{});

  // A second escrow on another shard, so the flush order (shard, then
  // queue) differs from the serve order.
  const core::EscrowId e1 = dep.customer().escrow_id();
  core::EscrowId e2 = e1 + 1;
  while (gw.shard_index(e2) == gw.shard_index(e1)) ++e2;
  core::CustomerWallet wallet2(dep.customer().btc_identity(), dep.customer_psc_address(), e2);
  dep.psc().mint(dep.customer_psc_address(), cfg.collateral);
  ASSERT_TRUE(dep.psc()
                  .execute_now(wallet2.make_deposit_tx(dep.judger_address(), cfg.collateral,
                                                       cfg.escrow_unlock_delay_ms),
                               now)
                  .success);
  gw.track_escrow(e1);
  gw.track_escrow(e2);

  const std::string dir = scratch_dir("gw-quorum-flush");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;
  auto st = DurableStore::open(dir, opts);
  ASSERT_NE(st, nullptr);
  RefusingGate gate;
  gw.attach_store(st.get());
  gw.attach_commit_gate(&gate);

  // Four accepts, alternating escrows.
  const auto coins =
      sim::find_spendable(dep.customer_node().chain(), dep.customer().btc_identity().script);
  ASSERT_GE(coins.size(), 4u);
  std::vector<core::FastPayPackage> pkgs;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto inv = dep.merchant().make_invoice(5 * btc::kCoin, cfg.compensation, now,
                                                 10ULL * 60 * 1000);
    gw.register_invoice(inv);
    core::CustomerWallet& payer = (i % 2 == 0) ? dep.customer() : wallet2;
    pkgs.push_back(payer.create_fastpay(inv, coins[i].first, coins[i].second.out.value, now,
                                        cfg.binding_ttl_ms));
    gateway::SubmitFastPayRequest req;
    req.invoice_id = inv.invoice_id;
    req.package = pkgs.back();
    const auto resp = StoreGatewayUnit::decode_result(
        gw.serve(gateway::make_frame(gateway::MsgType::kSubmitFastPay, i + 1, req.serialize()),
                 now));
    ASSERT_TRUE(resp.accepted) << resp.reason;
  }
  ASSERT_EQ(gw.commit_queue_depth(), 4u);
  EXPECT_EQ(st->wal_appends(), 4u);  // one record per accept

  // The flush applies the accepts in shard order, then queue order. It
  // appends nothing and asks the gate nothing: every accept was durable
  // and at quorum before its response, so a refusal left armed here is
  // never consumed.
  gate.refusals = 1;
  std::vector<std::size_t> order = {0, 1, 2, 3};
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return gw.shard_index(pkgs[a].binding.binding.escrow_id) <
           gw.shard_index(pkgs[b].binding.binding.escrow_id);
  });
  ASSERT_NE(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  const auto actions = gw.flush_accepted(now);
  ASSERT_EQ(actions.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    const auto& b = pkgs[order[k]].binding;
    EXPECT_EQ(actions[k].args, core::encode_open_dispute_args(b.binding.escrow_id, b)) << k;
  }
  EXPECT_EQ(gw.commit_queue_depth(), 0u);
  EXPECT_EQ(st->wal_appends(), 4u);
  EXPECT_EQ(gate.refusals, 1);

  // The merchant book holds each payment once, in the same order, and a
  // further flush has nothing left to apply.
  ASSERT_EQ(dep.merchant().pending().size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(dep.merchant().pending()[k].package.binding.binding.btc_txid,
              pkgs[order[k]].binding.binding.btc_txid);
  }
  EXPECT_TRUE(gw.flush_accepted(now).empty());
  EXPECT_EQ(dep.merchant().pending().size(), 4u);

  // Recovery sees exactly one accepted entry per reservation.
  gw.attach_commit_gate(nullptr);
  gw.attach_store(nullptr);
  st.reset();
  RecoveryInfo info;
  auto st2 = DurableStore::open(dir, opts, &info);
  ASSERT_NE(st2, nullptr) << info.error;
  EXPECT_EQ(info.replayed_records, 4u);
  const StateImage image = st2->image_copy();
  ASSERT_EQ(image.reservations.size(), 4u);
  ASSERT_EQ(image.accepted.size(), 4u);
  std::vector<std::uint64_t> reserved, committed;
  for (const auto& r : image.reservations) reserved.push_back(r.id);
  for (const auto& a : image.accepted) committed.push_back(a.reservation_id);
  std::sort(reserved.begin(), reserved.end());
  std::sort(committed.begin(), committed.end());
  EXPECT_EQ(committed, reserved);
  st2.reset();
  fs::remove_all(dir);
}

TEST(StoreGatewayRecovery, SnapshotAndReplayRestoreTheBookInOneOrder) {
  // One history — accept A, B, C; expire A — recovered from the WAL and
  // from a snapshot. Replay leaves the image's entries as the removal
  // left them (C moved into A's slot), the snapshot sorted; the rebuilt
  // book must not show the difference.
  core::DeploymentConfig cfg;
  cfg.seed = 4444;
  cfg.funded_coins = 3;
  core::Deployment dep(cfg);
  const auto now = static_cast<std::uint64_t>(dep.simulator().now());
  common::ThreadPool pool{0};
  const std::string dir = scratch_dir("gw-restore-order");
  StoreOptions opts;
  opts.policy = FsyncPolicy::kNone;

  const auto coins =
      sim::find_spendable(dep.customer_node().chain(), dep.customer().btc_identity().script);
  ASSERT_GE(coins.size(), 3u);
  constexpr std::uint64_t kShortTtl = 6ULL * 60 * 60 * 1000;  // A expires first
  std::vector<btc::Txid> paid;
  {
    auto st = DurableStore::open(dir, opts);
    ASSERT_NE(st, nullptr);
    gateway::Gateway gw(dep.merchant(), pool, gateway::GatewayConfig{});
    gw.track_escrow(dep.customer().escrow_id());
    gw.attach_store(st.get());
    for (std::size_t i = 0; i < 3; ++i) {
      const auto inv = dep.merchant().make_invoice(5 * btc::kCoin, cfg.compensation, now,
                                                   10ULL * 60 * 1000);
      gw.register_invoice(inv);
      const auto p = dep.customer().create_fastpay(inv, coins[i].first, coins[i].second.out.value,
                                                   now, i == 0 ? kShortTtl : cfg.binding_ttl_ms);
      gateway::SubmitFastPayRequest req;
      req.invoice_id = inv.invoice_id;
      req.package = p;
      const auto resp = StoreGatewayUnit::decode_result(
          gw.serve(gateway::make_frame(gateway::MsgType::kSubmitFastPay, i + 1, req.serialize()),
                   now));
      ASSERT_TRUE(resp.accepted) << resp.reason;
      paid.push_back(p.payment_tx.txid());
    }
    gw.reconcile(now + kShortTtl + 1);
    ASSERT_EQ(gw.reservations_expired(), 1u);
    gw.attach_store(nullptr);
  }

  auto replayed = DurableStore::open(dir, opts);
  ASSERT_NE(replayed, nullptr);
  const StateImage from_wal = replayed->image_copy();
  ASSERT_TRUE(replayed->take_snapshot());
  replayed.reset();
  RecoveryInfo info;
  auto loaded = DurableStore::open(dir, opts, &info);
  ASSERT_NE(loaded, nullptr) << info.error;
  EXPECT_EQ(info.replayed_records, 0u);
  const StateImage from_snapshot = loaded->image_copy();
  loaded.reset();
  ASSERT_EQ(from_wal.serialize(), from_snapshot.serialize());
  ASSERT_EQ(from_wal.accepted.size(), 2u);
  ASSERT_NE(from_wal.accepted[0].reservation_id, from_snapshot.accepted[0].reservation_id)
      << "the two images must differ in memory order for this test to bite";

  auto book_order = [&](const StateImage& image) {
    core::MerchantService merchant(dep.merchant().btc_identity(), dep.merchant_node(), dep.psc(),
                                   dep.merchant().config());
    gateway::Gateway gw(merchant, pool, gateway::GatewayConfig{});
    EXPECT_TRUE(gw.restore_from(image));
    std::vector<btc::Txid> order;
    for (const auto& p : merchant.pending()) order.push_back(p.package.binding.binding.btc_txid);
    return order;
  };
  const std::vector<btc::Txid> expect = {paid[1], paid[2]};
  EXPECT_EQ(book_order(from_wal), expect);
  EXPECT_EQ(book_order(from_snapshot), expect);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace btcfast::store
