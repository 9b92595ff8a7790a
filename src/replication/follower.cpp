#include "replication/follower.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/serialize.h"
#include "store/crc32c.h"
#include "store/wal.h"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace btcfast::replication {
namespace fs = std::filesystem;
namespace {

constexpr std::uint32_t kFenceMagic = 0x31454642;  // "BFE1" little-endian

std::string fence_path(const std::string& dir) { return (fs::path(dir) / "FENCE").string(); }

bool is_store_file(const std::string& name) {
  const auto has = [&](const std::string& prefix, const std::string& suffix) {
    return name.size() > prefix.size() + suffix.size() &&
           name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return has("wal-", ".wal") || has("snap-", ".snap");
}

}  // namespace

std::uint64_t read_fence_epoch(const std::string& dir) {
  std::ifstream in(fence_path(dir), std::ios::binary);
  if (!in) return 0;
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  Reader r(data);
  const auto magic = r.u32le();
  const auto epoch = r.u64le();
  const auto crc = r.u32le();
  if (!magic || !epoch || !crc || *magic != kFenceMagic || !r.at_end()) return 0;
  Writer covered;
  covered.u64le(*epoch);
  if (store::crc32c(covered.data()) != *crc) return 0;
  return *epoch;
}

bool write_fence_epoch(const std::string& dir, std::uint64_t epoch) {
  Writer covered;
  covered.u64le(epoch);
  Writer w;
  w.u32le(kFenceMagic);
  w.u64le(epoch);
  w.u32le(store::crc32c(covered.data()));

  const std::string path = fence_path(dir);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(w.data().data(), 1, w.size(), f) == w.size();
  bool synced = false;
  if (wrote && std::fflush(f) == 0) {
#if defined(_WIN32)
    synced = _commit(_fileno(f)) == 0;
#else
    synced = ::fsync(fileno(f)) == 0;
#endif
  }
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !synced || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

Follower::Follower(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {}

std::unique_ptr<Follower> Follower::open(const std::string& dir, Options options,
                                         std::string* error) {
  std::unique_ptr<Follower> f(new Follower(dir, options));
  store::RecoveryInfo info;
  f->store_ = store::DurableStore::open(dir, options.store, &info);
  if (f->store_ == nullptr) {
    if (error != nullptr) *error = info.error;
    return nullptr;
  }
  f->log_epoch_ = f->store_->image_copy().epoch;
  // The persisted fence may lead the log (fence() during a promotion we
  // never received batches from) — the floor is the max of the two.
  f->fenced_epoch_ = std::max(f->log_epoch_, read_fence_epoch(dir));
  return f;
}

ShipAck Follower::append_batch(const ShipBatch& batch) {
  ShipAck nack;
  if (store_ == nullptr) {
    nack.error = ShipError::kStoreFailed;
    return nack;
  }
  nack.next_seq = store_->next_seq();
  if (batch.epoch < fenced_epoch_) {
    nack.error = ShipError::kStaleEpoch;
    return nack;
  }

  // Re-validate the shipped frames with the same scanner recovery uses:
  // prepending a file header turns the batch into a well-formed WAL
  // image, giving us CRC + contiguity + framing checks for free.
  Bytes image;
  store::append_wal_header(image);
  append(image, batch.framed);
  const store::WalScan scan = store::scan_wal(image, batch.first_seq);
  if (!scan.ok() || scan.truncated_tail || scan.records.size() != batch.count) {
    nack.error = ShipError::kCorrupt;
    return nack;
  }

  const std::uint64_t next = store_->next_seq();
  if (batch.first_seq > next) {
    nack.error = ShipError::kSequenceGap;
    return nack;
  }
  if (batch.epoch > log_epoch_ && batch.first_seq < next) {
    // A newer-epoch primary is shipping sequences we already hold: our
    // copies came from a deposed epoch and may differ byte-for-byte.
    // Appending around them would silently fork the log — fail closed
    // and let the shipper reinstall from a snapshot.
    nack.error = ShipError::kDiverged;
    return nack;
  }

  for (const auto& rec : scan.records) {
    if (rec.seq < next) continue;  // idempotent re-ship of acked records
    auto decoded = store::StoreRecord::deserialize(rec.payload);
    if (!decoded) {
      nack.error = ShipError::kCorrupt;
      nack.next_seq = store_->next_seq();
      return nack;
    }
    if (!store_->append(std::move(*decoded))) {
      // Invalid transition: the primary's log can never produce one, so
      // local state has diverged from the stream. Fail closed.
      nack.error = ShipError::kStoreFailed;
      nack.next_seq = store_->next_seq();
      return nack;
    }
  }
  const bool durable = options_.fsync_acks ? store_->sync() : store_->commit();
  if (!durable) {
    nack.error = ShipError::kStoreFailed;
    nack.next_seq = store_->next_seq();
    return nack;
  }
  if (batch.epoch > log_epoch_) {
    log_epoch_ = batch.epoch;
    if (batch.epoch > fenced_epoch_) {
      // Accepting a newer epoch's batch commits us to it: persist the
      // fence so a restart keeps rejecting the deposed primary.
      if (!write_fence_epoch(dir_, batch.epoch)) {
        nack.error = ShipError::kStoreFailed;
        nack.next_seq = store_->next_seq();
        return nack;
      }
      fenced_epoch_ = batch.epoch;
    }
  }
  ++batches_appended_;
  ShipAck ack;
  ack.ok = true;
  ack.next_seq = store_->next_seq();
  return ack;
}

FollowerCursor Follower::cursor() const {
  FollowerCursor c;
  c.epoch = log_epoch_;
  c.last_seq = store_->last_committed_seq();
  return c;
}

bool Follower::fence(std::uint64_t epoch) {
  if (epoch <= fenced_epoch_) return true;  // fences only ratchet up
  if (!write_fence_epoch(dir_, epoch)) return false;
  fenced_epoch_ = epoch;
  return true;
}

bool Follower::install(const store::StateImage& image, std::uint64_t epoch) {
  if (epoch < fenced_epoch_) return false;  // stale primary can't reimage us
  store_.reset();  // close segment files before deleting them

  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (is_store_file(entry.path().filename().string())) fs::remove(entry.path(), ec);
  }
  if (ec) return false;

  char name[40];
  std::snprintf(name, sizeof(name), "snap-%016llx.snap",
                static_cast<unsigned long long>(image.last_seq));
  if (!store::write_snapshot((fs::path(dir_) / name).string(), image)) return false;

  store::RecoveryInfo info;
  store_ = store::DurableStore::open(dir_, options_.store, &info);
  if (store_ == nullptr) return false;
  log_epoch_ = image.epoch;
  return fence(std::max(epoch, image.epoch));
}

}  // namespace btcfast::replication
