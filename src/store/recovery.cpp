#include "store/recovery.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace btcfast::store {
namespace fs = std::filesystem;

namespace {

/// Parse "<prefix><seq:016x><suffix>" filenames; nullopt for strangers.
std::optional<std::uint64_t> parse_seq(const std::string& name, const std::string& prefix,
                                       const std::string& suffix) {
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(prefix.size() + 16, suffix.size(), suffix) != 0) return std::nullopt;
  std::uint64_t seq = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 16; ++i) {
    const char c = name[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    seq = (seq << 4) | digit;
  }
  return seq;
}

std::string format_name(const std::string& prefix, std::uint64_t seq, const std::string& suffix) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, seq);
  return prefix + buf + suffix;
}

}  // namespace

DurableStore::DurableStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {}

std::string DurableStore::segment_path(std::uint64_t first_seq) const {
  return (fs::path(dir_) / format_name("wal-", first_seq, ".wal")).string();
}

std::string DurableStore::snapshot_path(std::uint64_t seq) const {
  return (fs::path(dir_) / format_name("snap-", seq, ".snap")).string();
}

std::unique_ptr<DurableStore> DurableStore::open(const std::string& dir, StoreOptions options,
                                                 RecoveryInfo* info) {
  auto fail = [&](std::string why) -> std::unique_ptr<DurableStore> {
    if (info != nullptr) {
      info->error = std::move(why);
    }
    return nullptr;
  };

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return fail("cannot create store dir: " + ec.message());

  std::unique_ptr<DurableStore> store(new DurableStore(dir, options));

  // Inventory the directory.
  std::vector<std::uint64_t> snapshot_seqs;
  std::vector<std::uint64_t> segment_seqs;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto s = parse_seq(name, "snap-", ".snap")) snapshot_seqs.push_back(*s);
    if (const auto s = parse_seq(name, "wal-", ".wal")) segment_seqs.push_back(*s);
  }
  if (ec) return fail("cannot list store dir: " + ec.message());
  std::sort(snapshot_seqs.begin(), snapshot_seqs.end());
  std::sort(segment_seqs.begin(), segment_seqs.end());

  // Newest decodable snapshot wins; bit-rotted ones (or one holding a key
  // twice) fall back to older.
  RecoveryInfo rec;
  for (auto it = snapshot_seqs.rbegin(); it != snapshot_seqs.rend(); ++it) {
    auto img = read_snapshot(store->snapshot_path(*it));
    auto indexed = img ? IndexedImage::index(std::move(*img)) : std::nullopt;
    if (indexed) {
      store->image_ = std::move(*indexed);
      rec.snapshot_seq = store->image_.image().last_seq;
      store->snapshot_bytes_ =
          static_cast<std::uint64_t>(fs::file_size(store->snapshot_path(*it), ec));
      break;
    }
    ++rec.snapshots_skipped;
  }

  // Replay every record past the snapshot, across segments, in order.
  std::uint64_t next_seq = rec.snapshot_seq + 1;
  for (std::size_t i = 0; i < segment_seqs.size(); ++i) {
    const std::uint64_t start = segment_seqs[i];
    const bool final_segment = i + 1 == segment_seqs.size();
    if (start > next_seq) {
      return fail("missing wal segment: next record is " + std::to_string(next_seq) +
                  " but segment starts at " + std::to_string(start));
    }
    const WalScan scan = scan_wal_file(store->segment_path(start), start);
    ++rec.segments_scanned;
    if (!scan.ok()) return fail("segment " + std::to_string(start) + ": " + scan.error);
    if (scan.truncated_tail && !final_segment) {
      // A torn tail is only a crash artifact on the last segment ever
      // written; earlier segments were sealed by a later one's creation.
      return fail("segment " + std::to_string(start) + ": torn tail in non-final segment");
    }
    if (scan.truncated_tail) {
      // Truncate at the first bad checksum so the torn bytes are gone
      // for good — otherwise this segment would scan as corrupt once a
      // newer segment makes it non-final.
      fs::resize_file(store->segment_path(start), scan.valid_bytes, ec);
      if (ec) return fail("cannot truncate torn segment: " + ec.message());
    }
    rec.truncated_tail = rec.truncated_tail || scan.truncated_tail;
    for (const auto& record : scan.records) {
      if (record.seq < next_seq) continue;  // covered by the snapshot
      if (record.seq != next_seq) {
        return fail("sequence gap: got " + std::to_string(record.seq) + ", want " +
                    std::to_string(next_seq));
      }
      auto decoded = StoreRecord::deserialize(record.payload);
      if (!decoded) {
        return fail("undecodable record at seq " + std::to_string(record.seq));
      }
      if (!store->image_.apply(std::move(*decoded), record.seq)) {
        return fail("invalid transition at seq " + std::to_string(record.seq));
      }
      ++rec.replayed_records;
      ++next_seq;
    }
  }

  // Fresh active segment: recovery never appends into a possibly-torn
  // file, it seals the past and starts clean at the next sequence.
  store->active_segment_start_ = next_seq;
  auto file = open_append_file(store->segment_path(next_seq));
  if (file == nullptr) return fail("cannot open active wal segment");
  WalOptions wopts;
  wopts.policy = options.policy;
  wopts.batch_records = options.batch_records;
  // The active segment may already exist (crash right after rotation,
  // before any append): only write the header into a zero-length file.
  const bool fresh = file->size() == 0;
  store->wal_ = std::make_unique<Wal>(std::move(file), wopts, next_seq, fresh);

  store->recovery_ = rec;
  if (info != nullptr) *info = rec;
  return store;
}

std::optional<std::uint64_t> DurableStore::append(const StoreRecord& record) {
  return append(StoreRecord(record));
}

std::optional<std::uint64_t> DurableStore::append(StoreRecord&& record) {
  std::lock_guard lock(mu_);
  // One copy of the blobs: encoded straight into the WAL buffer, then
  // moved into the image. An invalid transition takes the frame back.
  const std::uint64_t assigned =
      wal_->append([&record](Bytes& out) { record.serialize_to(out); });
  if (!image_.apply(std::move(record), assigned)) {
    wal_->drop_last();
    return std::nullopt;
  }
  ++records_since_snapshot_;
  if (options_.snapshot_every > 0 && records_since_snapshot_ >= options_.snapshot_every) {
    (void)take_snapshot_locked();
  }
  return assigned;
}

bool DurableStore::commit() {
  std::lock_guard lock(mu_);
  return wal_->commit();
}

bool DurableStore::sync() {
  std::lock_guard lock(mu_);
  return wal_->sync();
}

bool DurableStore::take_snapshot() {
  std::lock_guard lock(mu_);
  return take_snapshot_locked();
}

bool DurableStore::take_snapshot_locked() {
  // Everything the snapshot covers must be on disk first — otherwise a
  // crash between the rename and the (never-happening) WAL flush would
  // prune records the snapshot claims to contain but doesn't.
  if (!wal_->sync()) return false;

  const std::uint64_t seq = image_.image().last_seq;
  const Bytes encoded = encode_snapshot(image_.image());
  if (!write_snapshot(snapshot_path(seq), encoded)) return false;
  snapshot_bytes_ = static_cast<std::uint64_t>(encoded.size());
  ++snapshots_taken_;
  records_since_snapshot_ = 0;

  // Rotate: new active segment starting at the next sequence number.
  const std::uint64_t next = wal_->next_seq();
  retired_appends_ += wal_->appends();
  retired_syncs_ += wal_->syncs();
  retired_bytes_ += wal_->bytes_written();
  wal_.reset();
  auto file = open_append_file(segment_path(next));
  if (file == nullptr) return false;
  WalOptions wopts;
  wopts.policy = options_.policy;
  wopts.batch_records = options_.batch_records;
  // When nothing was appended since the last rotation the "new" segment
  // is the already-headered current one — don't double-header it.
  const bool fresh = file->size() == 0;
  wal_ = std::make_unique<Wal>(std::move(file), wopts, next, fresh);
  wal_->set_commit_tap(tap_);

  // Prune: every segment except the new active one is fully covered by
  // the snapshot (all its records have seq <= its last_seq), as are
  // all older snapshots.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto s = parse_seq(name, "wal-", ".wal"); s && *s != next) {
      fs::remove(entry.path(), ec);
    }
    if (const auto s = parse_seq(name, "snap-", ".snap"); s && *s < seq) {
      fs::remove(entry.path(), ec);
    }
  }
  active_segment_start_ = next;
  return true;
}

StateImage DurableStore::image_copy() const {
  std::lock_guard lock(mu_);
  return image_.image();
}

void DurableStore::set_commit_tap(CommitTap tap) {
  std::lock_guard lock(mu_);
  tap_ = std::move(tap);
  wal_->set_commit_tap(tap_);
}

std::uint64_t DurableStore::next_seq() const {
  std::lock_guard lock(mu_);
  return wal_->next_seq();
}

std::uint64_t DurableStore::last_committed_seq() const {
  std::lock_guard lock(mu_);
  return wal_->committed_seq();
}

RangeScan DurableStore::read_range(std::uint64_t from_seq, std::size_t max_records,
                                   const ReadCursor* hint) {
  std::lock_guard lock(mu_);
  RangeScan out;
  if (from_seq == 0) {
    out.error = "read_range: from_seq must be >= 1";
    return out;
  }
  const std::uint64_t committed = wal_->committed_seq();
  if (from_seq > committed) return out;  // caller is already caught up
  // Committed bytes can still sit in stdio's user-space buffer; push
  // them to the OS (no fsync) so the file read below observes them.
  if (!wal_->flush_os()) {
    out.error = "read_range: flush to OS failed";
    return out;
  }

  std::error_code ec;
  std::vector<std::uint64_t> segment_seqs;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (const auto s = parse_seq(entry.path().filename().string(), "wal-", ".wal")) {
      segment_seqs.push_back(*s);
    }
  }
  if (ec) {
    out.error = "read_range: cannot list store dir: " + ec.message();
    return out;
  }
  std::sort(segment_seqs.begin(), segment_seqs.end());
  // The segment owning from_seq is the last one starting at or before it.
  std::size_t first = segment_seqs.size();
  for (std::size_t i = 0; i < segment_seqs.size(); ++i) {
    if (segment_seqs[i] <= from_seq) first = i;
  }
  if (first == segment_seqs.size()) {
    out.pruned = true;  // compaction already dropped that range
    return out;
  }
  for (std::size_t i = first; i < segment_seqs.size() && out.records.size() < max_records; ++i) {
    const std::uint64_t seg = segment_seqs[i];
    const std::string path = segment_path(seg);
    // Hinted entry: resume the byte offset a prior read of this segment
    // ended at, as long as the hint doesn't point past what we need. A
    // hint that turns out to be wrong (a scan error right where it
    // pointed) is discarded and the segment re-scanned from its front —
    // the cursor is an accelerator, not a source of truth.
    std::uint64_t offset = 0;
    std::uint64_t expect = seg;
    bool hinted = hint != nullptr && hint->next_seq != 0 && hint->segment == seg &&
                  hint->next_seq <= from_seq && hint->offset >= kWalHeaderSize;
    if (hinted) {
      offset = hint->offset;
      expect = hint->next_seq;
    }
    bool segment_done = false;
    while (!segment_done && out.records.size() < max_records) {
      // Window budget: what we still owe the caller, plus whatever must
      // be parsed and skipped to reach from_seq.
      const std::size_t budget =
          (max_records - out.records.size()) +
          (expect < from_seq ? static_cast<std::size_t>(std::min<std::uint64_t>(
                                   from_seq - expect, std::size_t{4096})) : 0);
      WalWindowScan win = scan_wal_file_window(path, offset, expect, budget);
      const bool first_hinted_window = hinted && offset == hint->offset;
      if (!win.ok() || (first_hinted_window && win.records.empty())) {
        if (first_hinted_window) {
          // Stale hint — a scan error right at the remembered offset, or
          // garbage bytes there that read as a torn tail. Fall back to
          // the unhinted scan of this segment.
          hinted = false;
          offset = 0;
          expect = seg;
          continue;
        }
        out.error = "read_range: segment " + std::to_string(seg) + ": " + win.error;
        return out;
      }
      if (win.records.empty()) break;  // at_eof with nothing parsed
      std::uint64_t cursor = offset == 0 ? kWalHeaderSize : offset;
      for (auto& rec : win.records) {
        const std::uint64_t rec_end = cursor + kWalRecordHeaderSize + rec.payload.size();
        if (rec.seq > committed) {
          segment_done = true;  // live tail past the committed bound
          break;
        }
        if (rec.seq >= from_seq) {
          if (!out.records.empty() && rec.seq != out.records.back().seq + 1) {
            out.error = "read_range: gap across segments at seq " + std::to_string(rec.seq);
            return out;
          }
          const std::uint64_t seq = rec.seq;
          out.records.push_back(std::move(rec));
          out.resume = ReadCursor{seg, rec_end, seq + 1};
          if (out.records.size() >= max_records) {
            cursor = rec_end;
            break;
          }
        }
        cursor = rec_end;
        expect = rec.seq + 1;
      }
      offset = cursor;
      if (win.at_eof) segment_done = true;
    }
  }
  if (!out.records.empty() && out.records.front().seq != from_seq) {
    out.pruned = true;  // range starts later than asked: prefix was pruned
    out.records.clear();
    out.resume = ReadCursor{};
  }
  return out;
}

std::uint64_t DurableStore::wal_appends() const {
  std::lock_guard lock(mu_);
  return retired_appends_ + wal_->appends();
}

std::uint64_t DurableStore::wal_syncs() const {
  std::lock_guard lock(mu_);
  return retired_syncs_ + wal_->syncs();
}

std::uint64_t DurableStore::wal_bytes() const {
  std::lock_guard lock(mu_);
  return retired_bytes_ + wal_->bytes_written();
}

std::uint64_t DurableStore::snapshot_bytes() const {
  std::lock_guard lock(mu_);
  return snapshot_bytes_;
}

std::uint64_t DurableStore::snapshots_taken() const {
  std::lock_guard lock(mu_);
  return snapshots_taken_;
}

}  // namespace btcfast::store
