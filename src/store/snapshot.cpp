#include "store/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string_view>

#include "common/serialize.h"
#include "store/crc32c.h"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace btcfast::store {
namespace {

constexpr std::size_t kMaxEntries = 1u << 22;
constexpr std::size_t kMaxBlob = 1u << 20;

void write_txid(Writer& w, const ByteArray<32>& txid) { w.bytes({txid.data(), txid.size()}); }

bool read_txid(Reader& r, ByteArray<32>& out) {
  const auto b = r.bytes(32);
  if (!b) return false;
  std::copy(b->begin(), b->end(), out.begin());
  return true;
}

}  // namespace

Bytes StateImage::serialize() const {
  // Canonical order: sorted copies, so logically equal images are
  // byte-identical regardless of insertion history.
  auto res = reservations;
  std::sort(res.begin(), res.end(),
            [](const ReservationImage& a, const ReservationImage& b) { return a.id < b.id; });
  auto acc = accepted;
  std::sort(acc.begin(), acc.end(), [](const AcceptedImage& a, const AcceptedImage& b) {
    return a.reservation_id < b.reservation_id;
  });
  auto dis = open_disputes;
  std::sort(dis.begin(), dis.end(), [](const DisputeImage& a, const DisputeImage& b) {
    if (a.escrow_id != b.escrow_id) return a.escrow_id < b.escrow_id;
    return std::lexicographical_compare(a.txid.begin(), a.txid.end(), b.txid.begin(),
                                        b.txid.end());
  });

  Writer w;
  w.u64le(last_seq);
  w.u64le(released_count);
  w.u64le(resolved_disputes);
  w.varint(res.size());
  for (const auto& r : res) {
    w.u64le(r.id);
    w.u64le(r.escrow_id);
    w.u64le(r.amount);
    w.u64le(r.expires_at_ms);
    write_txid(w, r.txid);
  }
  w.varint(acc.size());
  for (const auto& a : acc) {
    w.u64le(a.reservation_id);
    w.u64le(a.accepted_at_ms);
    w.bytes_with_len(a.package);
    w.bytes_with_len(a.invoice);
  }
  w.varint(dis.size());
  for (const auto& d : dis) {
    w.u64le(d.escrow_id);
    write_txid(w, d.txid);
    w.u64le(d.amount);
    w.u64le(d.deadline_ms);
  }
  w.u64le(epoch);
  // Headers stay in connection order — not sorted — because replay
  // re-accepts them sequentially and children must follow parents.
  w.varint(headers.size());
  for (const auto& h : headers) w.bytes({h.data(), h.size()});
  return std::move(w).take();
}

std::optional<StateImage> StateImage::deserialize(ByteSpan data) {
  Reader r(data);
  StateImage img;
  const auto last_seq = r.u64le();
  const auto released = r.u64le();
  const auto resolved = r.u64le();
  if (!last_seq || !released || !resolved) return std::nullopt;
  img.last_seq = *last_seq;
  img.released_count = *released;
  img.resolved_disputes = *resolved;

  const auto n_res = r.varint();
  if (!n_res || *n_res > kMaxEntries) return std::nullopt;
  img.reservations.reserve(static_cast<std::size_t>(*n_res));
  for (std::uint64_t i = 0; i < *n_res; ++i) {
    ReservationImage res;
    const auto id = r.u64le();
    const auto eid = r.u64le();
    const auto amount = r.u64le();
    const auto expires = r.u64le();
    if (!id || !eid || !amount || !expires || !read_txid(r, res.txid)) return std::nullopt;
    res.id = *id;
    res.escrow_id = *eid;
    res.amount = *amount;
    res.expires_at_ms = *expires;
    img.reservations.push_back(std::move(res));
  }

  const auto n_acc = r.varint();
  if (!n_acc || *n_acc > kMaxEntries) return std::nullopt;
  img.accepted.reserve(static_cast<std::size_t>(*n_acc));
  for (std::uint64_t i = 0; i < *n_acc; ++i) {
    AcceptedImage acc;
    const auto rid = r.u64le();
    const auto at = r.u64le();
    auto package = r.bytes_with_len(kMaxBlob);
    auto invoice = r.bytes_with_len(kMaxBlob);
    if (!rid || !at || !package || !invoice) return std::nullopt;
    acc.reservation_id = *rid;
    acc.accepted_at_ms = *at;
    acc.package = std::move(*package);
    acc.invoice = std::move(*invoice);
    img.accepted.push_back(std::move(acc));
  }

  const auto n_dis = r.varint();
  if (!n_dis || *n_dis > kMaxEntries) return std::nullopt;
  img.open_disputes.reserve(static_cast<std::size_t>(*n_dis));
  for (std::uint64_t i = 0; i < *n_dis; ++i) {
    DisputeImage dis;
    const auto eid = r.u64le();
    if (!eid || !read_txid(r, dis.txid)) return std::nullopt;
    const auto amount = r.u64le();
    const auto deadline = r.u64le();
    if (!amount || !deadline) return std::nullopt;
    dis.escrow_id = *eid;
    dis.amount = *amount;
    dis.deadline_ms = *deadline;
    img.open_disputes.push_back(std::move(dis));
  }

  const auto epoch = r.u64le();
  if (!epoch) return std::nullopt;
  img.epoch = *epoch;
  const auto n_hdr = r.varint();
  if (!n_hdr || *n_hdr > kMaxEntries) return std::nullopt;
  img.headers.reserve(static_cast<std::size_t>(*n_hdr));
  for (std::uint64_t i = 0; i < *n_hdr; ++i) {
    ByteArray<80> h{};
    const auto b = r.bytes(80);
    if (!b) return std::nullopt;
    std::copy(b->begin(), b->end(), h.begin());
    img.headers.push_back(h);
  }

  if (!r.at_end()) return std::nullopt;
  return img;
}

std::size_t IndexedImage::KeyHash::operator()(const DisputeKey& k) const noexcept {
  const std::string_view txid(reinterpret_cast<const char*>(k.txid.data()), k.txid.size());
  return std::hash<std::string_view>{}(txid) ^ std::hash<EscrowId>{}(k.escrow_id);
}

std::size_t IndexedImage::KeyHash::operator()(const ByteArray<80>& header) const noexcept {
  return std::hash<std::string_view>{}(
      std::string_view(reinterpret_cast<const char*>(header.data()), header.size()));
}

template <typename Vec, typename Index, typename KeyOf>
void IndexedImage::erase_at(Vec& vec, Index& at, std::size_t pos, KeyOf key_of) {
  at.erase(key_of(vec[pos]));
  if (pos + 1 != vec.size()) {
    vec[pos] = std::move(vec.back());
    at[key_of(vec[pos])] = pos;
  }
  vec.pop_back();
}

std::optional<IndexedImage> IndexedImage::index(StateImage image) {
  IndexedImage out;
  out.image_ = std::move(image);
  const StateImage& img = out.image_;
  for (std::size_t i = 0; i < img.reservations.size(); ++i) {
    if (!out.reservation_at_.emplace(img.reservations[i].id, i).second) return std::nullopt;
  }
  for (std::size_t i = 0; i < img.accepted.size(); ++i) {
    if (!out.accepted_at_.emplace(img.accepted[i].reservation_id, i).second) return std::nullopt;
  }
  for (std::size_t i = 0; i < img.open_disputes.size(); ++i) {
    const DisputeImage& d = img.open_disputes[i];
    if (!out.dispute_at_.emplace(DisputeKey{d.escrow_id, d.txid}, i).second) return std::nullopt;
  }
  for (const auto& h : img.headers) {
    if (!out.headers_.insert(h).second) return std::nullopt;
  }
  return out;
}

bool IndexedImage::apply(const StoreRecord& record, std::uint64_t seq) {
  return apply(StoreRecord(record), seq);
}

bool IndexedImage::apply(StoreRecord&& record, std::uint64_t seq) {
  StateImage& image = image_;
  switch (record.kind) {
    case RecordKind::kReserve: {
      // An accept's hold and its evidence enter the image together.
      if (!reservation_at_.emplace(record.reservation_id, image.reservations.size()).second) {
        return false;  // double reserve
      }
      if (!accepted_at_.emplace(record.reservation_id, image.accepted.size()).second) {
        reservation_at_.erase(record.reservation_id);  // a loaded image held the evidence alone
        return false;
      }
      ReservationImage res;
      res.id = record.reservation_id;
      res.escrow_id = record.escrow_id;
      res.amount = record.amount;
      res.expires_at_ms = record.expires_at_ms;
      res.txid = record.txid;
      image.reservations.push_back(std::move(res));
      AcceptedImage acc;
      acc.reservation_id = record.reservation_id;
      acc.accepted_at_ms = record.accepted_at_ms;
      acc.package = std::move(record.package);
      acc.invoice = std::move(record.invoice);
      image.accepted.push_back(std::move(acc));
      break;
    }
    case RecordKind::kRelease: {
      const auto it = reservation_at_.find(record.reservation_id);
      if (it == reservation_at_.end()) return false;  // release of unknown id
      erase_at(image.reservations, reservation_at_, it->second,
               [](const ReservationImage& r) { return r.id; });
      // The accept's evidence leaves with its hold: the payment settled,
      // was judged, expired or was rolled back.
      if (const auto acc = accepted_at_.find(record.reservation_id); acc != accepted_at_.end()) {
        erase_at(image.accepted, accepted_at_, acc->second,
                 [](const AcceptedImage& a) { return a.reservation_id; });
      }
      ++image.released_count;
      break;
    }
    case RecordKind::kDisputeOpen: {
      if (!dispute_at_.emplace(DisputeKey{record.escrow_id, record.txid},
                               image.open_disputes.size())
               .second) {
        return false;  // dispute already open
      }
      DisputeImage dis;
      dis.escrow_id = record.escrow_id;
      dis.txid = record.txid;
      dis.amount = record.amount;
      dis.deadline_ms = record.expires_at_ms;
      image.open_disputes.push_back(std::move(dis));
      break;
    }
    case RecordKind::kDisputeResolve: {
      const auto it = dispute_at_.find(DisputeKey{record.escrow_id, record.txid});
      if (it == dispute_at_.end()) return false;  // resolve of unopened dispute
      erase_at(image.open_disputes, dispute_at_, it->second,
               [](const DisputeImage& d) { return DisputeKey{d.escrow_id, d.txid}; });
      ++image.resolved_disputes;
      break;
    }
    case RecordKind::kEpochChange: {
      // Epochs only move forward; a replayed change to an equal or older
      // epoch means a stale primary's log leaked past the fence.
      if (record.epoch <= image.epoch) return false;
      image.epoch = record.epoch;
      break;
    }
    case RecordKind::kHeaderAccept: {
      if (!headers_.insert(record.header).second) return false;  // double-accept of a header
      image.headers.push_back(record.header);
      break;
    }
    default:
      return false;
  }
  image.last_seq = seq;
  return true;
}

Bytes encode_snapshot(const StateImage& image) {
  const Bytes body = image.serialize();
  Writer covered;  // version || body — the checksummed region
  covered.u32le(kSnapshotVersion);
  covered.bytes(body);
  Writer w;
  w.reserve(8 + covered.size());
  w.u32le(kSnapshotMagic);
  w.u32le(crc32c(covered.data()));
  w.bytes(covered.data());
  return std::move(w).take();
}

std::optional<StateImage> decode_snapshot(ByteSpan data) {
  Reader r(data);
  const auto magic = r.u32le();
  const auto crc = r.u32le();
  if (!magic || !crc || *magic != kSnapshotMagic) return std::nullopt;
  const ByteSpan covered{data.data() + 8, data.size() - 8};
  if (crc32c(covered) != *crc) return std::nullopt;
  Reader body(covered);
  const auto version = body.u32le();
  if (!version || *version != kSnapshotVersion) return std::nullopt;
  return StateImage::deserialize({covered.data() + 4, covered.size() - 4});
}

bool write_snapshot(const std::string& path, const StateImage& image) {
  return write_snapshot(path, encode_snapshot(image));
}

bool write_snapshot(const std::string& path, ByteSpan encoded) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(encoded.data(), 1, encoded.size(), f) == encoded.size();
  bool synced = false;
  if (wrote) {
    if (std::fflush(f) == 0) {
#if defined(_WIN32)
      synced = _commit(_fileno(f)) == 0;
#else
      synced = ::fsync(fileno(f)) == 0;
#endif
    }
  }
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !synced || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<StateImage> read_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return decode_snapshot(data);
}

}  // namespace btcfast::store
