#include "store/records.h"

#include "common/serialize.h"

namespace btcfast::store {
namespace {

constexpr std::size_t kMaxBlob = 1u << 20;  ///< cap on opaque package/invoice blobs

}  // namespace

Bytes StoreRecord::serialize() const {
  Bytes out;
  serialize_to(out);
  return out;
}

void StoreRecord::serialize_to(Bytes& out) const {
  Writer w(std::move(out));
  w.u8(static_cast<std::uint8_t>(kind));
  switch (kind) {
    case RecordKind::kReserve:
      w.u64le(reservation_id);
      w.u64le(escrow_id);
      w.u64le(amount);
      w.u64le(expires_at_ms);
      w.bytes({txid.data(), txid.size()});
      w.u64le(accepted_at_ms);
      w.bytes_with_len(package);
      w.bytes_with_len(invoice);
      break;
    case RecordKind::kRelease:
      w.u64le(reservation_id);
      w.u8(static_cast<std::uint8_t>(cause));
      break;
    case RecordKind::kDisputeOpen:
      w.u64le(escrow_id);
      w.u64le(amount);
      w.u64le(expires_at_ms);
      w.bytes({txid.data(), txid.size()});
      break;
    case RecordKind::kDisputeResolve:
      w.u64le(escrow_id);
      w.bytes({txid.data(), txid.size()});
      break;
    case RecordKind::kEpochChange:
      w.u64le(epoch);
      break;
    case RecordKind::kHeaderAccept:
      w.bytes({header.data(), header.size()});
      break;
  }
  out = std::move(w).take();
}

std::optional<StoreRecord> StoreRecord::deserialize(ByteSpan data) {
  Reader r(data);
  const auto kind_raw = r.u8();
  if (!kind_raw) return std::nullopt;
  StoreRecord rec;
  auto read_txid = [&]() -> bool {
    const auto b = r.bytes(32);
    if (!b) return false;
    std::copy(b->begin(), b->end(), rec.txid.begin());
    return true;
  };
  switch (*kind_raw) {
    case static_cast<std::uint8_t>(RecordKind::kReserve): {
      rec.kind = RecordKind::kReserve;
      const auto rid = r.u64le();
      const auto eid = r.u64le();
      const auto amount = r.u64le();
      const auto expires = r.u64le();
      if (!rid || !eid || !amount || !expires || !read_txid()) return std::nullopt;
      const auto at = r.u64le();
      auto package = r.bytes_with_len(kMaxBlob);
      auto invoice = r.bytes_with_len(kMaxBlob);
      if (!at || !package || !invoice) return std::nullopt;
      rec.reservation_id = *rid;
      rec.escrow_id = *eid;
      rec.amount = *amount;
      rec.expires_at_ms = *expires;
      rec.accepted_at_ms = *at;
      rec.package = std::move(*package);
      rec.invoice = std::move(*invoice);
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kRelease): {
      rec.kind = RecordKind::kRelease;
      const auto rid = r.u64le();
      const auto cause = r.u8();
      if (!rid || !cause || *cause > static_cast<std::uint8_t>(ReleaseCause::kRejected)) {
        return std::nullopt;
      }
      rec.reservation_id = *rid;
      rec.cause = static_cast<ReleaseCause>(*cause);
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kDisputeOpen): {
      rec.kind = RecordKind::kDisputeOpen;
      const auto eid = r.u64le();
      const auto amount = r.u64le();
      const auto deadline = r.u64le();
      if (!eid || !amount || !deadline || !read_txid()) return std::nullopt;
      rec.escrow_id = *eid;
      rec.amount = *amount;
      rec.expires_at_ms = *deadline;
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kDisputeResolve): {
      rec.kind = RecordKind::kDisputeResolve;
      const auto eid = r.u64le();
      if (!eid || !read_txid()) return std::nullopt;
      rec.escrow_id = *eid;
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kEpochChange): {
      rec.kind = RecordKind::kEpochChange;
      const auto epoch = r.u64le();
      if (!epoch) return std::nullopt;
      rec.epoch = *epoch;
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kHeaderAccept): {
      rec.kind = RecordKind::kHeaderAccept;
      const auto b = r.bytes(80);
      if (!b) return std::nullopt;
      std::copy(b->begin(), b->end(), rec.header.begin());
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.at_end()) return std::nullopt;
  return rec;
}

}  // namespace btcfast::store
