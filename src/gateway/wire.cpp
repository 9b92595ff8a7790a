#include "gateway/wire.h"

namespace btcfast::gateway {
namespace {

constexpr std::size_t kMaxReasonLen = 256;

bool known_type(std::uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kSubmitFastPay:
    case MsgType::kQueryEscrow:
    case MsgType::kGetReceipt:
    case MsgType::kFastPayResult:
    case MsgType::kEscrowInfo:
    case MsgType::kRetryAfter:
    case MsgType::kReceiptInfo:
    case MsgType::kError:
      return true;
  }
  return false;
}

std::optional<RejectReason> parse_reason(std::uint16_t raw) {
  if (raw >= static_cast<std::uint16_t>(RejectReason::kMaxReason)) return std::nullopt;
  return static_cast<RejectReason>(raw);
}

}  // namespace

Bytes Frame::serialize() const {
  Writer w;
  w.reserve(4 + 1 + 8 + 5 + payload.size());
  w.u32le(kWireMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64le(request_id);
  w.bytes_with_len(payload);
  return std::move(w).take();
}

std::optional<Frame> Frame::deserialize(ByteSpan data) {
  Reader r(data);
  auto magic = r.u32le();
  auto type = r.u8();
  auto rid = r.u64le();
  auto payload = r.bytes_with_len(kMaxFramePayload);
  if (!magic || !type || !rid || !payload || !r.at_end()) return std::nullopt;
  if (*magic != kWireMagic || !known_type(*type)) return std::nullopt;
  Frame f;
  f.type = static_cast<MsgType>(*type);
  f.request_id = *rid;
  f.payload = std::move(*payload);
  return f;
}

Bytes make_frame(MsgType type, std::uint64_t request_id, Bytes payload) {
  Frame f;
  f.type = type;
  f.request_id = request_id;
  f.payload = std::move(payload);
  return f.serialize();
}

Bytes SubmitFastPayRequest::serialize() const {
  Writer w;
  w.u64le(invoice_id);
  w.bytes_with_len(package.serialize());
  return std::move(w).take();
}

std::optional<SubmitFastPayRequest> SubmitFastPayRequest::deserialize(ByteSpan data) {
  Reader r(data);
  auto invoice = r.u64le();
  auto pkg_bytes = r.bytes_with_len(kMaxFramePayload);
  if (!invoice || !pkg_bytes || !r.at_end()) return std::nullopt;
  auto pkg = core::FastPayPackage::deserialize(*pkg_bytes);
  if (!pkg) return std::nullopt;
  SubmitFastPayRequest out;
  out.invoice_id = *invoice;
  out.package = std::move(*pkg);
  out.package_bytes = std::move(*pkg_bytes);
  return out;
}

Bytes QueryEscrowRequest::serialize() const {
  Writer w;
  w.u64le(escrow_id);
  return std::move(w).take();
}

std::optional<QueryEscrowRequest> QueryEscrowRequest::deserialize(ByteSpan data) {
  Reader r(data);
  auto id = r.u64le();
  if (!id || !r.at_end()) return std::nullopt;
  return QueryEscrowRequest{*id};
}

Bytes GetReceiptRequest::serialize() const {
  Writer w;
  w.u64le(request_id);
  return std::move(w).take();
}

std::optional<GetReceiptRequest> GetReceiptRequest::deserialize(ByteSpan data) {
  Reader r(data);
  auto id = r.u64le();
  if (!id || !r.at_end()) return std::nullopt;
  return GetReceiptRequest{*id};
}

Bytes FastPayResultResponse::serialize() const {
  Writer w;
  w.u8(accepted ? 1 : 0);
  w.u16le(static_cast<std::uint16_t>(code));
  w.str_with_len(reason);
  w.u64le(reservation_id);
  return std::move(w).take();
}

std::optional<FastPayResultResponse> FastPayResultResponse::deserialize(ByteSpan data) {
  Reader r(data);
  auto accepted = r.u8();
  auto code = r.u16le();
  auto reason = r.str_with_len(kMaxReasonLen);
  auto rid = r.u64le();
  if (!accepted || !code || !reason || !rid || !r.at_end()) return std::nullopt;
  if (*accepted > 1) return std::nullopt;
  auto parsed = parse_reason(*code);
  if (!parsed) return std::nullopt;
  FastPayResultResponse out;
  out.accepted = *accepted == 1;
  out.code = *parsed;
  out.reason = std::move(*reason);
  out.reservation_id = *rid;
  return out;
}

Bytes EscrowInfoResponse::serialize() const {
  Writer w;
  w.u8(found ? 1 : 0);
  w.u64le(state);
  w.u64le(collateral);
  w.u64le(reserved);
  w.u64le(unlock_time_ms);
  return std::move(w).take();
}

std::optional<EscrowInfoResponse> EscrowInfoResponse::deserialize(ByteSpan data) {
  Reader r(data);
  auto found = r.u8();
  auto state = r.u64le();
  auto collateral = r.u64le();
  auto reserved = r.u64le();
  auto unlock = r.u64le();
  if (!found || !state || !collateral || !reserved || !unlock || !r.at_end()) {
    return std::nullopt;
  }
  if (*found > 1) return std::nullopt;
  EscrowInfoResponse out;
  out.found = *found == 1;
  out.state = *state;
  out.collateral = *collateral;
  out.reserved = *reserved;
  out.unlock_time_ms = *unlock;
  return out;
}

Bytes ReceiptInfoResponse::serialize() const {
  Writer w;
  w.u8(found ? 1 : 0);
  w.u8(accepted ? 1 : 0);
  w.u16le(static_cast<std::uint16_t>(code));
  w.u64le(decided_at_ms);
  return std::move(w).take();
}

std::optional<ReceiptInfoResponse> ReceiptInfoResponse::deserialize(ByteSpan data) {
  Reader r(data);
  auto found = r.u8();
  auto accepted = r.u8();
  auto code = r.u16le();
  auto at = r.u64le();
  if (!found || !accepted || !code || !at || !r.at_end()) return std::nullopt;
  if (*found > 1 || *accepted > 1) return std::nullopt;
  auto parsed = parse_reason(*code);
  if (!parsed) return std::nullopt;
  ReceiptInfoResponse out;
  out.found = *found == 1;
  out.accepted = *accepted == 1;
  out.code = *parsed;
  out.decided_at_ms = *at;
  return out;
}

Bytes RetryAfterResponse::serialize() const {
  Writer w;
  w.u64le(retry_after_ms);
  w.u64le(queue_depth);
  return std::move(w).take();
}

std::optional<RetryAfterResponse> RetryAfterResponse::deserialize(ByteSpan data) {
  Reader r(data);
  auto after = r.u64le();
  auto depth = r.u64le();
  if (!after || !depth || !r.at_end()) return std::nullopt;
  return RetryAfterResponse{*after, *depth};
}

Bytes ErrorResponse::serialize() const {
  Writer w;
  w.u16le(static_cast<std::uint16_t>(code));
  w.str_with_len(message);
  return std::move(w).take();
}

std::optional<ErrorResponse> ErrorResponse::deserialize(ByteSpan data) {
  Reader r(data);
  auto code = r.u16le();
  auto msg = r.str_with_len(kMaxReasonLen);
  if (!code || !msg || !r.at_end()) return std::nullopt;
  auto parsed = parse_reason(*code);
  if (!parsed) return std::nullopt;
  ErrorResponse out;
  out.code = *parsed;
  out.message = std::move(*msg);
  return out;
}

}  // namespace btcfast::gateway
