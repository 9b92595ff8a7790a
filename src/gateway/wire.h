// Gateway wire protocol: length-prefixed binary frames carrying fast-pay
// requests and responses. A frame is
//
//   u32le magic | u8 type | u64le request_id | varint len | payload
//
// and every payload is itself a fixed Writer/Reader encoding. Decoders are
// total: any byte sequence either parses into a value or returns nullopt —
// no exceptions, no unbounded allocation (announced lengths are capped) —
// so they can sit directly on an untrusted socket and in the fuzzer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "btcfast/protocol.h"
#include "common/serialize.h"

namespace btcfast::gateway {

using core::EscrowId;
using core::RejectReason;

/// Frame magic ("FPG1") — rejects cross-protocol garbage immediately.
inline constexpr std::uint32_t kWireMagic = 0x46504731;

/// Hard cap on a frame payload. A fast-pay package is a few KB; anything
/// approaching a megabyte is hostile or corrupt.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// Message discriminants. Requests are < 0x80, responses have the high
/// bit set.
enum class MsgType : std::uint8_t {
  kSubmitFastPay = 0x01,
  kQueryEscrow = 0x02,
  kGetReceipt = 0x03,
  kFastPayResult = 0x81,
  kEscrowInfo = 0x82,
  kReceiptInfo = 0x83,
  kRetryAfter = 0x90,  ///< overload shed: resubmit after the hinted delay
  kError = 0x91,       ///< malformed frame / unknown type
};

/// A decoded frame envelope. `request_id` is caller-chosen and echoed in
/// the response so clients can pipeline requests on one connection.
struct Frame {
  MsgType type = MsgType::kError;
  std::uint64_t request_id = 0;
  Bytes payload;

  [[nodiscard]] Bytes serialize() const;
  /// Strict decode: magic, known type, in-cap payload length, no trailing
  /// bytes. Returns nullopt on any violation.
  [[nodiscard]] static std::optional<Frame> deserialize(ByteSpan data);
};

// ---- Request payloads -------------------------------------------------

struct SubmitFastPayRequest {
  std::uint64_t invoice_id = 0;
  core::FastPayPackage package;
  /// The package's encoding as the frame carried it, kept by
  /// deserialize() for the accept's WAL record; serialize() encodes
  /// `package` and ignores it.
  Bytes package_bytes;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<SubmitFastPayRequest> deserialize(ByteSpan data);
};

struct QueryEscrowRequest {
  EscrowId escrow_id = 0;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<QueryEscrowRequest> deserialize(ByteSpan data);
};

struct GetReceiptRequest {
  std::uint64_t request_id = 0;  ///< the SubmitFastPay frame's request_id

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<GetReceiptRequest> deserialize(ByteSpan data);
};

// ---- Response payloads ------------------------------------------------

struct FastPayResultResponse {
  bool accepted = false;
  RejectReason code = RejectReason::kNone;
  std::string reason;               ///< human diagnostic, bounded
  std::uint64_t reservation_id = 0; ///< nonzero iff accepted

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<FastPayResultResponse> deserialize(ByteSpan data);
};

struct EscrowInfoResponse {
  bool found = false;
  std::uint64_t state = 0;       ///< core::EscrowState as integer
  std::uint64_t collateral = 0;
  std::uint64_t reserved = 0;    ///< on-chain + gateway-local reservations
  std::uint64_t unlock_time_ms = 0;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<EscrowInfoResponse> deserialize(ByteSpan data);
};

struct ReceiptInfoResponse {
  bool found = false;
  bool accepted = false;
  RejectReason code = RejectReason::kNone;
  std::uint64_t decided_at_ms = 0;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<ReceiptInfoResponse> deserialize(ByteSpan data);
};

struct RetryAfterResponse {
  std::uint64_t retry_after_ms = 0;
  std::uint64_t queue_depth = 0;  ///< in-flight requests at shed time

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<RetryAfterResponse> deserialize(ByteSpan data);
};

struct ErrorResponse {
  RejectReason code = RejectReason::kMalformedFrame;
  std::string message;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<ErrorResponse> deserialize(ByteSpan data);
};

/// Convenience: wrap an encoded payload in a frame.
[[nodiscard]] Bytes make_frame(MsgType type, std::uint64_t request_id, Bytes payload);

}  // namespace btcfast::gateway
