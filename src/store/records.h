// WAL record schemas: one record per mutating gateway/watchtower event.
// The store layer is deliberately protocol-blind — payloads carry raw
// ids, values, 32-byte txids and opaque serialized blobs, never core
// protocol structs, so btcfast_store depends only on btcfast_common and
// both the gateway and the core (watchtower/orchestrator) can link it.
// Protocol-aware layers encode/decode the opaque fields.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"

namespace btcfast::store {

using EscrowId = std::uint64_t;
using ReservationId = std::uint64_t;

/// The mutating events the durable store logs.
enum class RecordKind : std::uint8_t {
  kReserve = 1,        ///< gateway accepted a payment: its hold and its evidence
  kRelease = 2,        ///< reservation released (settled/judged/expired/rejected)
  // 3 is retired (a second, flush-time accept record) and fails to decode.
  kDisputeOpen = 4,    ///< watchtower observed an escrow enter DISPUTED
  kDisputeResolve = 5, ///< watchtower observed the dispute leave DISPUTED
  kEpochChange = 6,    ///< replication: a newly promoted primary took over
  kHeaderAccept = 7,   ///< watchtower header sync connected a BTC header
};

/// Why a reservation was released (kRelease only).
enum class ReleaseCause : std::uint8_t {
  kResolved = 0,  ///< payment settled on BTC or judged on PSC
  kExpired = 1,   ///< binding expiry passed; no longer disputable
  kRejected = 2,  ///< reserve was rolled back before the accept completed
};

/// One logged event. Only the fields relevant to `kind` are serialized;
/// the rest stay at their defaults so operator== works across a
/// round-trip.
struct StoreRecord {
  RecordKind kind = RecordKind::kReserve;

  // kReserve / kRelease
  ReservationId reservation_id = 0;
  EscrowId escrow_id = 0;
  std::uint64_t amount = 0;         ///< compensation locked against the escrow
  std::uint64_t expires_at_ms = 0;  ///< binding expiry (kReserve) / dispute deadline
  ByteArray<32> txid{};             ///< bound BTC payment txid
  ReleaseCause cause = ReleaseCause::kResolved;

  // kReserve: when the payment was accepted, and the opaque
  // core::FastPayPackage / invoice encodings the merchant disputes with.
  std::uint64_t accepted_at_ms = 0;
  Bytes package;
  Bytes invoice;

  // kEpochChange: the epoch the promoted primary now writes under.
  std::uint64_t epoch = 0;

  // kHeaderAccept: the raw 80-byte BTC block header that connected.
  ByteArray<80> header{};

  [[nodiscard]] Bytes serialize() const;
  /// Total decoder: nullopt on any truncation, trailing garbage, unknown
  /// kind or out-of-range enum value.
  [[nodiscard]] static std::optional<StoreRecord> deserialize(ByteSpan data);

  [[nodiscard]] bool operator==(const StoreRecord& o) const = default;
};

}  // namespace btcfast::store
