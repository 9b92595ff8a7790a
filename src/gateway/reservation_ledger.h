// Sharded in-memory reservation ledger: the gateway's defence against
// concurrent overcommit. Two fast-pays racing against the same escrow
// both pass the merchant's read-only evaluation (each sees the full
// collateral); the ledger is the single serialization point that makes
// exactly one of them win when only one fits.
//
// Escrows are partitioned across lock stripes by id hash, so unrelated
// escrows never contend. Within a stripe, try_reserve checks
//   on-chain reserved + local reservations + amount <= collateral
// (and an optional merchant-side exposure cap) and records the
// reservation atomically under the stripe lock. A reservation keyed by
// its BTC payment txid is refused while another live one on the escrow
// holds that txid, so a replayed package cannot hold collateral twice. The invariant the TSan
// hammer proves: at no instant does the sum of granted local
// reservations plus the on-chain reserved figure exceed collateral.
//
// The ledger works on cached EscrowView snapshots; reconcile() refreshes
// them from PayJudger state each PSC block (and is how a reorg that
// shrinks collateral is noticed: subsequent try_reserves see the smaller
// figure immediately).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "btcfast/payjudger.h"
#include "btcfast/protocol.h"

namespace btcfast::gateway {

using core::EscrowId;
using core::EscrowView;

using ReservationId = std::uint64_t;

class ReservationLedger {
 public:
  /// A granted reservation, released on settle/expiry/reject.
  struct Reservation {
    EscrowId escrow_id = 0;
    psc::Value amount = 0;
    std::uint64_t expires_at_ms = 0;
    std::optional<btc::Txid> payment;  ///< the BTC payment it covers, if keyed
  };

  /// Point-in-time view of one escrow's ledger entry.
  struct EscrowSnapshot {
    EscrowView view;
    psc::Value local_reserved = 0;   ///< sum of live gateway reservations
    std::size_t live_reservations = 0;
  };

  static constexpr std::size_t kDefaultStripes = 16;

  /// `shared_ids`, when non-null, is the reservation-id counter to draw
  /// from instead of a private one. The sharded gateway points every
  /// shard's ledger at one process-wide counter so the ids it hands out
  /// are independent of shard count — a 4-shard gateway serving a frame
  /// sequence produces byte-identical responses to a 1-shard gateway.
  explicit ReservationLedger(std::size_t stripes = kDefaultStripes,
                             std::atomic<ReservationId>* shared_ids = nullptr);

  ReservationLedger(const ReservationLedger&) = delete;
  ReservationLedger& operator=(const ReservationLedger&) = delete;

  /// Install or refresh the cached escrow view. Local reservations are
  /// preserved — a view refresh must not forget exposure the gateway has
  /// already promised against.
  void upsert_escrow(EscrowId id, const EscrowView& view);

  /// Forget an escrow entirely (e.g. judged to empty). Drops its local
  /// reservations too.
  void erase_escrow(EscrowId id);

  /// Atomically reserve `amount` against the escrow if, and only if,
  ///   view.reserved + local_reserved + amount <= view.collateral
  /// and, when `exposure_cap > 0`,
  ///   local_reserved + amount <= exposure_cap
  /// and the escrow is known, ACTIVE, and unlocks after `expires_at_ms`.
  /// A reservation keyed by a `payment` txid is also refused
  /// (kDuplicatePayment) while another live reservation on the escrow
  /// holds that txid: a replayed package never holds collateral twice.
  /// Returns the reservation id, or nullopt without side effects; when
  /// denied and `deny_reason` is non-null it carries the typed cause.
  [[nodiscard]] std::optional<ReservationId> try_reserve(
      EscrowId id, psc::Value amount, std::uint64_t expires_at_ms, psc::Value exposure_cap = 0,
      core::RejectReason* deny_reason = nullptr,
      const std::optional<btc::Txid>& payment = std::nullopt);

  /// Whether a live reservation on the escrow holds the payment's txid.
  [[nodiscard]] bool holds(EscrowId id, const btc::Txid& payment) const;

  /// Release a reservation (payment settled on-chain, or rejected after
  /// reserve). Returns false if the id is unknown — double releases are
  /// loud, not silent no-ops.
  bool release(ReservationId id);

  /// Release the live reservation holding the payment's txid on the
  /// escrow, if any, and return its id.
  std::optional<ReservationId> release_payment(EscrowId id, const btc::Txid& payment);

  /// Drop every reservation whose expires_at_ms <= now. Returns how many
  /// were dropped; when `expired` is non-null the dropped ids are
  /// appended (the durable store logs each as a release). An expired
  /// reservation means the binding itself can no longer be disputed, so
  /// holding collateral for it is pointless.
  std::size_t expire_due(std::uint64_t now_ms, std::vector<ReservationId>* expired = nullptr);

  /// Re-install a reservation recovered from the durable store, creating
  /// the escrow entry if the view hasn't been re-tracked yet (the caller
  /// refreshes views via reconcile right after). Fails if the id's
  /// embedded affinity byte doesn't match the escrow id's (a corrupt or
  /// foreign record), or if the id is already present. Because the
  /// affinity byte is geometry-independent, a log written under any
  /// stripe or shard count restores into any ledger.
  bool restore_reservation(ReservationId id, EscrowId escrow_id, psc::Value amount,
                           std::uint64_t expires_at_ms,
                           const std::optional<btc::Txid>& payment = std::nullopt);

  /// Refresh a batch of escrow views from authoritative contract state
  /// (caller fetches them via MerchantService::escrow_view). Equivalent
  /// to upsert_escrow per entry; named for the PSC-block reconcile loop.
  void reconcile(const std::vector<std::pair<EscrowId, EscrowView>>& views);

  [[nodiscard]] std::optional<EscrowSnapshot> snapshot(EscrowId id) const;
  [[nodiscard]] std::optional<Reservation> find(ReservationId id) const;

  /// Monotonic counters (relaxed; for stats only).
  [[nodiscard]] std::uint64_t total_granted() const noexcept {
    return granted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_denied() const noexcept {
    return denied_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_released() const noexcept {
    return released_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_expired() const noexcept {
    return expired_.load(std::memory_order_relaxed);
  }

  /// The escrow's affinity byte: a geometry-independent hash used as the
  /// low byte of every reservation id granted against it, and by the
  /// gateway to route the escrow to a shard. Deriving stripe (affinity %
  /// stripes) and shard (affinity % shards) from the same byte means a
  /// reservation id alone is enough to find its stripe in any geometry.
  [[nodiscard]] static constexpr std::uint8_t affinity(EscrowId id) noexcept {
    return static_cast<std::uint8_t>((id * 0x9e3779b97f4a7c15ull) >> 56);
  }

 private:
  struct Entry {
    EscrowView view;
    psc::Value local_reserved = 0;
    std::unordered_map<ReservationId, Reservation> reservations;
    /// Payment txid -> the reservation holding it (keyed ones only).
    std::unordered_map<btc::Txid, ReservationId, btc::Hash256Hasher> by_payment;
  };

  // Cache-line sized so stripe locks never false-share.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<EscrowId, Entry> escrows;
    // Reservation ids carry their escrow's affinity byte in the low
    // byte, so release() goes straight to the owning stripe; this map
    // completes the hop from id to escrow entry.
    std::unordered_map<ReservationId, EscrowId> by_id;
  };

  /// Drop a reservation from its entry and stripe (stripe lock held);
  /// returns the entry's next reservation.
  static std::unordered_map<ReservationId, Reservation>::iterator erase_reservation(
      Stripe& s, Entry& e, std::unordered_map<ReservationId, Reservation>::iterator it);

  [[nodiscard]] Stripe& stripe_for(EscrowId id) noexcept {
    return stripes_[affinity(id) % stripes_.size()];
  }
  [[nodiscard]] const Stripe& stripe_for(EscrowId id) const noexcept {
    return stripes_[affinity(id) % stripes_.size()];
  }

  std::vector<Stripe> stripes_;
  std::atomic<ReservationId> own_next_id_{1};
  std::atomic<ReservationId>* next_id_;  ///< &own_next_id_ or a shared counter
  std::atomic<std::uint64_t> granted_{0};
  std::atomic<std::uint64_t> denied_{0};
  std::atomic<std::uint64_t> released_{0};
  std::atomic<std::uint64_t> expired_{0};
};

}  // namespace btcfast::gateway
