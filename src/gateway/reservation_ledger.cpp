#include "gateway/reservation_ledger.h"

#include <algorithm>

namespace btcfast::gateway {

ReservationLedger::ReservationLedger(std::size_t stripes, std::atomic<ReservationId>* shared_ids)
    : stripes_(std::clamp<std::size_t>(stripes, 1, 256)),
      next_id_(shared_ids != nullptr ? shared_ids : &own_next_id_) {}

void ReservationLedger::upsert_escrow(EscrowId id, const EscrowView& view) {
  Stripe& s = stripe_for(id);
  std::lock_guard<std::mutex> lock(s.mu);
  s.escrows[id].view = view;  // local_reserved / reservations survive
}

void ReservationLedger::erase_escrow(EscrowId id) {
  Stripe& s = stripe_for(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.escrows.find(id);
  if (it == s.escrows.end()) return;
  for (const auto& [rid, res] : it->second.reservations) s.by_id.erase(rid);
  s.escrows.erase(it);
}

std::unordered_map<ReservationId, ReservationLedger::Reservation>::iterator
ReservationLedger::erase_reservation(Stripe& s, Entry& e,
                                     std::unordered_map<ReservationId, Reservation>::iterator it) {
  e.local_reserved -= it->second.amount;
  if (it->second.payment) {
    const auto held = e.by_payment.find(*it->second.payment);
    if (held != e.by_payment.end() && held->second == it->first) e.by_payment.erase(held);
  }
  s.by_id.erase(it->first);
  return e.reservations.erase(it);
}

std::optional<ReservationId> ReservationLedger::try_reserve(
    EscrowId id, psc::Value amount, std::uint64_t expires_at_ms, psc::Value exposure_cap,
    core::RejectReason* deny_reason, const std::optional<btc::Txid>& payment) {
  Stripe& s = stripe_for(id);
  auto deny = [&](core::RejectReason why) -> std::optional<ReservationId> {
    if (deny_reason) *deny_reason = why;
    denied_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.escrows.find(id);
  if (it == s.escrows.end()) return deny(core::RejectReason::kEscrowLookupFailed);
  Entry& e = it->second;
  if (payment && e.by_payment.contains(*payment)) {
    return deny(core::RejectReason::kDuplicatePayment);
  }
  if (e.view.state != core::EscrowState::kActive) {
    return deny(core::RejectReason::kEscrowNotActive);
  }
  if (e.view.unlock_time_ms < expires_at_ms) {
    return deny(core::RejectReason::kEscrowUnlocksTooSoon);
  }
  // Coverage against the authoritative snapshot: everything already
  // pledged (on-chain reservations plus our own live grants) plus this
  // request must fit in the collateral. `amount` is attacker-chosen, so
  // the comparisons subtract from the collateral instead of summing —
  // a near-2^64 request must not wrap the total past the check.
  if (amount > e.view.collateral ||
      e.view.reserved > e.view.collateral - amount ||
      e.local_reserved > e.view.collateral - amount - e.view.reserved) {
    return deny(core::RejectReason::kInsufficientCollateral);
  }
  if (exposure_cap > 0 &&
      (amount > exposure_cap || e.local_reserved > exposure_cap - amount)) {
    return deny(core::RejectReason::kExposureCap);
  }
  const ReservationId rid =
      (next_id_->fetch_add(1, std::memory_order_relaxed) << 8) | affinity(id);
  e.local_reserved += amount;
  e.reservations.emplace(rid, Reservation{id, amount, expires_at_ms, payment});
  if (payment) e.by_payment.emplace(*payment, rid);
  s.by_id.emplace(rid, id);
  granted_.fetch_add(1, std::memory_order_relaxed);
  return rid;
}

bool ReservationLedger::holds(EscrowId id, const btc::Txid& payment) const {
  const Stripe& s = stripe_for(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.escrows.find(id);
  return it != s.escrows.end() && it->second.by_payment.contains(payment);
}

std::optional<ReservationId> ReservationLedger::release_payment(EscrowId id,
                                                                const btc::Txid& payment) {
  Stripe& s = stripe_for(id);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto esc = s.escrows.find(id);
  if (esc == s.escrows.end()) return std::nullopt;
  Entry& e = esc->second;
  const auto held = e.by_payment.find(payment);
  if (held == e.by_payment.end()) return std::nullopt;
  const ReservationId rid = held->second;
  erase_reservation(s, e, e.reservations.find(rid));
  released_.fetch_add(1, std::memory_order_relaxed);
  return rid;
}

bool ReservationLedger::release(ReservationId id) {
  // The low byte is the escrow's affinity byte, so affinity % stripes
  // lands on the same stripe stripe_for(escrow_id) would.
  Stripe& s = stripes_[(id & 0xff) % stripes_.size()];
  std::lock_guard<std::mutex> lock(s.mu);
  auto by = s.by_id.find(id);
  if (by == s.by_id.end()) return false;
  auto esc = s.escrows.find(by->second);
  s.by_id.erase(by);
  if (esc == s.escrows.end()) return false;
  auto res = esc->second.reservations.find(id);
  if (res == esc->second.reservations.end()) return false;
  erase_reservation(s, esc->second, res);
  released_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t ReservationLedger::expire_due(std::uint64_t now_ms,
                                          std::vector<ReservationId>* expired) {
  std::size_t dropped = 0;
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto& [eid, entry] : s.escrows) {
      for (auto it = entry.reservations.begin(); it != entry.reservations.end();) {
        if (it->second.expires_at_ms <= now_ms) {
          if (expired != nullptr) expired->push_back(it->first);
          it = erase_reservation(s, entry, it);
          ++dropped;
        } else {
          ++it;
        }
      }
    }
  }
  expired_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

bool ReservationLedger::restore_reservation(ReservationId id, EscrowId escrow_id,
                                            psc::Value amount, std::uint64_t expires_at_ms,
                                            const std::optional<btc::Txid>& payment) {
  Stripe& s = stripe_for(escrow_id);
  // Ids embed their escrow's affinity byte (see try_reserve); release()
  // routes by it, so an id that disagrees with its claimed escrow is a
  // corrupt or foreign record. The check is geometry-independent: a log
  // written under any stripe/shard count restores anywhere.
  if ((id & 0xff) != affinity(escrow_id)) return false;
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.by_id.contains(id)) return false;
  Entry& e = s.escrows[escrow_id];  // default view until reconcile refreshes it
  e.local_reserved += amount;
  e.reservations.emplace(id, Reservation{escrow_id, amount, expires_at_ms, payment});
  // A log written before the replay guard may hold two reservations for
  // one payment; both restore, and the first keys the guard.
  if (payment) e.by_payment.emplace(*payment, id);
  s.by_id.emplace(id, escrow_id);
  // Keep fresh grants collision-free with every restored id.
  const ReservationId counter = (id >> 8) + 1;
  ReservationId cur = next_id_->load(std::memory_order_relaxed);
  while (counter > cur &&
         !next_id_->compare_exchange_weak(cur, counter, std::memory_order_relaxed)) {
  }
  return true;
}

void ReservationLedger::reconcile(const std::vector<std::pair<EscrowId, EscrowView>>& views) {
  for (const auto& [id, view] : views) upsert_escrow(id, view);
}

std::optional<ReservationLedger::EscrowSnapshot> ReservationLedger::snapshot(EscrowId id) const {
  const Stripe& s = stripe_for(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.escrows.find(id);
  if (it == s.escrows.end()) return std::nullopt;
  EscrowSnapshot out;
  out.view = it->second.view;
  out.local_reserved = it->second.local_reserved;
  out.live_reservations = it->second.reservations.size();
  return out;
}

std::optional<ReservationLedger::Reservation> ReservationLedger::find(ReservationId id) const {
  const Stripe& s = stripes_[(id & 0xff) % stripes_.size()];
  std::lock_guard<std::mutex> lock(s.mu);
  auto by = s.by_id.find(id);
  if (by == s.by_id.end()) return std::nullopt;
  auto esc = s.escrows.find(by->second);
  if (esc == s.escrows.end()) return std::nullopt;
  auto res = esc->second.reservations.find(id);
  if (res == esc->second.reservations.end()) return std::nullopt;
  return res->second;
}

}  // namespace btcfast::gateway
