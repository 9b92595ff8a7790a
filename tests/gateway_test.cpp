// Gateway serving-layer tests: wire decode hardening (every malformed
// shape rejected, every well-formed message round-trips), the sharded
// reservation ledger's overcommit/expiry/reconcile semantics, and the
// full request pipeline against a live deployment — accept, typed
// rejects, receipts, admission shed, and batch/sequential parity.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <thread>

#include "btcfast/customer.h"
#include "btcfast/orchestrator.h"
#include "common/thread_pool.h"
#include "crypto/ecdsa.h"
#include "gateway/pipeline.h"
#include "gateway/reservation_ledger.h"
#include "gateway/stats.h"
#include "gateway/wire.h"
#include "stats_doc.h"

namespace btcfast::gateway {
namespace {

using core::RejectReason;

// ------------------------------------------------------------------ wire

/// A genuinely valid FastPayPackage without a full deployment (same idiom
/// as the parser fuzzer): wallet-signed, never evaluated.
core::FastPayPackage sample_package() {
  const sim::Party party = sim::Party::make(77);
  core::Invoice inv;
  inv.amount_sat = btc::kCoin;
  inv.compensation = 1000;
  inv.pay_to = party.script;
  inv.merchant_psc = psc::Address::from_label("m");
  inv.expires_at_ms = 1000000;
  core::CustomerWallet wallet(party, psc::Address::from_label("c"), 1);
  btc::OutPoint coin;
  coin.txid.bytes[0] = 0x42;
  return wallet.create_fastpay(inv, coin, 2 * btc::kCoin, 0, 1000000);
}

TEST(GatewayWire, FrameRoundTrip) {
  Frame f;
  f.type = MsgType::kSubmitFastPay;
  f.request_id = 0xdeadbeefcafe;
  f.payload = {1, 2, 3, 4, 5};
  const auto back = Frame::deserialize(f.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, f.type);
  EXPECT_EQ(back->request_id, f.request_id);
  EXPECT_EQ(back->payload, f.payload);
}

TEST(GatewayWire, FrameRejectsBadMagic) {
  auto bytes = make_frame(MsgType::kQueryEscrow, 7, {});
  bytes[0] ^= 0xff;
  EXPECT_FALSE(Frame::deserialize(bytes).has_value());
}

TEST(GatewayWire, FrameRejectsUnknownType) {
  Writer w;
  w.u32le(kWireMagic);
  w.u8(0x7f);  // not a MsgType
  w.u64le(1);
  w.varint(0);
  EXPECT_FALSE(Frame::deserialize(std::move(w).take()).has_value());
}

TEST(GatewayWire, FrameRejectsEveryTruncation) {
  const auto full = make_frame(MsgType::kGetReceipt, 9, {0xaa, 0xbb});
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(Frame::deserialize({full.data(), len}).has_value()) << "prefix len " << len;
  }
  EXPECT_TRUE(Frame::deserialize(full).has_value());
}

TEST(GatewayWire, FrameRejectsTrailingBytes) {
  auto bytes = make_frame(MsgType::kGetReceipt, 9, {0xaa});
  bytes.push_back(0x00);
  EXPECT_FALSE(Frame::deserialize(bytes).has_value());
}

TEST(GatewayWire, FrameRejectsOversizedPayloadAnnouncement) {
  // Header announces a payload over the cap; decoder must refuse before
  // attempting the (absent, absurd) allocation.
  Writer w;
  w.u32le(kWireMagic);
  w.u8(static_cast<std::uint8_t>(MsgType::kSubmitFastPay));
  w.u64le(1);
  w.varint(kMaxFramePayload + 1);
  EXPECT_FALSE(Frame::deserialize(std::move(w).take()).has_value());
}

TEST(GatewayWire, SubmitFastPayRoundTrip) {
  SubmitFastPayRequest req;
  req.invoice_id = 31337;
  req.package = sample_package();
  const auto back = SubmitFastPayRequest::deserialize(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->invoice_id, req.invoice_id);
  EXPECT_EQ(back->package.binding, req.package.binding);
  EXPECT_EQ(back->package.payment_tx, req.package.payment_tx);
}

TEST(GatewayWire, FastPayPackageRoundTripsItsRParityHints) {
  namespace secp = crypto::secp;
  using crypto::U256;
  const auto pkg = sample_package();
  ASSERT_EQ(pkg.r_parity.size(), 1 + pkg.payment_tx.inputs.size());
  const auto back = core::FastPayPackage::deserialize(pkg.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->r_parity, pkg.r_parity);
  EXPECT_EQ(back->binding, pkg.binding);
  EXPECT_EQ(back->payment_tx, pkg.payment_tx);
  // Each bit lifts its signature's r to the point a verifier recomputes.
  const sim::Party party = sim::Party::make(77);
  const auto check = [&](const ByteArray<64>& sig_bytes, const crypto::Sha256Digest& digest,
                         std::uint8_t bit) {
    const auto sig = *crypto::Signature::parse({sig_bytes.data(), sig_bytes.size()});
    const U256 w = secp::ninv(sig.s);
    const U256 z = secp::nreduce(U256::from_be_bytes({digest.data(), digest.size()}));
    const auto r = secp::to_affine(secp::double_scalar_mul(
        secp::nmul(z, w), secp::nmul(sig.r, w), party.pub.point()));
    EXPECT_EQ(secp::lift_x(sig.r, bit == 1), r);
  };
  check(pkg.binding.customer_sig, pkg.binding.binding.signing_digest(), pkg.r_parity[0]);
  check(pkg.payment_tx.inputs[0].script_sig.signature,
        pkg.payment_tx.signature_hash(0, party.script), pkg.r_parity[1]);

  // Without hints the package encodes exactly as before the field
  // existed, and such an encoding decodes with none.
  auto plain = pkg;
  plain.r_parity.clear();
  Writer w;
  w.bytes_with_len(pkg.payment_tx.serialize());
  w.bytes_with_len(pkg.binding.serialize());
  EXPECT_EQ(plain.serialize(), w.data());
  const auto old = core::FastPayPackage::deserialize(w.data());
  ASSERT_TRUE(old.has_value());
  EXPECT_TRUE(old->r_parity.empty());
}

TEST(GatewayWire, FastPayPackageParityFieldFailsClosed) {
  auto plain = sample_package();
  plain.r_parity.clear();
  const Bytes head = plain.serialize();
  const auto with = [&head](std::initializer_list<std::uint8_t> tail) {
    Bytes b = head;
    b.insert(b.end(), tail);
    return core::FastPayPackage::deserialize(b);
  };
  // One input: exactly two bits, in one byte.
  for (std::uint8_t bits = 0; bits < 4; ++bits) {
    const auto ok = with({2, bits});
    ASSERT_TRUE(ok.has_value()) << int{bits};
    EXPECT_EQ(ok->r_parity, (std::vector<std::uint8_t>{std::uint8_t(bits & 1),
                                                       std::uint8_t(bits >> 1)}));
  }
  EXPECT_FALSE(with({0}).has_value());           // a present field holds no bits
  EXPECT_FALSE(with({1, 0}).has_value());        // fewer bits than signatures
  EXPECT_FALSE(with({3, 0}).has_value());        // more bits than signatures
  EXPECT_FALSE(with({2, 0x04}).has_value());     // a stray bit past the count
  EXPECT_FALSE(with({2}).has_value());           // the bit byte is missing
  EXPECT_FALSE(with({2, 0, 0}).has_value());     // trailing bytes
  EXPECT_FALSE(with({0xfd, 2, 0, 0}).has_value());  // non-minimal count
}

TEST(GatewayWire, RequestAndResponseRoundTrips) {
  {
    QueryEscrowRequest q{42};
    const auto back = QueryEscrowRequest::deserialize(q.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->escrow_id, 42u);
  }
  {
    GetReceiptRequest g{99};
    const auto back = GetReceiptRequest::deserialize(g.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->request_id, 99u);
  }
  {
    FastPayResultResponse r;
    r.accepted = false;
    r.code = RejectReason::kUnderpayment;
    r.reason = "payment output below invoice amount";
    r.reservation_id = 0;
    const auto back = FastPayResultResponse::deserialize(r.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(back->accepted);
    EXPECT_EQ(back->code, RejectReason::kUnderpayment);
    EXPECT_EQ(back->reason, r.reason);
  }
  {
    EscrowInfoResponse e;
    e.found = true;
    e.state = 1;
    e.collateral = 500;
    e.reserved = 120;
    e.unlock_time_ms = 777;
    const auto back = EscrowInfoResponse::deserialize(e.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->found);
    EXPECT_EQ(back->reserved, 120u);
    EXPECT_EQ(back->unlock_time_ms, 777u);
  }
  {
    ReceiptInfoResponse rc;
    rc.found = true;
    rc.accepted = true;
    rc.code = RejectReason::kNone;
    rc.decided_at_ms = 123456;
    const auto back = ReceiptInfoResponse::deserialize(rc.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->found);
    EXPECT_TRUE(back->accepted);
    EXPECT_EQ(back->decided_at_ms, 123456u);
  }
  {
    RetryAfterResponse ra{50, 9};
    const auto back = RetryAfterResponse::deserialize(ra.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->retry_after_ms, 50u);
    EXPECT_EQ(back->queue_depth, 9u);
  }
  {
    ErrorResponse err;
    err.code = RejectReason::kMalformedFrame;
    err.message = "undecodable frame";
    const auto back = ErrorResponse::deserialize(err.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->code, RejectReason::kMalformedFrame);
    EXPECT_EQ(back->message, err.message);
  }
}

TEST(GatewayWire, ResponsesRejectOutOfRangeEnums) {
  // Reason code at/above the sentinel.
  {
    Writer w;
    w.u8(0);
    w.u16le(static_cast<std::uint16_t>(RejectReason::kMaxReason));
    w.str_with_len("");
    w.u64le(0);
    EXPECT_FALSE(FastPayResultResponse::deserialize(std::move(w).take()).has_value());
  }
  // Bool encoded as 2.
  {
    Writer w;
    w.u8(2);
    w.u16le(0);
    w.str_with_len("");
    w.u64le(0);
    EXPECT_FALSE(FastPayResultResponse::deserialize(std::move(w).take()).has_value());
  }
  {
    Writer w;
    w.u8(2);  // found
    w.u64le(0);
    w.u64le(0);
    w.u64le(0);
    w.u64le(0);
    EXPECT_FALSE(EscrowInfoResponse::deserialize(std::move(w).take()).has_value());
  }
  {
    Writer w;
    w.u16le(999);  // nonsense reason
    w.str_with_len("x");
    EXPECT_FALSE(ErrorResponse::deserialize(std::move(w).take()).has_value());
  }
}

TEST(GatewayWire, ReasonStringLengthBounded) {
  FastPayResultResponse r;
  r.reason = std::string(300, 'x');  // over the 256-byte wire cap
  EXPECT_FALSE(FastPayResultResponse::deserialize(r.serialize()).has_value());
}

// ---------------------------------------------------------------- ledger

core::EscrowView active_view(psc::Value collateral, psc::Value reserved = 0,
                             std::uint64_t unlock_time_ms = 1'000'000) {
  core::EscrowView v;
  v.state = core::EscrowState::kActive;
  v.collateral = collateral;
  v.reserved = reserved;
  v.unlock_time_ms = unlock_time_ms;
  return v;
}

TEST(ReservationLedger, ReserveThenRelease) {
  ReservationLedger ledger(4);
  ledger.upsert_escrow(1, active_view(100));
  const auto rid = ledger.try_reserve(1, 60, 500);
  ASSERT_TRUE(rid.has_value());

  auto snap = ledger.snapshot(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, 60u);
  EXPECT_EQ(snap->live_reservations, 1u);

  const auto res = ledger.find(*rid);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->escrow_id, 1u);
  EXPECT_EQ(res->amount, 60u);
  EXPECT_EQ(res->expires_at_ms, 500u);

  EXPECT_TRUE(ledger.release(*rid));
  snap = ledger.snapshot(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, 0u);
  EXPECT_EQ(ledger.total_granted(), 1u);
  EXPECT_EQ(ledger.total_released(), 1u);
}

TEST(ReservationLedger, PaymentKeyHoldsOnceUntilReleasedOrExpired) {
  // A reservation keyed by a payment txid refuses a second hold for that
  // txid on the escrow, and the key goes with the hold on every path out
  // of the ledger: release, release_payment and expiry.
  ReservationLedger ledger(4);
  ledger.upsert_escrow(1, active_view(100));
  ledger.upsert_escrow(2, active_view(100));
  btc::Txid a;
  a.bytes[0] = 0xaa;
  btc::Txid b;
  b.bytes[0] = 0xbb;

  RejectReason why = RejectReason::kNone;
  const auto first = ledger.try_reserve(1, 10, 500, 0, &why, a);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(ledger.holds(1, a));
  EXPECT_FALSE(ledger.holds(2, a));
  EXPECT_FALSE(ledger.try_reserve(1, 10, 500, 0, &why, a).has_value());
  EXPECT_EQ(why, RejectReason::kDuplicatePayment);
  EXPECT_EQ(ledger.snapshot(1)->local_reserved, 10u);
  // Unkeyed holds and other payments are unaffected.
  EXPECT_TRUE(ledger.try_reserve(1, 10, 500).has_value());
  EXPECT_TRUE(ledger.try_reserve(1, 10, 500, 0, nullptr, b).has_value());

  EXPECT_TRUE(ledger.release(*first));
  EXPECT_FALSE(ledger.holds(1, a));
  const auto second = ledger.try_reserve(1, 10, /*expires_at_ms=*/400, 0, nullptr, a);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(ledger.release_payment(1, a), second);
  EXPECT_EQ(ledger.release_payment(1, a), std::nullopt);

  ASSERT_TRUE(ledger.try_reserve(1, 10, /*expires_at_ms=*/400, 0, nullptr, a).has_value());
  EXPECT_EQ(ledger.expire_due(400), 1u);
  EXPECT_FALSE(ledger.holds(1, a));
  EXPECT_TRUE(ledger.holds(1, b));
  EXPECT_EQ(ledger.snapshot(1)->local_reserved, 20u);
}

TEST(ReservationLedger, DoubleReleaseIsLoud) {
  ReservationLedger ledger;
  ledger.upsert_escrow(1, active_view(100));
  const auto rid = ledger.try_reserve(1, 10, 500);
  ASSERT_TRUE(rid.has_value());
  EXPECT_TRUE(ledger.release(*rid));
  EXPECT_FALSE(ledger.release(*rid));  // second release: loud failure
  EXPECT_FALSE(ledger.release(0xdead00));  // never-granted id
  EXPECT_EQ(ledger.total_released(), 1u);
}

TEST(ReservationLedger, TypedDenials) {
  ReservationLedger ledger;
  RejectReason why = RejectReason::kNone;

  EXPECT_FALSE(ledger.try_reserve(5, 1, 10, 0, &why).has_value());
  EXPECT_EQ(why, RejectReason::kEscrowLookupFailed);

  auto disputed = active_view(100);
  disputed.state = core::EscrowState::kDisputed;
  ledger.upsert_escrow(6, disputed);
  EXPECT_FALSE(ledger.try_reserve(6, 1, 10, 0, &why).has_value());
  EXPECT_EQ(why, RejectReason::kEscrowNotActive);

  EXPECT_EQ(ledger.total_denied(), 2u);
}

TEST(ReservationLedger, UnlockTimeEdge) {
  ReservationLedger ledger;
  ledger.upsert_escrow(1, active_view(100, 0, /*unlock_time_ms=*/1000));
  RejectReason why = RejectReason::kNone;

  // Reservation expiring exactly at unlock still fits (the dispute window
  // closes no later than the collateral unlocks)...
  EXPECT_TRUE(ledger.try_reserve(1, 1, /*expires_at_ms=*/1000).has_value());
  // ...one millisecond past it does not.
  EXPECT_FALSE(ledger.try_reserve(1, 1, 1001, 0, &why).has_value());
  EXPECT_EQ(why, RejectReason::kEscrowUnlocksTooSoon);
}

TEST(ReservationLedger, ExactCollateralFitThenDenied) {
  ReservationLedger ledger;
  // 20 already reserved on-chain; 80 of local headroom remains.
  ledger.upsert_escrow(1, active_view(100, /*reserved=*/20));
  RejectReason why = RejectReason::kNone;

  EXPECT_TRUE(ledger.try_reserve(1, 50, 500).has_value());
  EXPECT_TRUE(ledger.try_reserve(1, 30, 500).has_value());  // exact fit
  EXPECT_FALSE(ledger.try_reserve(1, 1, 500, 0, &why).has_value());
  EXPECT_EQ(why, RejectReason::kInsufficientCollateral);

  const auto snap = ledger.snapshot(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->view.reserved + snap->local_reserved, snap->view.collateral);
}

TEST(ReservationLedger, ExposureCapDeniedBeforeCollateralExhausted) {
  ReservationLedger ledger;
  ledger.upsert_escrow(1, active_view(1000));
  RejectReason why = RejectReason::kNone;

  EXPECT_TRUE(ledger.try_reserve(1, 50, 500, /*exposure_cap=*/50).has_value());
  EXPECT_FALSE(ledger.try_reserve(1, 1, 500, 50, &why).has_value());
  EXPECT_EQ(why, RejectReason::kExposureCap);
  // Uncapped call against the same escrow still fits — the cap is a
  // per-merchant policy, not a property of the escrow.
  EXPECT_TRUE(ledger.try_reserve(1, 1, 500).has_value());
}

TEST(ReservationLedger, ExpiryAtDeadlineEdge) {
  ReservationLedger ledger;
  ledger.upsert_escrow(1, active_view(100));
  const auto rid = ledger.try_reserve(1, 40, /*expires_at_ms=*/5000);
  ASSERT_TRUE(rid.has_value());

  // One tick before the deadline: still alive.
  EXPECT_EQ(ledger.expire_due(4999), 0u);
  EXPECT_TRUE(ledger.find(*rid).has_value());

  // At the deadline: dropped, headroom restored, id now unknown.
  EXPECT_EQ(ledger.expire_due(5000), 1u);
  EXPECT_FALSE(ledger.find(*rid).has_value());
  EXPECT_FALSE(ledger.release(*rid));
  const auto snap = ledger.snapshot(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, 0u);
  EXPECT_EQ(ledger.total_expired(), 1u);
}

TEST(ReservationLedger, NearMaxAmountCannotWrapCoverage) {
  // Regression: with local_reserved = 10, an amount of 2^64 - 10 used to
  // wrap `committed + amount` to 0, granting the reserve and then
  // wrapping local_reserved itself to 0 — erasing all tracked exposure.
  ReservationLedger ledger;
  ledger.upsert_escrow(1, active_view(100));
  ASSERT_TRUE(ledger.try_reserve(1, 10, 500).has_value());

  RejectReason why = RejectReason::kNone;
  const psc::Value huge = std::numeric_limits<psc::Value>::max() - 9;  // 2^64 - 10
  EXPECT_FALSE(ledger.try_reserve(1, huge, 500, 0, &why).has_value());
  EXPECT_EQ(why, RejectReason::kInsufficientCollateral);
  // Exposure cap path is overflow-safe too.
  EXPECT_FALSE(ledger.try_reserve(1, huge, 500, /*exposure_cap=*/50, &why).has_value());
  EXPECT_EQ(why, RejectReason::kInsufficientCollateral);

  const auto snap = ledger.snapshot(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, 10u);

  // A corrupted on-chain figure must not wrap `reserved + local` either.
  ledger.upsert_escrow(2, active_view(100, /*reserved=*/std::numeric_limits<psc::Value>::max()));
  EXPECT_FALSE(ledger.try_reserve(2, 1, 500, 0, &why).has_value());
  EXPECT_EQ(why, RejectReason::kInsufficientCollateral);
}

TEST(ReservationLedger, ReconcileAfterReorgPreservesLocalReservations) {
  ReservationLedger ledger;
  ledger.upsert_escrow(1, active_view(100));
  ASSERT_TRUE(ledger.try_reserve(1, 40, 500).has_value());

  // A PSC reorg shrank the collateral to 60: the refreshed view must not
  // forget the 40 the gateway already promised against.
  ledger.reconcile({{1, active_view(60)}});
  const auto snap = ledger.snapshot(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->view.collateral, 60u);
  EXPECT_EQ(snap->local_reserved, 40u);

  // Headroom is now 20: a 21 overshoots, a 20 fits exactly.
  RejectReason why = RejectReason::kNone;
  EXPECT_FALSE(ledger.try_reserve(1, 21, 500, 0, &why).has_value());
  EXPECT_EQ(why, RejectReason::kInsufficientCollateral);
  EXPECT_TRUE(ledger.try_reserve(1, 20, 500).has_value());
}

TEST(ReservationLedger, EraseEscrowDropsItsReservations) {
  ReservationLedger ledger;
  ledger.upsert_escrow(1, active_view(100));
  const auto rid = ledger.try_reserve(1, 10, 500);
  ASSERT_TRUE(rid.has_value());

  ledger.erase_escrow(1);
  EXPECT_FALSE(ledger.snapshot(1).has_value());
  EXPECT_FALSE(ledger.find(*rid).has_value());
  EXPECT_FALSE(ledger.release(*rid));
}

// ----------------------------------------------------------------- stats

TEST(GatewayStatsTest, HistogramPercentilesAndMean) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record_us(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean_us(), 1000.0);
  // 1000us lands in the [512, 1024) bucket; interpolation stays inside.
  EXPECT_GE(h.percentile_us(50), 512.0);
  EXPECT_LE(h.percentile_us(99), 1024.0);
}

TEST(GatewayStatsTest, CountersAndJson) {
  GatewayStats st;
  st.on_accept(10);
  st.on_reject(RejectReason::kUnderpayment, 5);
  st.on_reject(RejectReason::kUnderpayment, 5);
  st.on_shed();
  EXPECT_EQ(st.accepts(), 1u);
  EXPECT_EQ(st.rejects(), 2u);
  EXPECT_EQ(st.sheds(), 1u);
  EXPECT_EQ(st.rejects_for(RejectReason::kUnderpayment), 2u);
  const std::string json = st.to_json();
  EXPECT_NE(json.find("\"accepts\""), std::string::npos);
  EXPECT_NE(json.find("underpayment"), std::string::npos);

  st.reset();
  EXPECT_EQ(st.accepts(), 0u);
  EXPECT_EQ(st.rejects_for(RejectReason::kUnderpayment), 0u);
}

TEST(GatewayStatsTest, CacheGaugesInJson) {
  // The caches section is read from the process-wide caches when the
  // document is rendered.
  core::Deployment dep(core::DeploymentConfig{});
  common::ThreadPool pool{0};
  Gateway gw(dep.merchant(), pool, GatewayConfig{});
  const auto key = *crypto::PrivateKey::from_scalar(crypto::U256{0x57a75});
  const auto pub = crypto::PublicKey::derive(key).serialize();
  const crypto::Sha256Digest digest{};
  const auto sig64 = crypto::ecdsa_sign(key, digest).serialize();
  for (int i = 0; i < 2; ++i) {  // a miss, then a hit
    ASSERT_TRUE(crypto::verify_signature({pub.data(), pub.size()}, digest,
                                         {sig64.data(), sig64.size()}));
  }
  const std::string json = gw.stats_json();
  EXPECT_NE(json.find("\"caches\""), std::string::npos);
  EXPECT_NE(json.find("\"sigcache\""), std::string::npos);
  EXPECT_NE(json.find("\"pubkey_precomp\""), std::string::npos);
  EXPECT_EQ(json.find("\"store\""), std::string::npos);  // no store attached

  const auto sig = crypto::SigCache::global().stats();
  const auto pre = crypto::PubkeyPrecompCache::global().stats();
  EXPECT_GT(sig.insertions, 0u);
  EXPECT_GT(sig.hits, 0u);
  EXPECT_EQ(stats_doc::counter(json, "sigcache", "hits"), sig.hits);
  EXPECT_EQ(stats_doc::counter(json, "sigcache", "misses"), sig.misses);
  EXPECT_EQ(stats_doc::counter(json, "sigcache", "insertions"), sig.insertions);
  EXPECT_EQ(stats_doc::counter(json, "sigcache", "evictions"), sig.evictions);
  EXPECT_EQ(stats_doc::counter(json, "pubkey_precomp", "hits"), pre.hits);
  EXPECT_EQ(stats_doc::counter(json, "pubkey_precomp", "misses"), pre.misses);
  EXPECT_EQ(stats_doc::counter(json, "pubkey_precomp", "insertions"), pre.insertions);
  EXPECT_EQ(stats_doc::counter(json, "pubkey_precomp", "evictions"), pre.evictions);
}

// -------------------------------------------------------------- pipeline

/// Deployment-backed harness mirroring MerchantUnit: a consistent world
/// with one funded escrow, served through the gateway's wire front door.
struct GatewayUnit : ::testing::Test {
  GatewayUnit() {
    core::DeploymentConfig cfg;
    cfg.seed = 424;
    cfg.funded_coins = 3;
    dep = std::make_unique<core::Deployment>(cfg);
    now = static_cast<std::uint64_t>(dep->simulator().now());
    invoice = dep->merchant().make_invoice(5 * btc::kCoin, dep->config().compensation, now,
                                           10ULL * 60 * 1000);
    coins = sim::find_spendable(dep->customer_node().chain(),
                                dep->customer().btc_identity().script);
    pkg = dep->customer().create_fastpay(invoice, coins[0].first, coins[0].second.out.value, now,
                                         dep->config().binding_ttl_ms);
  }

  std::unique_ptr<Gateway> make_gateway(GatewayConfig cfg = {}) {
    auto gw = std::make_unique<Gateway>(dep->merchant(), pool, cfg);
    gw->register_invoice(invoice);
    gw->track_escrow(dep->customer().escrow_id());
    return gw;
  }

  [[nodiscard]] Bytes submit_frame(std::uint64_t request_id,
                                   const core::FastPayPackage& p) const {
    SubmitFastPayRequest req;
    req.invoice_id = invoice.invoice_id;
    req.package = p;
    return make_frame(MsgType::kSubmitFastPay, request_id, req.serialize());
  }

  ReceiptInfoResponse read_receipt(Gateway& gw, std::uint64_t request_id) const {
    const auto frame = Frame::deserialize(gw.serve(
        make_frame(MsgType::kGetReceipt, 9999, GetReceiptRequest{request_id}.serialize()), now));
    EXPECT_TRUE(frame.has_value());
    if (!frame) return {};
    const auto resp = ReceiptInfoResponse::deserialize(frame->payload);
    EXPECT_TRUE(resp.has_value());
    return resp.value_or(ReceiptInfoResponse{});
  }

  static FastPayResultResponse decode_result(const Bytes& bytes) {
    const auto frame = Frame::deserialize(bytes);
    EXPECT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::kFastPayResult);
    const auto resp = FastPayResultResponse::deserialize(frame->payload);
    EXPECT_TRUE(resp.has_value());
    return resp.value_or(FastPayResultResponse{});
  }

  common::ThreadPool pool{0};  // inline: deterministic single-thread serve
  std::unique_ptr<core::Deployment> dep;
  std::uint64_t now = 0;
  core::Invoice invoice{};
  std::vector<std::pair<btc::OutPoint, btc::Coin>> coins;
  core::FastPayPackage pkg{};
};

TEST_F(GatewayUnit, SubmitAcceptedEndToEnd) {
  auto gw = make_gateway();
  const auto resp = decode_result(gw->serve(submit_frame(1, pkg), now));
  EXPECT_TRUE(resp.accepted) << resp.reason;
  EXPECT_EQ(resp.code, RejectReason::kNone);
  EXPECT_NE(resp.reservation_id, 0u);

  // The accept reserved collateral and queued the commit.
  const auto snap = gw->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, pkg.binding.binding.compensation);
  EXPECT_EQ(gw->commit_queue_depth(), 1u);
  EXPECT_EQ(gw->stats().accepts(), 1u);

  // Flush runs the merchant bookkeeping; the book now carries it.
  EXPECT_EQ(dep->merchant().pending().size(), 0u);
  (void)gw->flush_accepted();
  EXPECT_EQ(dep->merchant().pending().size(), 1u);
  EXPECT_EQ(gw->commit_queue_depth(), 0u);

  // The receipt is queryable by the submit frame's request id.
  const auto receipt_bytes =
      gw->serve(make_frame(MsgType::kGetReceipt, 2, GetReceiptRequest{1}.serialize()), now);
  const auto rframe = Frame::deserialize(receipt_bytes);
  ASSERT_TRUE(rframe.has_value());
  EXPECT_EQ(rframe->type, MsgType::kReceiptInfo);
  const auto receipt = ReceiptInfoResponse::deserialize(rframe->payload);
  ASSERT_TRUE(receipt.has_value());
  EXPECT_TRUE(receipt->found);
  EXPECT_TRUE(receipt->accepted);
  EXPECT_EQ(receipt->decided_at_ms, now);
}

TEST_F(GatewayUnit, QueryEscrowReflectsLocalReservations) {
  auto gw = make_gateway();
  const auto query = [&]() -> EscrowInfoResponse {
    const auto bytes = gw->serve(
        make_frame(MsgType::kQueryEscrow, 5,
                   QueryEscrowRequest{dep->customer().escrow_id()}.serialize()),
        now);
    const auto frame = Frame::deserialize(bytes);
    EXPECT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::kEscrowInfo);
    const auto resp = EscrowInfoResponse::deserialize(frame->payload);
    EXPECT_TRUE(resp.has_value());
    return resp.value_or(EscrowInfoResponse{});
  };

  const auto before = query();
  ASSERT_TRUE(before.found);
  EXPECT_EQ(before.state, static_cast<std::uint64_t>(core::EscrowState::kActive));

  const auto resp = decode_result(gw->serve(submit_frame(1, pkg), now));
  ASSERT_TRUE(resp.accepted) << resp.reason;

  const auto after = query();
  EXPECT_EQ(after.reserved, before.reserved + pkg.binding.binding.compensation);
  EXPECT_EQ(after.collateral, before.collateral);
}

TEST_F(GatewayUnit, UnknownReceiptReportsNotFound) {
  auto gw = make_gateway();
  const auto bytes =
      gw->serve(make_frame(MsgType::kGetReceipt, 3, GetReceiptRequest{777}.serialize()), now);
  const auto frame = Frame::deserialize(bytes);
  ASSERT_TRUE(frame.has_value());
  const auto receipt = ReceiptInfoResponse::deserialize(frame->payload);
  ASSERT_TRUE(receipt.has_value());
  EXPECT_FALSE(receipt->found);
}

TEST_F(GatewayUnit, UnknownInvoiceTypedReject) {
  auto gw = make_gateway();
  SubmitFastPayRequest req;
  req.invoice_id = invoice.invoice_id + 12345;  // never registered
  req.package = pkg;
  const auto resp = decode_result(
      gw->serve(make_frame(MsgType::kSubmitFastPay, 1, req.serialize()), now));
  EXPECT_FALSE(resp.accepted);
  EXPECT_EQ(resp.code, RejectReason::kUnknownInvoice);
  EXPECT_EQ(gw->stats().rejects_for(RejectReason::kUnknownInvoice), 1u);
}

TEST_F(GatewayUnit, MalformedFrameGetsTypedError) {
  auto gw = make_gateway();
  const Bytes junk{0x00, 0x01, 0x02};
  const auto bytes = gw->serve(junk, now);
  const auto frame = Frame::deserialize(bytes);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kError);
  const auto err = ErrorResponse::deserialize(frame->payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, RejectReason::kMalformedFrame);
  EXPECT_EQ(gw->stats().rejects_for(RejectReason::kMalformedFrame), 1u);
}

TEST_F(GatewayUnit, OverloadShedsWithRetryAfter) {
  GatewayConfig cfg;
  cfg.max_inflight = 0;  // every request is over capacity
  cfg.retry_after_ms = 75;
  auto gw = make_gateway(cfg);
  const auto bytes = gw->serve(submit_frame(42, pkg), now);
  const auto frame = Frame::deserialize(bytes);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kRetryAfter);
  EXPECT_EQ(frame->request_id, 42u);  // echoed from the shed frame header
  const auto shed = RetryAfterResponse::deserialize(frame->payload);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->retry_after_ms, 75u);
  EXPECT_EQ(gw->stats().sheds(), 1u);
  EXPECT_EQ(gw->stats().accepts(), 0u);
  // A shed request left no residue: no receipt, no reservation.
  EXPECT_EQ(gw->commit_queue_depth(), 0u);
}

TEST_F(GatewayUnit, RejectParityWithDirectEvaluation) {
  auto tampered = pkg;
  tampered.binding.customer_sig[7] ^= 0x40;

  const auto direct = dep->merchant().evaluate_fastpay(tampered, invoice, now);
  ASSERT_FALSE(direct.accepted);

  auto gw = make_gateway();
  const auto resp = decode_result(gw->serve(submit_frame(1, tampered), now));
  EXPECT_FALSE(resp.accepted);
  EXPECT_EQ(resp.code, direct.code);
  EXPECT_EQ(resp.code, RejectReason::kBindingSigInvalid);
  EXPECT_EQ(resp.reason, direct.reason);
  // No reservation was held for the reject.
  const auto snap = gw->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, 0u);
}

TEST_F(GatewayUnit, ReservationHeldForFullBindingLifetime) {
  // The collateral hold must cover the binding's entire disputable life:
  // releasing it any earlier would undercount exposure and let later
  // payments overcommit the escrow (the merchant is still owed the
  // compensation if this payment double-spends).
  auto gw = make_gateway();
  const auto resp = decode_result(gw->serve(submit_frame(1, pkg), now));
  ASSERT_TRUE(resp.accepted) << resp.reason;
  const std::uint64_t expiry = pkg.binding.binding.expiry_ms;

  gw->reconcile(expiry - 1);
  auto snap = gw->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, pkg.binding.binding.compensation);

  gw->reconcile(expiry);
  snap = gw->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, 0u);
  EXPECT_EQ(gw->reservations_expired(), 1u);
}

TEST_F(GatewayUnit, HugeCompensationBindingCannotWrapCoverage) {
  // Regression: with one small reservation live (local_reserved = s), a
  // self-signed binding asking for 2^64 - s used to wrap the unsigned
  // coverage sums to 0 in both check_terms and try_reserve, erasing
  // all tracked exposure. Both checks are overflow-safe now.
  auto gw = make_gateway();
  const auto first = decode_result(gw->serve(submit_frame(1, pkg), now));
  ASSERT_TRUE(first.accepted) << first.reason;
  (void)gw->flush_accepted();
  const auto outstanding = pkg.binding.binding.compensation;

  auto evil = dep->customer().create_fastpay(invoice, coins[1].first, coins[1].second.out.value,
                                             now, dep->config().binding_ttl_ms);
  evil.binding.binding.compensation =
      std::numeric_limits<psc::Value>::max() - outstanding + 1;  // sum wraps to 0
  const auto sig = crypto::ecdsa_sign(dep->customer().btc_identity().key,
                                      evil.binding.binding.signing_digest());
  evil.binding.customer_sig = sig.serialize();

  const auto resp = decode_result(gw->serve(submit_frame(2, evil), now));
  EXPECT_FALSE(resp.accepted);
  EXPECT_EQ(resp.code, RejectReason::kInsufficientCollateral);
  // The small reservation is still tracked — nothing was erased.
  const auto snap = gw->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, outstanding);
}

TEST_F(GatewayUnit, ReceiptCacheBoundedFifo) {
  GatewayConfig cfg;
  cfg.max_receipts = 2;
  // One shard so all three receipts share one FIFO and the global cap is
  // exact; with N shards the budget is split per shard.
  cfg.shards = 1;
  auto gw = make_gateway(cfg);
  const auto receipt_for = [&](std::uint64_t request_id) -> ReceiptInfoResponse {
    const auto bytes = gw->serve(
        make_frame(MsgType::kGetReceipt, 100 + request_id,
                   GetReceiptRequest{request_id}.serialize()),
        now);
    const auto frame = Frame::deserialize(bytes);
    EXPECT_TRUE(frame.has_value());
    const auto resp = ReceiptInfoResponse::deserialize(frame->payload);
    EXPECT_TRUE(resp.has_value());
    return resp.value_or(ReceiptInfoResponse{});
  };

  // Three decisions under a cap of two: the attacker model is a client
  // streaming fresh request ids, so the oldest receipt must fall out.
  SubmitFastPayRequest req;
  req.invoice_id = invoice.invoice_id + 999;  // unknown invoice: cheap reject
  req.package = pkg;
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    (void)gw->serve(make_frame(MsgType::kSubmitFastPay, rid, req.serialize()), now);
  }
  EXPECT_FALSE(receipt_for(1).found);  // evicted
  EXPECT_TRUE(receipt_for(2).found);
  EXPECT_TRUE(receipt_for(3).found);
}

TEST_F(GatewayUnit, ServeBatchMatchesSequentialServe) {
  // Three frames covering accept, typed reject and unknown invoice; a
  // pooled batch gateway and an inline sequential one must answer
  // byte-identically (reservation ids included — both ledgers are fresh)
  // at every pool size, the Deployment default included.
  auto tampered = pkg;
  tampered.binding.customer_sig[3] ^= 0x01;
  SubmitFastPayRequest unknown;
  unknown.invoice_id = invoice.invoice_id + 999;
  unknown.package = pkg;

  const std::vector<Bytes> frames = {
      submit_frame(1, pkg),
      submit_frame(2, tampered),
      make_frame(MsgType::kSubmitFastPay, 3, unknown.serialize()),
      make_frame(MsgType::kQueryEscrow, 4,
                 QueryEscrowRequest{dep->customer().escrow_id()}.serialize()),
  };

  auto seq_gw = make_gateway();
  std::vector<Bytes> sequential;
  for (const auto& f : frames) sequential.push_back(seq_gw->serve(f, now));

  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, common::ThreadPool::hardware_workers()}) {
    common::ThreadPool workers{threads};
    auto batch_gw = std::make_unique<Gateway>(dep->merchant(), workers, GatewayConfig{});
    batch_gw->register_invoice(invoice);
    batch_gw->track_escrow(dep->customer().escrow_id());
    const auto batched = batch_gw->serve_batch(frames, now);

    ASSERT_EQ(batched.size(), sequential.size()) << "threads " << threads;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(batched[i], sequential[i]) << "response " << i << " diverged, threads " << threads;
    }
    const auto st = batch_gw->stats();
    EXPECT_EQ(st.accepts(), 1u);
    EXPECT_EQ(st.rejects(), 2u);
    // The verify pass is charged once per submit frame it covered (the
    // query is not one).
    EXPECT_EQ(st.stage(Stage::kVerifyPass).count(), 3u) << "threads " << threads;
  }
  EXPECT_EQ(seq_gw->stats().stage(Stage::kVerifyPass).count(), 0u);
}

TEST_F(GatewayUnit, ShardedVsUnshardedParity) {
  // The shard count is a pure performance knob: reservation ids draw
  // from one gateway-wide counter and embed a geometry-independent
  // affinity byte, so an N-shard gateway must answer every frame with
  // the exact bytes the 1-shard gateway produces — accepts (including
  // the reservation id), typed rejects, queries and receipts alike.
  auto tampered = pkg;
  tampered.binding.customer_sig[3] ^= 0x01;
  SubmitFastPayRequest unknown;
  unknown.invoice_id = invoice.invoice_id + 999;
  unknown.package = pkg;

  const std::vector<Bytes> frames = {
      submit_frame(1, pkg),
      submit_frame(2, tampered),
      make_frame(MsgType::kSubmitFastPay, 3, unknown.serialize()),
      make_frame(MsgType::kQueryEscrow, 4,
                 QueryEscrowRequest{dep->customer().escrow_id()}.serialize()),
      make_frame(MsgType::kGetReceipt, 5, GetReceiptRequest{1}.serialize()),
      make_frame(MsgType::kGetReceipt, 6, GetReceiptRequest{2}.serialize()),
      make_frame(MsgType::kSubmitFastPay, 7, Bytes{0xde, 0xad}),  // malformed payload
  };

  GatewayConfig one;
  one.shards = 1;
  auto gw1 = make_gateway(one);
  GatewayConfig many;
  many.shards = 4;
  auto gwn = make_gateway(many);

  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Bytes a = gw1->serve(frames[i], now);
    const Bytes b = gwn->serve(frames[i], now);
    EXPECT_EQ(a, b) << "response " << i << " diverged between 1 and 4 shards";
  }
  EXPECT_EQ(gw1->stats().accepts(), gwn->stats().accepts());
  EXPECT_EQ(gw1->stats().rejects(), gwn->stats().rejects());
  EXPECT_EQ(gw1->reservations_granted(), gwn->reservations_granted());
  EXPECT_EQ(gw1->commit_queue_depth(), gwn->commit_queue_depth());
}

TEST_F(GatewayUnit, LazyFetchSafeUnderConcurrentServe) {
  // lazy_escrow_fetch used to be documented single-thread-only; the
  // chain-view fetch is now serialized under a gateway-wide lock, so
  // hammering an UNTRACKED escrow from many threads must neither race
  // (TSan's job) nor fetch inconsistent views: exactly one thread pays
  // the contract call, everyone sees the same escrow afterwards.
  GatewayConfig cfg;
  cfg.lazy_escrow_fetch = true;
  auto gw = std::make_unique<Gateway>(dep->merchant(), pool, cfg);
  gw->register_invoice(invoice);  // escrow deliberately NOT tracked

  const Bytes query = make_frame(MsgType::kQueryEscrow, 9,
                                 QueryEscrowRequest{dep->customer().escrow_id()}.serialize());
  std::atomic<int> not_found{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const auto frame = Frame::deserialize(gw->serve(query, now));
        ASSERT_TRUE(frame.has_value());
        const auto resp = EscrowInfoResponse::deserialize(frame->payload);
        ASSERT_TRUE(resp.has_value());
        if (!resp->found) not_found.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(not_found.load(), 0);
  const auto snap = gw->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_GT(snap->view.collateral, 0u);
}

TEST_F(GatewayUnit, ConcurrentShardedServeNeverOvercommits) {
  // The end-to-end TSan hammer: many threads drive real submit frames
  // (valid, tampered, unknown-invoice) through the sharded pipeline and
  // the shared verify caches at once. The escrow's collateral must cover
  // every accept no matter how the threads interleave, and the counters
  // must reconcile exactly.
  GatewayConfig cfg;
  cfg.shards = 4;
  auto gw = make_gateway(cfg);

  // Distinct payments on the one escrow (each its own invoice amount, so
  // its own txid) whose compensation sums past the collateral: the cap,
  // not the replay guard, bounds the winners.
  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 4;
  auto payment = [&](std::uint64_t extra_sat) {
    const auto inv = dep->merchant().make_invoice(5 * btc::kCoin + extra_sat,
                                                  dep->config().compensation, now,
                                                  10ULL * 60 * 1000);
    gw->register_invoice(inv);
    SubmitFastPayRequest req;
    req.invoice_id = inv.invoice_id;
    req.package = dep->customer().create_fastpay(inv, coins[0].first, coins[0].second.out.value,
                                                 now, dep->config().binding_ttl_ms);
    return req;
  };
  std::vector<Bytes> valid;
  std::set<btc::Txid> txids;
  for (unsigned k = 0; k < kThreads * kPerThread; ++k) {
    const auto req = payment(1 + k);
    txids.insert(req.package.binding.binding.btc_txid);
    valid.push_back(make_frame(MsgType::kSubmitFastPay, 100 + k, req.serialize()));
  }
  ASSERT_EQ(txids.size(), valid.size());

  // The tampered package has a txid no valid frame holds, so every copy
  // reaches the verify stage.
  auto tampered = payment(1000);
  tampered.package.binding.customer_sig[3] ^= 0x01;
  SubmitFastPayRequest unknown;
  unknown.invoice_id = invoice.invoice_id + 999;
  unknown.package = pkg;
  const Bytes bad_sig = make_frame(MsgType::kSubmitFastPay, 2, tampered.serialize());
  const Bytes bad_invoice = make_frame(MsgType::kSubmitFastPay, 3, unknown.serialize());

  std::atomic<std::uint64_t> accepts{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        const auto resp = decode_result(gw->serve(valid[t * kPerThread + i], now));
        if (resp.accepted) accepts.fetch_add(1, std::memory_order_relaxed);
        (void)gw->serve(bad_sig, now);
        (void)gw->serve(bad_invoice, now);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto snap = gw->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  const psc::Value comp = dep->config().compensation;
  const std::uint64_t fit = (snap->view.collateral - snap->view.reserved) / comp;
  ASSERT_LT(fit, valid.size());
  EXPECT_EQ(accepts.load(), fit);
  EXPECT_LE(snap->view.reserved + snap->local_reserved, snap->view.collateral);
  EXPECT_EQ(snap->local_reserved, accepts.load() * comp);
  EXPECT_EQ(gw->stats().accepts(), accepts.load());
  EXPECT_EQ(gw->reservations_granted(), accepts.load());
  EXPECT_EQ(gw->commit_queue_depth(), accepts.load());
  // Every frame got exactly one outcome; every submit with a known
  // invoice was evaluated once (none is a replay), and every one that
  // passed the terms check (which already refuses a full escrow) crossed
  // the verify stage exactly once: it was then accepted, refused there
  // for the tampered signature, or lost the reservation race.
  const auto st = gw->stats();
  const std::uint64_t frames = 3ull * kThreads * kPerThread;
  EXPECT_EQ(st.accepts() + st.rejects(), frames);
  EXPECT_EQ(st.rejects_for(RejectReason::kUnknownInvoice), frames / 3);
  EXPECT_EQ(st.rejects_for(RejectReason::kDuplicatePayment), 0u);
  EXPECT_EQ(st.stage(Stage::kEvaluate).count(), 2 * frames / 3);
  EXPECT_EQ(st.stage(Stage::kVerify).count(),
            accepts.load() + st.rejects_for(RejectReason::kBindingSigInvalid) +
                gw->reservations_denied());
}

TEST_F(GatewayUnit, ReplayedSubmitHoldsNoSecondReservationBeforeOrAfterFlush) {
  // A replay of an accepted package (same bytes, new request id) must not
  // hold collateral again or book the invoice twice — neither while the
  // accept waits in the commit queue nor after flush_accepted booked it.
  auto gw = make_gateway();
  const auto first = decode_result(gw->serve(submit_frame(1, pkg), now));
  ASSERT_TRUE(first.accepted) << first.reason;

  const auto before_flush = decode_result(gw->serve(submit_frame(2, pkg), now));
  EXPECT_FALSE(before_flush.accepted);
  EXPECT_EQ(before_flush.code, RejectReason::kDuplicatePayment);
  EXPECT_EQ(before_flush.reservation_id, 0u);
  EXPECT_EQ(gw->commit_queue_depth(), 1u);
  EXPECT_EQ(gw->reservations_granted(), 1u);

  (void)gw->flush_accepted(now);
  ASSERT_EQ(dep->merchant().pending().size(), 1u);
  const auto after_flush = decode_result(gw->serve(submit_frame(3, pkg), now));
  EXPECT_FALSE(after_flush.accepted);
  EXPECT_EQ(after_flush.code, RejectReason::kDuplicatePayment);
  EXPECT_EQ(gw->commit_queue_depth(), 0u);
  (void)gw->flush_accepted(now);
  EXPECT_EQ(dep->merchant().pending().size(), 1u);

  const auto snap = gw->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->live_reservations, 1u);
  EXPECT_EQ(snap->local_reserved, pkg.binding.binding.compensation);
  EXPECT_EQ(gw->stats().rejects_for(RejectReason::kDuplicatePayment), 2u);

  // The client still reads the original decision.
  const auto receipt = read_receipt(*gw, 1);
  EXPECT_TRUE(receipt.found);
  EXPECT_TRUE(receipt.accepted);
  EXPECT_EQ(receipt.code, RejectReason::kNone);
}

TEST_F(GatewayUnit, ReplayedFrameBytesKeepTheOriginalReceipt) {
  // A client whose accept response was lost resubmits the identical
  // bytes, so the replay carries the original request id. Its refusal
  // must not overwrite the stored accept: GetReceipt keeps reading it,
  // through serve() and inside serve_batch alike.
  auto gw = make_gateway();
  const Bytes frame = submit_frame(1, pkg);
  ASSERT_TRUE(decode_result(gw->serve(frame, now)).accepted);
  EXPECT_EQ(decode_result(gw->serve(frame, now)).code, RejectReason::kDuplicatePayment);
  auto receipt = read_receipt(*gw, 1);
  EXPECT_TRUE(receipt.found);
  EXPECT_TRUE(receipt.accepted);
  EXPECT_EQ(receipt.code, RejectReason::kNone);

  // Second payment: accept and replay in one batch, with a receipt read
  // between and after them.
  const auto inv = dep->merchant().make_invoice(5 * btc::kCoin, dep->config().compensation, now,
                                                10ULL * 60 * 1000);
  gw->register_invoice(inv);
  SubmitFastPayRequest req;
  req.invoice_id = inv.invoice_id;
  req.package = dep->customer().create_fastpay(inv, coins[1].first, coins[1].second.out.value,
                                               now, dep->config().binding_ttl_ms);
  const Bytes second = make_frame(MsgType::kSubmitFastPay, 7, req.serialize());
  const Bytes read = make_frame(MsgType::kGetReceipt, 8, GetReceiptRequest{7}.serialize());
  const auto out = gw->serve_batch({second, read, second, read}, now);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(decode_result(out[0]).accepted);
  EXPECT_EQ(decode_result(out[2]).code, RejectReason::kDuplicatePayment);
  EXPECT_EQ(out[1], out[3]);
  for (const std::size_t i : {1u, 3u}) {
    const auto f = Frame::deserialize(out[i]);
    ASSERT_TRUE(f.has_value());
    const auto r = ReceiptInfoResponse::deserialize(f->payload);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->found && r->accepted) << "slot " << i;
  }
  receipt = read_receipt(*gw, 7);
  EXPECT_TRUE(receipt.found);
  EXPECT_TRUE(receipt.accepted);
  EXPECT_EQ(gw->reservations_granted(), 2u);
  EXPECT_EQ(gw->commit_queue_depth(), 2u);
}

TEST_F(GatewayUnit, SameFrameServedConcurrentlyIsAcceptedOnce) {
  // The duplicate check and the reservation are one step under the
  // owning shard's lock: threads released together on the identical
  // frame bytes get exactly one accept per payment (run under TSan by
  // tier1.sh --gateway-smoke).
  auto gw = make_gateway();
  ASSERT_GE(coins.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto inv = dep->merchant().make_invoice(5 * btc::kCoin, dep->config().compensation, now,
                                                  10ULL * 60 * 1000);
    gw->register_invoice(inv);
    SubmitFastPayRequest req;
    req.invoice_id = inv.invoice_id;
    req.package = dep->customer().create_fastpay(inv, coins[c].first, coins[c].second.out.value,
                                                 now, dep->config().binding_ttl_ms);
    const Bytes frame = make_frame(MsgType::kSubmitFastPay, 10 + c, req.serialize());

    constexpr int kThreads = 4;
    std::atomic<int> ready{0};
    std::atomic<int> accepted{0};
    std::atomic<int> duplicates{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        const auto resp = decode_result(gw->serve(frame, now));
        if (resp.accepted) accepted.fetch_add(1);
        if (resp.code == RejectReason::kDuplicatePayment) duplicates.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(accepted.load(), 1) << "payment " << c;
    EXPECT_EQ(duplicates.load(), kThreads - 1) << "payment " << c;
    // Whichever thread won, its receipt is the one that stays.
    const auto receipt = read_receipt(*gw, 10 + c);
    EXPECT_TRUE(receipt.found && receipt.accepted) << "payment " << c;
  }
  EXPECT_EQ(gw->reservations_granted(), 3u);
  EXPECT_EQ(gw->commit_queue_depth(), 3u);
}

TEST_F(GatewayUnit, PendingLimitClaimedAtomicallyAcrossQueues) {
  // The pending-payment bound is enforced with an atomic slot claim
  // instead of the old cross-shard commit lock; the boundary must stay
  // exact: limit 1 -> first accept wins the slot, second is rejected
  // with kPendingLimit even before any flush.
  core::MerchantService::Config mcfg = dep->merchant().config();
  mcfg.max_pending_payments = 1;
  core::MerchantService limited(dep->merchant().btc_identity(), dep->merchant_node(), dep->psc(),
                                mcfg);
  auto gw = std::make_unique<Gateway>(limited, pool, GatewayConfig{});
  gw->register_invoice(invoice);
  gw->track_escrow(dep->customer().escrow_id());

  const auto second_pkg = dep->customer().create_fastpay(
      invoice, coins[1].first, coins[1].second.out.value, now, dep->config().binding_ttl_ms);
  const auto first = decode_result(gw->serve(submit_frame(1, pkg), now));
  EXPECT_TRUE(first.accepted) << first.reason;
  const auto second = decode_result(gw->serve(submit_frame(2, second_pkg), now));
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.code, RejectReason::kPendingLimit);
  // The rejected claim released both the slot and the reservation.
  EXPECT_EQ(gw->commit_queue_depth(), 1u);
  const auto snap = gw->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->local_reserved, pkg.binding.binding.compensation);
}

TEST_F(GatewayUnit, StageHistogramsPopulated) {
  // One accepted submit must leave a sample in every stage it crossed;
  // the JSON dump carries the per-stage section.
  auto gw = make_gateway();
  const auto resp = decode_result(gw->serve(submit_frame(1, pkg), now));
  ASSERT_TRUE(resp.accepted) << resp.reason;

  const auto st = gw->stats();
  EXPECT_EQ(st.stage(Stage::kDecode).count(), 1u);
  EXPECT_EQ(st.stage(Stage::kVerify).count(), 1u);
  EXPECT_EQ(st.stage(Stage::kEvaluate).count(), 1u);
  EXPECT_EQ(st.stage(Stage::kReserve).count(), 1u);
  EXPECT_EQ(st.stage(Stage::kWal).count(), 0u);  // no store attached
  EXPECT_EQ(st.stage(Stage::kCommit).count(), 1u);
  EXPECT_EQ(st.stage(Stage::kRespond).count(), 1u);
  EXPECT_EQ(st.stage(Stage::kVerifyPass).count(), 0u);  // serve() runs no batch pass
  const std::string json = st.to_json();
  EXPECT_NE(json.find("\"stages_us\""), std::string::npos);
  EXPECT_NE(json.find("\"evaluate\""), std::string::npos);
  EXPECT_NE(json.find("\"verify_pass\""), std::string::npos);

  gw->reset_stats();
  EXPECT_EQ(gw->stats().stage(Stage::kDecode).count(), 0u);
}

}  // namespace
}  // namespace btcfast::gateway
