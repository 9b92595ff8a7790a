// Component-level unit tests for MerchantService, CustomerWallet and the
// protocol messages — every rejection path of the fast-pay evaluation
// exercised directly (the integration suite covers the happy paths).
#include <gtest/gtest.h>

#include <limits>

#include "btc/transaction.h"
#include "btcfast/orchestrator.h"
#include "common/thread_pool.h"
#include "crypto/batch_verify.h"
#include "crypto/sigcache.h"

namespace btcfast::core {
namespace {

/// Deployment-backed harness: gives us a consistent world, then we tamper
/// with packages before evaluation.
struct MerchantUnit : ::testing::Test {
  MerchantUnit() {
    DeploymentConfig cfg;
    cfg.seed = 314;
    cfg.funded_coins = 3;
    dep = std::make_unique<Deployment>(cfg);
    now = static_cast<std::uint64_t>(dep->simulator().now());
    invoice = dep->merchant().make_invoice(5 * btc::kCoin, dep->config().compensation, now,
                                           10ULL * 60 * 1000);
    const auto coins = sim::find_spendable(dep->customer_node().chain(),
                                           dep->customer().btc_identity().script);
    coin_op = coins.front().first;
    coin_value = coins.front().second.out.value;
    pkg = dep->customer().create_fastpay(invoice, coin_op, coin_value, now,
                                         dep->config().binding_ttl_ms);
  }

  AcceptDecision eval() { return dep->merchant().evaluate_fastpay(pkg, invoice, now); }

  std::unique_ptr<Deployment> dep;
  std::uint64_t now = 0;
  Invoice invoice{};
  btc::OutPoint coin_op{};
  btc::Amount coin_value = 0;
  FastPayPackage pkg{};
};

TEST_F(MerchantUnit, ValidPackageAccepted) {
  const auto d = eval();
  EXPECT_TRUE(d.accepted) << d.reason;
  EXPECT_EQ(d.code, RejectReason::kNone);
}

TEST_F(MerchantUnit, ExpiredInvoiceRejected) {
  now = invoice.expires_at_ms + 1;
  const auto d = eval();
  EXPECT_EQ(d.reason, "invoice expired");
  EXPECT_EQ(d.code, RejectReason::kInvoiceExpired);
}

TEST_F(MerchantUnit, WrongMerchantBindingRejected) {
  pkg.binding.binding.merchant = psc::Address::from_label("somebody-else");
  EXPECT_EQ(eval().reason, "binding names another merchant");
}

TEST_F(MerchantUnit, LowCompensationRejected) {
  pkg.binding.binding.compensation = invoice.compensation - 1;
  EXPECT_EQ(eval().reason, "compensation below invoice");
}

TEST_F(MerchantUnit, ShortExpiryRejected) {
  pkg.binding.binding.expiry_ms = now + 60'000;  // dispute couldn't finish
  EXPECT_NE(eval().reason.find("expires before a dispute"), std::string::npos);
}

TEST_F(MerchantUnit, TxidMismatchRejected) {
  pkg.binding.binding.btc_txid.bytes[0] ^= 1;
  EXPECT_EQ(eval().reason, "binding txid mismatch");
}

TEST_F(MerchantUnit, UnderpaymentRejected) {
  // Outputs pay less than the invoice amount.
  pkg.payment_tx.outputs[0].value = invoice.amount_sat - 1;
  btc::sign_input(pkg.payment_tx, 0, dep->customer().btc_identity().key,
                  dep->customer().btc_identity().script);
  pkg.binding.binding.btc_txid = pkg.payment_tx.txid();
  const auto sig = crypto::ecdsa_sign(dep->customer().btc_identity().key,
                                      pkg.binding.binding.signing_digest());
  pkg.binding.customer_sig = sig.serialize();
  EXPECT_EQ(eval().reason, "payment output below invoice amount");
}

TEST_F(MerchantUnit, UnknownEscrowRejected) {
  pkg.binding.binding.escrow_id = 999;
  // Re-sign so the signature check isn't what fails.
  const auto sig = crypto::ecdsa_sign(dep->customer().btc_identity().key,
                                      pkg.binding.binding.signing_digest());
  pkg.binding.customer_sig = sig.serialize();
  EXPECT_EQ(eval().reason, "escrow not active");
}

TEST_F(MerchantUnit, ForgedBindingSignatureRejected) {
  pkg.binding.customer_sig[7] ^= 0x40;
  const auto d = eval();
  EXPECT_EQ(d.reason, "binding signature invalid");
  EXPECT_EQ(d.code, RejectReason::kBindingSigInvalid);
}

TEST_F(MerchantUnit, BindingSignedByWrongKeyRejected) {
  const auto wrong = sim::Party::make(987654);
  const auto sig = crypto::ecdsa_sign(wrong.key, pkg.binding.binding.signing_digest());
  pkg.binding.customer_sig = sig.serialize();
  EXPECT_EQ(eval().reason, "binding signature invalid");
}

TEST_F(MerchantUnit, MissingInputRejected) {
  pkg.payment_tx.inputs[0].prevout.txid.bytes[5] ^= 1;
  // Keep binding consistent with the (new) txid and re-sign.
  pkg.binding.binding.btc_txid = pkg.payment_tx.txid();
  const auto sig = crypto::ecdsa_sign(dep->customer().btc_identity().key,
                                      pkg.binding.binding.signing_digest());
  pkg.binding.customer_sig = sig.serialize();
  EXPECT_NE(eval().reason.find("input missing"), std::string::npos);
}

TEST_F(MerchantUnit, BadPaymentSignatureRejected) {
  pkg.payment_tx.inputs[0].script_sig.signature[3] ^= 1;
  pkg.binding.binding.btc_txid = pkg.payment_tx.txid();
  const auto sig = crypto::ecdsa_sign(dep->customer().btc_identity().key,
                                      pkg.binding.binding.signing_digest());
  pkg.binding.customer_sig = sig.serialize();
  EXPECT_NE(eval().reason.find("signature invalid"), std::string::npos);
}

TEST_F(MerchantUnit, UndecodableEscrowKeyRejectedAsBadCustomerKey) {
  // verify_payment decompresses the escrow key only after the binding
  // check fails; the reason code must still name the key, not the
  // signature.
  auto escrow = dep->merchant().escrow_view(dep->customer().escrow_id());
  ASSERT_TRUE(escrow.has_value());
  escrow->customer_btc_key[0] = 0x05;  // no such compressed-point prefix
  const auto d = dep->merchant().verify_payment(pkg, *escrow);
  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.code, RejectReason::kBadCustomerKey);
}

TEST_F(MerchantUnit, SigChecksMatchWhatVerifyPaymentChecks) {
  // collect_sig_checks lists the binding (under the escrow key) and the
  // one payment input; all verify, and an unknown escrow drops only the
  // binding job.
  const auto escrow = dep->merchant().escrow_view(dep->customer().escrow_id());
  ASSERT_TRUE(escrow.has_value());
  std::vector<crypto::SigCheckJob> jobs;
  dep->merchant().collect_sig_checks(pkg, escrow, jobs);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].pubkey, escrow->customer_btc_key);
  EXPECT_EQ(jobs[0].digest, pkg.binding.binding.signing_digest());
  EXPECT_EQ(jobs[1].sig, pkg.payment_tx.inputs[0].script_sig.signature);
  common::ThreadPool inline_pool(0);
  EXPECT_EQ(crypto::batch_verify(inline_pool, jobs, nullptr), (std::vector<std::uint8_t>{1, 1}));

  jobs.clear();
  dep->merchant().collect_sig_checks(pkg, std::nullopt, jobs);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].sig, pkg.payment_tx.inputs[0].script_sig.signature);
}

TEST_F(MerchantUnit, PassVerdictsGiveTheSameDecisionAsSingleVerify) {
  // verify_payment fed a batch pass's verdicts must give every
  // rejection the same code and reason as the single path that checks
  // each signature itself — including when the escrow key changed after
  // the pass built its binding job.
  auto escrow = dep->merchant().escrow_view(dep->customer().escrow_id());
  ASSERT_TRUE(escrow.has_value());
  const auto& key = dep->customer().btc_identity().key;
  auto rebind = [&](FastPayPackage& p) {
    p.binding.binding.btc_txid = p.payment_tx.txid();
    p.binding.customer_sig =
        crypto::ecdsa_sign(key, p.binding.binding.signing_digest()).serialize();
  };
  const auto coins =
      sim::find_spendable(dep->customer_node().chain(), dep->customer().btc_identity().script);
  ASSERT_GE(coins.size(), 2u);

  struct Case {
    const char* name;
    FastPayPackage pkg;
    EscrowView escrow;
    RejectReason want;
  };
  std::vector<Case> cases;
  cases.push_back({"valid", pkg, *escrow, RejectReason::kNone});
  auto bad_binding = pkg;
  bad_binding.binding.customer_sig[7] ^= 0x40;
  cases.push_back({"bad binding sig", bad_binding, *escrow, RejectReason::kBindingSigInvalid});
  auto bad_key = *escrow;
  bad_key.customer_btc_key[0] = 0x05;
  cases.push_back({"bad customer key", pkg, bad_key, RejectReason::kBadCustomerKey});
  auto missing = pkg;
  missing.payment_tx.inputs[0].prevout.txid.bytes[5] ^= 1;
  rebind(missing);
  cases.push_back({"missing input", missing, *escrow, RejectReason::kInputMissing});
  auto bad_input = pkg;
  bad_input.payment_tx.inputs[0].script_sig.signature[3] ^= 1;
  rebind(bad_input);
  cases.push_back({"bad input sig", bad_input, *escrow, RejectReason::kInputSigInvalid});
  auto inflated = pkg;
  inflated.payment_tx.outputs[0].value += 100 * btc::kCoin;
  btc::sign_input(inflated.payment_tx, 0, key, coins[0].second.out.script_pubkey);
  rebind(inflated);
  cases.push_back({"value inflation", inflated, *escrow, RejectReason::kValueInflation});
  // Mempool conflict: another spend of the same coin is already pending.
  auto conflicted = dep->customer().create_fastpay(invoice, coins[1].first,
                                                   coins[1].second.out.value, now,
                                                   dep->config().binding_ttl_ms);
  auto other = conflicted;
  other.payment_tx.outputs[0].value -= 1;
  btc::sign_input(other.payment_tx, 0, key, coins[1].second.out.script_pubkey);
  dep->merchant_node().receive_tx(other.payment_tx);
  cases.push_back({"mempool conflict", conflicted, *escrow, RejectReason::kInputConflict});

  common::ThreadPool inline_pool(0);
  for (const auto& c : cases) {
    crypto::SigCache::global().clear();
    const AcceptDecision single = dep->merchant().verify_payment(c.pkg, c.escrow);
    EXPECT_EQ(single.code, c.want) << c.name;
    // The pass sees the escrow as it was when the batch was collected;
    // the stale-key run hands it the untampered view.
    for (const bool stale_key : {false, true}) {
      const EscrowView& seen = stale_key ? *escrow : c.escrow;
      std::vector<crypto::SigCheckJob> jobs;
      SigJobIndex at;
      dep->merchant().collect_sig_checks(c.pkg, seen, jobs, &at);
      crypto::SigCache::global().clear();
      const auto ok = crypto::batch_verify(inline_pool, jobs, nullptr);
      const auto probes = crypto::SigCache::global().stats();
      const PassVerdicts pass{jobs, ok, at};
      const AcceptDecision batched =
          dep->merchant().verify_payment(c.pkg, c.escrow, &pass);
      EXPECT_EQ(batched.code, single.code) << c.name << (stale_key ? " (stale key)" : "");
      EXPECT_EQ(batched.reason, single.reason) << c.name;
      if (!stale_key || seen.customer_btc_key == c.escrow.customer_btc_key) {
        // Every signature came from the pass: no cache probe at all.
        const auto after = crypto::SigCache::global().stats();
        EXPECT_EQ(after.hits + after.misses, probes.hits + probes.misses) << c.name;
      }
    }
  }
}

TEST_F(MerchantUnit, InlineVerifyUsesPrecompCache) {
  // The merchant's own signature checks go through the per-pubkey precomp
  // cache: the first package's two checks under the customer key build
  // the key's tables, and a second package verifies from them.
  crypto::SigCache::global().clear();
  crypto::PubkeyPrecompCache::global().set_capacity(crypto::PubkeyPrecompCache::kDefaultMaxEntries);
  crypto::PubkeyPrecompCache::global().clear();
  const auto before = crypto::PubkeyPrecompCache::global().stats();
  ASSERT_TRUE(eval().accepted);
  EXPECT_GE(crypto::PubkeyPrecompCache::global().stats().insertions, before.insertions + 1);

  const auto coins =
      sim::find_spendable(dep->customer_node().chain(), dep->customer().btc_identity().script);
  pkg = dep->customer().create_fastpay(invoice, coins[1].first, coins[1].second.out.value, now,
                                       dep->config().binding_ttl_ms);
  const auto warm = crypto::PubkeyPrecompCache::global().stats();
  ASSERT_TRUE(eval().accepted);
  EXPECT_GE(crypto::PubkeyPrecompCache::global().stats().hits, warm.hits + 2);
}

TEST_F(MerchantUnit, ExposureAccumulatesAcrossAccepts) {
  EXPECT_EQ(dep->merchant().outstanding_exposure(dep->customer().escrow_id()), 0u);
  (void)dep->merchant().accept_payment(pkg, invoice, now);
  EXPECT_EQ(dep->merchant().outstanding_exposure(dep->customer().escrow_id()),
            pkg.binding.binding.compensation);
}

/// A second MerchantService over the same deployment world (same identity,
/// node and PSC view) but with admission limits — Config is fixed at
/// construction, so limit boundaries get their own instance.
struct MerchantLimits : MerchantUnit {
  MerchantService limited(std::size_t max_pending, psc::Value exposure_cap) {
    MerchantService::Config cfg = dep->merchant().config();
    cfg.max_pending_payments = max_pending;
    cfg.per_escrow_exposure_cap = exposure_cap;
    return MerchantService(dep->merchant().btc_identity(), dep->merchant_node(), dep->psc(),
                           cfg);
  }

  FastPayPackage second_package() {
    const auto coins = sim::find_spendable(dep->customer_node().chain(),
                                           dep->customer().btc_identity().script);
    return dep->customer().create_fastpay(invoice, coins[1].first, coins[1].second.out.value,
                                          now, dep->config().binding_ttl_ms);
  }
};

TEST_F(MerchantLimits, PendingLimitBoundary) {
  auto svc = limited(/*max_pending=*/1, /*exposure_cap=*/0);

  // First payment fits exactly at the bound...
  const auto first = svc.evaluate_fastpay(pkg, invoice, now);
  ASSERT_TRUE(first.accepted) << first.reason;
  (void)svc.accept_payment(pkg, invoice, now);
  EXPECT_EQ(svc.active_pending_count(), 1u);

  // ...the next one trips it before any signature work.
  const auto second = svc.evaluate_fastpay(second_package(), invoice, now);
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.code, RejectReason::kPendingLimit);
  EXPECT_EQ(second.reason, "merchant pending-payment limit reached");
}

TEST_F(MerchantLimits, PendingLimitOfTwoAdmitsSecond) {
  auto svc = limited(/*max_pending=*/2, /*exposure_cap=*/0);
  ASSERT_TRUE(svc.evaluate_fastpay(pkg, invoice, now).accepted);
  (void)svc.accept_payment(pkg, invoice, now);
  const auto second = svc.evaluate_fastpay(second_package(), invoice, now);
  EXPECT_TRUE(second.accepted) << second.reason;
}

TEST_F(MerchantLimits, ExposureCapBoundary) {
  // Cap set to exactly one compensation: the first payment lands on the
  // boundary and is admitted; the second would exceed it.
  auto svc = limited(/*max_pending=*/0, /*exposure_cap=*/invoice.compensation);

  const auto first = svc.evaluate_fastpay(pkg, invoice, now);
  ASSERT_TRUE(first.accepted) << first.reason;
  (void)svc.accept_payment(pkg, invoice, now);
  EXPECT_EQ(svc.outstanding_exposure(dep->customer().escrow_id()), invoice.compensation);

  const auto second = svc.evaluate_fastpay(second_package(), invoice, now);
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.code, RejectReason::kExposureCap);
}

TEST_F(MerchantLimits, HugeCompensationCannotWrapCoverageCheck) {
  // Regression: with outstanding exposure s > 0, a self-signed binding
  // asking for 2^64 - s used to wrap `b.compensation + outstanding` to 0
  // and pass the coverage check, accepting unlimited exposure.
  auto svc = limited(/*max_pending=*/0, /*exposure_cap=*/0);
  ASSERT_TRUE(svc.evaluate_fastpay(pkg, invoice, now).accepted);
  (void)svc.accept_payment(pkg, invoice, now);
  const auto outstanding = svc.outstanding_exposure(dep->customer().escrow_id());
  ASSERT_GT(outstanding, 0u);

  auto evil = second_package();
  evil.binding.binding.compensation =
      std::numeric_limits<psc::Value>::max() - outstanding + 1;  // sum wraps to 0
  const auto sig = crypto::ecdsa_sign(dep->customer().btc_identity().key,
                                      evil.binding.binding.signing_digest());
  evil.binding.customer_sig = sig.serialize();

  const auto d = svc.evaluate_fastpay(evil, invoice, now);
  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.code, RejectReason::kInsufficientCollateral);
}

TEST_F(MerchantLimits, ExposureCapBelowOnePaymentRejectsImmediately) {
  auto svc = limited(/*max_pending=*/0, /*exposure_cap=*/invoice.compensation - 1);
  const auto d = svc.evaluate_fastpay(pkg, invoice, now);
  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.code, RejectReason::kExposureCap);
}

TEST_F(MerchantUnit, InvoiceIdsAreUnique) {
  const auto a = dep->merchant().make_invoice(1, 1, now, 1000);
  const auto b = dep->merchant().make_invoice(1, 1, now, 1000);
  EXPECT_NE(a.invoice_id, b.invoice_id);
}

TEST(CustomerUnit, BindingNoncesIncrement) {
  DeploymentConfig cfg;
  cfg.seed = 315;
  cfg.funded_coins = 2;
  Deployment dep(cfg);
  const auto now = static_cast<std::uint64_t>(dep.simulator().now());
  const auto invoice =
      dep.merchant().make_invoice(btc::kCoin, cfg.compensation, now, 10ULL * 60 * 1000);
  const auto coins = sim::find_spendable(dep.customer_node().chain(),
                                         dep.customer().btc_identity().script);
  auto p1 = dep.customer().create_fastpay(invoice, coins[0].first,
                                          coins[0].second.out.value, now, cfg.binding_ttl_ms);
  auto p2 = dep.customer().create_fastpay(invoice, coins[1].first,
                                          coins[1].second.out.value, now, cfg.binding_ttl_ms);
  EXPECT_EQ(p1.binding.binding.nonce + 1, p2.binding.binding.nonce);
  EXPECT_EQ(dep.customer().bindings_issued(), 2u);
}

TEST(ProtocolUnit, PackageSerializationRoundTrip) {
  DeploymentConfig cfg;
  cfg.seed = 316;
  Deployment dep(cfg);
  const auto now = static_cast<std::uint64_t>(dep.simulator().now());
  const auto invoice =
      dep.merchant().make_invoice(btc::kCoin, cfg.compensation, now, 10ULL * 60 * 1000);
  const auto coins = sim::find_spendable(dep.customer_node().chain(),
                                         dep.customer().btc_identity().script);
  const auto pkg = dep.customer().create_fastpay(invoice, coins[0].first,
                                                 coins[0].second.out.value, now,
                                                 cfg.binding_ttl_ms);
  const auto back = FastPayPackage::deserialize(pkg.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payment_tx, pkg.payment_tx);
  EXPECT_EQ(back->binding, pkg.binding);
  // The decoded binding still verifies.
  EXPECT_TRUE(back->binding.verify(dep.customer().btc_identity().pub.serialize()));
}

TEST(ProtocolUnit, BindingDigestDomainSeparated) {
  PaymentBinding b;
  b.escrow_id = 1;
  b.compensation = 5;
  const auto digest = b.signing_digest();
  // Not equal to a plain hash of the serialization (domain tag matters).
  EXPECT_NE(digest, crypto::sha256(b.serialize()));
  // And sensitive to every field.
  PaymentBinding c = b;
  c.nonce = 1;
  EXPECT_NE(c.signing_digest(), digest);
}

}  // namespace
}  // namespace btcfast::core
