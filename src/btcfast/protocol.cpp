#include "btcfast/protocol.h"

#include "crypto/sigcache.h"

namespace btcfast::core {
namespace {

constexpr char kBindingDomain[] = "btcfast/payment-binding/v1";

}  // namespace

const char* describe(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "accepted";
    case RejectReason::kInvoiceExpired: return "invoice-expired";
    case RejectReason::kWrongMerchant: return "wrong-merchant";
    case RejectReason::kCompensationBelowInvoice: return "compensation-below-invoice";
    case RejectReason::kBindingExpiresTooSoon: return "binding-expires-too-soon";
    case RejectReason::kTxidMismatch: return "txid-mismatch";
    case RejectReason::kUnderpayment: return "underpayment";
    case RejectReason::kEscrowLookupFailed: return "escrow-lookup-failed";
    case RejectReason::kEscrowNotActive: return "escrow-not-active";
    case RejectReason::kInsufficientCollateral: return "insufficient-collateral";
    case RejectReason::kEscrowUnlocksTooSoon: return "escrow-unlocks-too-soon";
    case RejectReason::kBadCustomerKey: return "bad-customer-key";
    case RejectReason::kBindingSigInvalid: return "binding-sig-invalid";
    case RejectReason::kMalformedTx: return "malformed-tx";
    case RejectReason::kInputMissing: return "input-missing";
    case RejectReason::kInputConflict: return "input-conflict";
    case RejectReason::kInputSigInvalid: return "input-sig-invalid";
    case RejectReason::kValueInflation: return "value-inflation";
    case RejectReason::kPendingLimit: return "pending-limit";
    case RejectReason::kExposureCap: return "exposure-cap";
    case RejectReason::kMalformedFrame: return "malformed-frame";
    case RejectReason::kUnknownInvoice: return "unknown-invoice";
    case RejectReason::kOverloaded: return "overloaded";
    case RejectReason::kDuplicatePayment: return "duplicate-payment";
    case RejectReason::kMaxReason: break;
  }
  return "unknown";
}

Bytes PaymentBinding::serialize() const {
  Writer w;
  w.u64le(escrow_id);
  w.bytes({btc_txid.bytes.data(), btc_txid.bytes.size()});
  w.u64le(compensation);
  w.bytes({merchant.bytes.data(), merchant.bytes.size()});
  w.u64le(expiry_ms);
  w.u64le(nonce);
  return std::move(w).take();
}

std::optional<PaymentBinding> PaymentBinding::deserialize(ByteSpan data) {
  Reader r(data);
  PaymentBinding b;
  auto escrow = r.u64le();
  auto txid = r.bytes(32);
  auto comp = r.u64le();
  auto merchant = r.bytes(20);
  auto expiry = r.u64le();
  auto nonce = r.u64le();
  if (!escrow || !txid || !comp || !merchant || !expiry || !nonce || !r.at_end()) {
    return std::nullopt;
  }
  b.escrow_id = *escrow;
  b.btc_txid.bytes = to_array<32>(*txid);
  b.compensation = *comp;
  b.merchant.bytes = to_array<20>(*merchant);
  b.expiry_ms = *expiry;
  b.nonce = *nonce;
  return b;
}

crypto::Sha256Digest PaymentBinding::signing_digest() const {
  Writer w;
  w.bytes(as_bytes(std::string(kBindingDomain)));
  w.bytes(serialize());
  return crypto::sha256(w.data());
}

Bytes SignedBinding::serialize() const {
  Writer w;
  w.bytes_with_len(binding.serialize());
  w.bytes({customer_sig.data(), customer_sig.size()});
  return std::move(w).take();
}

std::optional<SignedBinding> SignedBinding::deserialize(ByteSpan data) {
  Reader r(data);
  auto body = r.bytes_with_len(1024);
  auto sig = r.bytes(64);
  if (!body || !sig || !r.at_end()) return std::nullopt;
  auto binding = PaymentBinding::deserialize(*body);
  if (!binding) return std::nullopt;
  SignedBinding out;
  out.binding = *binding;
  out.customer_sig = to_array<64>(*sig);
  return out;
}

bool SignedBinding::verify(ByteSpan customer_key33) const {
  // Cached: the merchant checks this binding at intake and PayJudger
  // re-checks the identical triple on dispute — the second check is a
  // hash lookup.
  return crypto::verify_signature(customer_key33, binding.signing_digest(),
                                  {customer_sig.data(), customer_sig.size()});
}

Bytes Invoice::serialize() const {
  Writer w;
  w.u64le(invoice_id);
  w.i64le(amount_sat);
  w.u64le(compensation);
  w.bytes({pay_to.dest.bytes.data(), pay_to.dest.bytes.size()});
  w.bytes({merchant_psc.bytes.data(), merchant_psc.bytes.size()});
  w.u64le(expires_at_ms);
  return std::move(w).take();
}

std::optional<Invoice> Invoice::deserialize(ByteSpan data) {
  Reader r(data);
  auto id = r.u64le();
  auto amount = r.i64le();
  auto comp = r.u64le();
  auto pay_to = r.bytes(20);
  auto merchant = r.bytes(20);
  auto expires = r.u64le();
  if (!id || !amount || !comp || !pay_to || !merchant || !expires || !r.at_end()) {
    return std::nullopt;
  }
  Invoice inv;
  inv.invoice_id = *id;
  inv.amount_sat = *amount;
  inv.compensation = *comp;
  inv.pay_to.dest.bytes = to_array<20>(*pay_to);
  inv.merchant_psc.bytes = to_array<20>(*merchant);
  inv.expires_at_ms = *expires;
  return inv;
}

Bytes FastPayPackage::serialize() const {
  Writer w;
  w.bytes_with_len(payment_tx.serialize());
  w.bytes_with_len(binding.serialize());
  if (!r_parity.empty()) {
    w.varint(r_parity.size());
    Bytes packed((r_parity.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < r_parity.size(); ++i) {
      packed[i / 8] |= static_cast<std::uint8_t>((r_parity[i] & 1) << (i % 8));
    }
    w.bytes(packed);
  }
  return std::move(w).take();
}

std::optional<FastPayPackage> FastPayPackage::deserialize(ByteSpan data) {
  Reader r(data);
  auto tx_bytes = r.bytes_with_len();
  auto binding_bytes = r.bytes_with_len(2048);
  if (!tx_bytes || !binding_bytes) return std::nullopt;
  auto tx = btc::Transaction::deserialize(*tx_bytes);
  auto binding = SignedBinding::deserialize(*binding_bytes);
  if (!tx || !binding) return std::nullopt;
  FastPayPackage out;
  if (!r.at_end()) {
    // The hint field, in its one encoding: a minimal count of exactly one
    // bit per signature, and no stray bits.
    const std::size_t at = r.remaining();
    const auto count = r.varint();
    if (!count || *count != 1 + tx->inputs.size()) return std::nullopt;
    Writer minimal;
    minimal.varint(*count);
    if (at - r.remaining() != minimal.size()) return std::nullopt;
    const auto packed = r.span((*count + 7) / 8);
    if (!packed || !r.at_end()) return std::nullopt;
    if (*count % 8 != 0 && ((*packed)[packed->size() - 1] >> (*count % 8)) != 0) {
      return std::nullopt;
    }
    out.r_parity.resize(*count);
    for (std::size_t i = 0; i < *count; ++i) out.r_parity[i] = ((*packed)[i / 8] >> (i % 8)) & 1;
  }
  out.payment_tx = std::move(*tx);
  out.binding = *binding;
  return out;
}

}  // namespace btcfast::core
