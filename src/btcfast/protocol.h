// BTCFast protocol messages. The heart of the fast path is the
// PaymentBinding: a customer-signed statement tying a specific Bitcoin
// txid to an escrow on the PSC chain. The merchant accepts a payment the
// instant it holds (a) a well-formed BTC transaction paying it and (b) a
// valid binding whose escrow covers the amount — no on-chain interaction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "btc/script.h"
#include "btc/transaction.h"
#include "common/serialize.h"
#include "crypto/ecdsa.h"
#include "psc/address.h"
#include "psc/state.h"

namespace btcfast::core {

using EscrowId = std::uint64_t;

/// The customer's signed commitment: "if BTC tx `btc_txid` fails to
/// confirm, escrow `escrow_id` owes `compensation` to `merchant`".
struct PaymentBinding {
  EscrowId escrow_id = 0;
  btc::Txid btc_txid{};
  psc::Value compensation = 0;   ///< PSC-chain units paid out if judged for merchant
  psc::Address merchant{};       ///< payout destination on the PSC chain
  std::uint64_t expiry_ms = 0;   ///< dispute must open before this (sim ms)
  std::uint64_t nonce = 0;       ///< uniquifies bindings within an escrow

  [[nodiscard]] bool operator==(const PaymentBinding& o) const noexcept = default;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<PaymentBinding> deserialize(ByteSpan data);

  /// Digest the customer signs (domain-separated).
  [[nodiscard]] crypto::Sha256Digest signing_digest() const;
};

/// A binding plus the customer's signature over it.
struct SignedBinding {
  PaymentBinding binding;
  ByteArray<64> customer_sig{};

  [[nodiscard]] bool operator==(const SignedBinding& o) const noexcept = default;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<SignedBinding> deserialize(ByteSpan data);

  /// Verify against the customer's binding key (the 33-byte compressed
  /// key registered in the escrow at deposit time). False for a key that
  /// does not decode.
  [[nodiscard]] bool verify(ByteSpan customer_key33) const;
};

/// What a merchant quotes to a customer.
struct Invoice {
  std::uint64_t invoice_id = 0;
  btc::Amount amount_sat = 0;
  psc::Value compensation = 0;        ///< required binding compensation
  btc::ScriptPubKey pay_to{};         ///< merchant's BTC destination
  psc::Address merchant_psc{};        ///< merchant's PSC payout address
  std::uint64_t expires_at_ms = 0;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<Invoice> deserialize(ByteSpan data);
};

/// The fast-pay message: everything the merchant needs to decide.
///
/// Wire layout: varint-length payment_tx, varint-length SignedBinding,
/// then — only when `r_parity` is non-empty — a varint count equal to
/// 1 + the number of inputs, followed by the bits packed LSB-first into
/// ceil(count / 8) bytes whose unused high bits are zero. A package
/// without the field is the pre-hint encoding and still decodes; a field
/// of any other shape fails the decode.
struct FastPayPackage {
  btc::Transaction payment_tx;
  SignedBinding binding;
  /// Verify hints, one per signature: the y parity (0 or 1) of the
  /// binding signature's effective nonce point R, then of each input's,
  /// as crypto::ecdsa_sign reports it. Empty when the sender gave none.
  /// The merchant lifts R from r with it to check a window's signatures
  /// as one batch equation; a wrong bit costs time, never a verdict.
  std::vector<std::uint8_t> r_parity;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<FastPayPackage> deserialize(ByteSpan data);
};

/// Machine-readable rejection codes for the fast-pay acceptance path.
/// The human-oriented `reason` string stays authoritative for logs; the
/// code is what the gateway wire protocol and per-reason counters key on.
enum class RejectReason : std::uint16_t {
  kNone = 0,  ///< accepted (no rejection)
  // Invoice / binding conformance.
  kInvoiceExpired = 1,
  kWrongMerchant = 2,
  kCompensationBelowInvoice = 3,
  kBindingExpiresTooSoon = 4,
  kTxidMismatch = 5,
  kUnderpayment = 6,
  // Escrow health.
  kEscrowLookupFailed = 7,
  kEscrowNotActive = 8,
  kInsufficientCollateral = 9,
  kEscrowUnlocksTooSoon = 10,
  kBadCustomerKey = 11,
  // Signatures and transaction validity.
  kBindingSigInvalid = 12,
  kMalformedTx = 13,
  kInputMissing = 14,
  kInputConflict = 15,
  kInputSigInvalid = 16,
  kValueInflation = 17,
  // Merchant-side admission limits (MerchantService::Config).
  kPendingLimit = 18,
  kExposureCap = 19,
  // Gateway serving-layer codes.
  kMalformedFrame = 20,
  kUnknownInvoice = 21,
  kOverloaded = 22,  ///< shed with RetryAfter; resubmit later
  /// The payment's BTC txid already holds a live reservation on its
  /// escrow: a replay of an accepted package gets no second hold and
  /// records no receipt, so GetReceipt keeps returning the original
  /// decision.
  kDuplicatePayment = 23,
  kMaxReason = 24,   ///< array-sizing sentinel, never returned
};

/// Stable short slug for a rejection code (stats keys, wire diagnostics).
[[nodiscard]] const char* describe(RejectReason reason) noexcept;

/// Merchant-side acceptance decision with diagnostics.
struct AcceptDecision {
  bool accepted = false;
  std::string reason;                       ///< populated on rejection
  RejectReason code = RejectReason::kNone;  ///< machine-readable mirror of `reason`
};

}  // namespace btcfast::core
