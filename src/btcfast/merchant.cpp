#include "btcfast/merchant.h"

#include "common/log.h"
#include "common/thread_pool.h"
#include "crypto/batch_verify.h"

namespace btcfast::core {

MerchantService::MerchantService(sim::Party btc_identity, sim::Node& btc_node,
                                 const psc::PscChain& psc, Config config)
    : btc_(std::move(btc_identity)), btc_node_(btc_node), psc_(psc), config_(config) {}

Invoice MerchantService::make_invoice(btc::Amount amount_sat, psc::Value compensation,
                                      std::uint64_t now_ms, std::uint64_t ttl_ms) {
  Invoice inv;
  inv.invoice_id = next_invoice_id_++;
  inv.amount_sat = amount_sat;
  inv.compensation = compensation;
  inv.pay_to = btc_.script;
  inv.merchant_psc = config_.self_psc;
  inv.expires_at_ms = now_ms + ttl_ms;
  return inv;
}

std::optional<EscrowView> MerchantService::escrow_view(EscrowId id) const {
  psc::PscTx q;
  q.from = config_.self_psc;
  q.to = config_.judger;
  q.method = "getEscrow";
  q.args = encode_escrow_id_arg(id);
  const psc::Receipt r = psc_.view_call(q);
  if (!r.success) return std::nullopt;
  return PayJudger::decode_escrow_view(r.return_data);
}

psc::Value MerchantService::outstanding_exposure(EscrowId escrow) const {
  psc::Value total = 0;
  for (const auto& p : pending_) {
    if (!p.settled && !p.judged && p.package.binding.binding.escrow_id == escrow) {
      total += p.package.binding.binding.compensation;
    }
  }
  return total;
}

namespace {

AcceptDecision reject(RejectReason code, std::string why) {
  return AcceptDecision{false, std::move(why), code};
}

}  // namespace

AcceptDecision MerchantService::check_terms(const FastPayPackage& pkg, const Invoice& invoice,
                                            std::uint64_t now_ms,
                                            const std::optional<EscrowView>& escrow,
                                            psc::Value outstanding) const {
  const PaymentBinding& b = pkg.binding.binding;

  // 1. Invoice conformance.
  if (now_ms > invoice.expires_at_ms) {
    return reject(RejectReason::kInvoiceExpired, "invoice expired");
  }
  if (b.merchant != config_.self_psc) {
    return reject(RejectReason::kWrongMerchant, "binding names another merchant");
  }
  if (b.compensation < invoice.compensation) {
    return reject(RejectReason::kCompensationBelowInvoice, "compensation below invoice");
  }
  if (b.expiry_ms < now_ms + config_.dispute_after_ms + config_.binding_safety_margin_ms) {
    return reject(RejectReason::kBindingExpiresTooSoon,
                  "binding expires before a dispute could resolve");
  }
  if (b.btc_txid != pkg.payment_tx.txid()) {
    return reject(RejectReason::kTxidMismatch, "binding txid mismatch");
  }

  // 2. The BTC transaction pays the invoice.
  btc::Amount paid = 0;
  for (const auto& out : pkg.payment_tx.outputs) {
    if (out.script_pubkey == invoice.pay_to) paid += out.value;
  }
  if (paid < invoice.amount_sat) {
    return reject(RejectReason::kUnderpayment, "payment output below invoice amount");
  }

  // 3. Escrow health (caller-supplied view — no on-chain write).
  if (!escrow) return reject(RejectReason::kEscrowLookupFailed, "escrow lookup failed");
  if (escrow->state != EscrowState::kActive) {
    return reject(RejectReason::kEscrowNotActive, "escrow not active");
  }
  // Coverage: collateral net of on-chain reservations (other merchants'
  // locked exposure) and of our own unsettled optimistic acceptances.
  // `b.compensation` is attacker-chosen, so compare against the headroom
  // instead of summing with `outstanding` — a near-2^64 compensation must
  // not wrap the exposure total past the check.
  const psc::Value available =
      escrow->collateral > escrow->reserved ? escrow->collateral - escrow->reserved : 0;
  if (b.compensation > available || outstanding > available - b.compensation) {
    return reject(RejectReason::kInsufficientCollateral, "collateral would not cover exposure");
  }
  if (config_.per_escrow_exposure_cap > 0 &&
      (b.compensation > config_.per_escrow_exposure_cap ||
       outstanding > config_.per_escrow_exposure_cap - b.compensation)) {
    return reject(RejectReason::kExposureCap, "per-escrow exposure cap exceeded");
  }
  // Binding must outlive neither the escrow unlock (customer could
  // withdraw before we can dispute).
  if (escrow->unlock_time_ms < b.expiry_ms) {
    return reject(RejectReason::kEscrowUnlocksTooSoon, "escrow unlocks before binding expires");
  }
  return AcceptDecision{true, {}, RejectReason::kNone};
}

AcceptDecision MerchantService::verify_payment(const FastPayPackage& pkg, const EscrowView& escrow,
                                               const PassVerdicts* pass) const {
  const SigJobIndex no_jobs;
  const SigJobIndex& at = pass != nullptr ? pass->at : no_jobs;
  // 4. Binding signature under the escrow's registered customer key. The
  // key is only decompressed on a cache miss; a failed check then tells
  // a key that does not decode from a bad signature.
  const ByteSpan customer_key{escrow.customer_btc_key.data(), escrow.customer_btc_key.size()};
  const bool binding_ok = at.binding != SigJobIndex::kNone &&
                                  pass->jobs[at.binding].pubkey == escrow.customer_btc_key
                              ? pass->ok[at.binding] != 0
                              : pkg.binding.verify(customer_key);
  if (!binding_ok) {
    if (!crypto::PublicKey::parse(customer_key)) {
      return reject(RejectReason::kBadCustomerKey, "escrow holds an invalid customer key");
    }
    return reject(RejectReason::kBindingSigInvalid, "binding signature invalid");
  }

  // 5. BTC transaction is currently spendable and unconflicted in our view.
  if (pkg.payment_tx.inputs.empty() || pkg.payment_tx.outputs.empty()) {
    return reject(RejectReason::kMalformedTx, "malformed payment tx");
  }
  btc::Amount in_value = 0;
  for (std::size_t i = 0; i < pkg.payment_tx.inputs.size(); ++i) {
    const auto& input = pkg.payment_tx.inputs[i];
    const auto coin = btc_node_.chain().utxo().get(input.prevout);
    if (!coin) {
      return reject(RejectReason::kInputMissing,
                    "input missing or already spent: " + input.prevout.to_string());
    }
    if (auto conflict = btc_node_.mempool().spender_of(input.prevout)) {
      if (*conflict != pkg.binding.binding.btc_txid) {
        return reject(RejectReason::kInputConflict,
                      "input double-spent in mempool by " + conflict->to_string());
      }
    }
    // The pass checked this input's signature over the sighash of this
    // very coin (an outpoint's coin never changes), so its verdict stands
    // in for the signature half of verify_input.
    const std::size_t job = i < at.inputs.size() ? at.inputs[i] : SigJobIndex::kNone;
    const bool input_ok =
        job != SigJobIndex::kNone
            ? btc::pubkey_matches(input.script_sig, coin->out.script_pubkey) && pass->ok[job] != 0
            : btc::verify_input(pkg.payment_tx, i, coin->out.script_pubkey);
    if (!input_ok) {
      return reject(RejectReason::kInputSigInvalid, "payment input signature invalid");
    }
    in_value += coin->out.value;
  }
  if (in_value < pkg.payment_tx.total_output()) {
    return reject(RejectReason::kValueInflation, "payment inflates value");
  }

  return AcceptDecision{true, {}, RejectReason::kNone};
}

void MerchantService::collect_sig_checks(const FastPayPackage& pkg,
                                         const std::optional<EscrowView>& escrow,
                                         std::vector<crypto::SigCheckJob>& out,
                                         SigJobIndex* at) const {
  if (at != nullptr) at->inputs.assign(pkg.payment_tx.inputs.size(), SigJobIndex::kNone);
  // Signature k's R-parity hint: the binding's is k = 0, input i's k = 1 + i.
  const auto hint = [&pkg](std::size_t k) {
    return k < pkg.r_parity.size() ? pkg.r_parity[k] : crypto::kNoRParity;
  };
  if (escrow) {
    if (at != nullptr) at->binding = out.size();
    out.push_back({pkg.binding.binding.signing_digest(), escrow->customer_btc_key,
                   pkg.binding.customer_sig, hint(0)});
  }
  for (std::size_t i = 0; i < pkg.payment_tx.inputs.size(); ++i) {
    const auto& in = pkg.payment_tx.inputs[i];
    if (const auto coin = btc_node_.chain().utxo().get(in.prevout)) {
      if (at != nullptr) at->inputs[i] = out.size();
      out.push_back({pkg.payment_tx.signature_hash(i, coin->out.script_pubkey),
                     in.script_sig.pubkey, in.script_sig.signature, hint(1 + i)});
    }
  }
}

AcceptDecision MerchantService::evaluate_fastpay(const FastPayPackage& pkg,
                                                 const Invoice& invoice, std::uint64_t now_ms) {
  // Admission: a bounded book rejects loudly instead of growing silently.
  if (config_.max_pending_payments > 0 &&
      active_pending_count() >= config_.max_pending_payments) {
    return AcceptDecision{false, "merchant pending-payment limit reached",
                          RejectReason::kPendingLimit};
  }
  const EscrowId escrow_id = pkg.binding.binding.escrow_id;
  const auto escrow = escrow_view(escrow_id);
  const AcceptDecision terms =
      check_terms(pkg, invoice, now_ms, escrow, outstanding_exposure(escrow_id));
  if (!terms.accepted) return terms;
  return verify_payment(pkg, *escrow);
}

std::vector<AcceptDecision> MerchantService::evaluate_fastpay_batch(
    const std::vector<FastPayPackage>& pkgs, const std::vector<Invoice>& invoices,
    std::uint64_t now_ms) {
  // Phase 1: collect every signature check the sequential path would run
  // and verify them in parallel into the global caches. Escrow lookups
  // are local view calls (cheap); the curve math is the expensive part.
  std::vector<crypto::SigCheckJob> jobs;
  for (const auto& pkg : pkgs) {
    collect_sig_checks(pkg, escrow_view(pkg.binding.binding.escrow_id), jobs);
  }
  (void)crypto::batch_verify(common::ThreadPool::global(), jobs, &crypto::SigCache::global(),
                             &crypto::PubkeyPrecompCache::global());

  // Phase 2: unchanged sequential decisions. Signature checks hit the
  // cache; everything else (expiry, coverage, UTXO state) was always
  // sequential, so the outcome matches a plain loop exactly.
  std::vector<AcceptDecision> out;
  out.reserve(pkgs.size());
  for (std::size_t i = 0; i < pkgs.size(); ++i) {
    out.push_back(evaluate_fastpay(pkgs[i], invoices[i], now_ms));
  }
  return out;
}

std::vector<psc::PscTx> MerchantService::accept_payment(const FastPayPackage& pkg,
                                                        const Invoice& invoice,
                                                        std::uint64_t now_ms) {
  return accept_payment(FastPayPackage(pkg), Invoice(invoice), now_ms);
}

std::vector<psc::PscTx> MerchantService::accept_payment(FastPayPackage&& pkg, Invoice&& invoice,
                                                        std::uint64_t now_ms) {
  PendingPayment p;
  p.package = std::move(pkg);
  p.invoice = std::move(invoice);
  p.accepted_at_ms = now_ms;

  std::vector<psc::PscTx> actions;
  if (config_.reserve_payments) {
    psc::PscTx tx;
    tx.from = config_.self_psc;
    tx.to = config_.judger;
    tx.method = "reservePayment";
    tx.args = encode_open_dispute_args(p.package.binding.binding.escrow_id, p.package.binding);
    actions.push_back(std::move(tx));
    p.reserved = true;
  }

  pending_.push_back(std::move(p));
  ++active_pending_;
  // Broadcast through our own node so the network confirms it. The book
  // keeps its own copy (dispute evidence); the node's mempool and every
  // queued peer delivery share this one.
  const btc::Transaction& payment = pending_.back().package.payment_tx;
  btc_node_.receive_tx(std::make_shared<const btc::Transaction>(payment));
  return actions;
}

void MerchantService::restore_pending(const FastPayPackage& pkg, const Invoice& invoice,
                                      std::uint64_t accepted_at_ms) {
  PendingPayment p;
  p.package = pkg;
  p.invoice = invoice;
  p.accepted_at_ms = accepted_at_ms;
  // Reserved mode's on-chain reservation (if it happened) lives in the
  // contract, not in this flag; leaving it false just means poll() won't
  // try to release a reservation this process can't prove it made.
  pending_.push_back(std::move(p));
  ++active_pending_;
  if (invoice.invoice_id >= next_invoice_id_) next_invoice_id_ = invoice.invoice_id + 1;
  btc_node_.receive_tx(std::make_shared<const btc::Transaction>(pkg.payment_tx));
}

std::vector<psc::PscTx> MerchantService::poll(std::uint64_t now_ms) {
  std::vector<psc::PscTx> actions;

  for (auto& p : pending_) {
    if (p.settled || p.judged) continue;
    const PaymentBinding& b = p.package.binding.binding;
    const auto conf = btc_node_.chain().confirmations(b.btc_txid);

    if (!p.dispute_opened && conf >= config_.settle_confirmations) {
      p.settled = true;
      --active_pending_;
      BTCFAST_LOG(LogLevel::kInfo, "merchant")
          << "payment " << b.btc_txid.to_string().substr(0, 12) << " settled (" << conf
          << " conf)";
      if (p.reserved && !p.reservation_released) {
        // Free the escrow's reserved collateral now that BTC settled.
        psc::PscTx tx;
        tx.from = config_.self_psc;
        tx.to = config_.judger;
        tx.method = "releaseReservation";
        tx.args = encode_open_dispute_args(b.escrow_id, p.package.binding);
        actions.push_back(std::move(tx));
        p.reservation_released = true;
      }
      continue;
    }

    if (!p.dispute_opened) {
      if (now_ms >= p.accepted_at_ms + config_.dispute_after_ms) {
        psc::PscTx tx;
        tx.from = config_.self_psc;
        tx.to = config_.judger;
        tx.value = config_.dispute_bond;
        tx.method = "openDispute";
        tx.args = encode_open_dispute_args(b.escrow_id, p.package.binding);
        actions.push_back(std::move(tx));
        p.dispute_opened = true;
        p.last_dispute_attempt_ms = now_ms;
        BTCFAST_LOG(LogLevel::kInfo, "merchant")
            << "opening dispute for " << b.btc_txid.to_string().substr(0, 12);
      }
      continue;
    }

    // Dispute is open (or at least requested): follow its progress.
    const auto escrow = escrow_view(b.escrow_id);
    if (!escrow) continue;

    // Retry path: our openDispute never took effect (the escrow only
    // adjudicates one dispute at a time, so a concurrent dispute beats us
    // to it). Resubmit while the escrow is ACTIVE again.
    if (!p.dispute_active_seen && escrow->state == EscrowState::kActive &&
        now_ms >= p.last_dispute_attempt_ms + 5 * 60 * 1000) {
      psc::PscTx tx;
      tx.from = config_.self_psc;
      tx.to = config_.judger;
      tx.value = config_.dispute_bond;
      tx.method = "openDispute";
      tx.args = encode_open_dispute_args(b.escrow_id, p.package.binding);
      actions.push_back(std::move(tx));
      p.last_dispute_attempt_ms = now_ms;
      continue;
    }

    if (escrow->state == EscrowState::kDisputed &&
        escrow->dispute_merchant == config_.self_psc && escrow->disputed_txid == b.btc_txid) {
      p.dispute_active_seen = true;
      if (now_ms <= escrow->dispute_deadline_ms) {
        // Submit (or refresh) our header-chain evidence.
        auto headers = headers_since(btc_node_.chain(), escrow->dispute_anchor);
        if (headers && !headers->empty()) {
          // Only resubmit when our chain outweighs what the contract holds.
          crypto::U256 our_work;
          for (const auto& h : *headers) our_work += btc::header_work(h.bits);
          if (our_work > escrow->merchant_work) {
            psc::PscTx tx;
            tx.from = config_.self_psc;
            tx.to = config_.judger;
            tx.method = "submitMerchantEvidence";
            tx.args = encode_merchant_evidence_args(b.escrow_id, *headers);
            tx.gas_limit = 8'000'000;
            actions.push_back(std::move(tx));
            p.evidence_submitted = true;
          }
        }
      } else {
        // Window closed: request judgment.
        psc::PscTx tx;
        tx.from = config_.self_psc;
        tx.to = config_.judger;
        tx.method = "judge";
        tx.args = encode_escrow_id_arg(b.escrow_id);
        actions.push_back(std::move(tx));
        p.judged = true;
        --active_pending_;
      }
    } else if (escrow->state != EscrowState::kDisputed && p.dispute_active_seen) {
      // Dispute resolved (by our judge call or someone else's).
      p.judged = true;
      --active_pending_;
      if (conf >= config_.settle_confirmations) p.settled = true;
    }
  }
  return actions;
}

std::size_t MerchantService::settled_count() const noexcept {
  std::size_t n = 0;
  for (const auto& p : pending_) n += p.settled;
  return n;
}

std::size_t MerchantService::disputed_count() const noexcept {
  std::size_t n = 0;
  for (const auto& p : pending_) n += p.dispute_opened;
  return n;
}

}  // namespace btcfast::core
