#include "btcfast/customer.h"

namespace btcfast::core {

CustomerWallet::CustomerWallet(sim::Party btc_identity, psc::Address psc_address,
                               EscrowId escrow_id)
    : btc_(std::move(btc_identity)), psc_address_(psc_address), escrow_id_(escrow_id) {}

psc::PscTx CustomerWallet::make_deposit_tx(const psc::Address& judger, psc::Value collateral,
                                           std::uint64_t unlock_delay_ms) const {
  psc::PscTx tx;
  tx.from = psc_address_;
  tx.to = judger;
  tx.value = collateral;
  tx.method = "deposit";
  tx.args = encode_deposit_args(escrow_id_, unlock_delay_ms, btc_.pub.serialize());
  return tx;
}

psc::PscTx CustomerWallet::make_withdraw_tx(const psc::Address& judger) const {
  psc::PscTx tx;
  tx.from = psc_address_;
  tx.to = judger;
  tx.method = "withdraw";
  tx.args = encode_escrow_id_arg(escrow_id_);
  return tx;
}

psc::PscTx CustomerWallet::make_topup_tx(const psc::Address& judger, psc::Value amount) const {
  psc::PscTx tx;
  tx.from = psc_address_;
  tx.to = judger;
  tx.value = amount;
  tx.method = "topUp";
  tx.args = encode_escrow_id_arg(escrow_id_);
  return tx;
}

FastPayPackage CustomerWallet::create_fastpay(const Invoice& invoice, const btc::OutPoint& coin,
                                              btc::Amount coin_value, std::uint64_t now_ms,
                                              std::uint64_t binding_ttl_ms) {
  FastPayPackage pkg;
  bool input_odd = false;
  pkg.payment_tx = sim::build_payment(btc_, coin, coin_value, invoice.pay_to,
                                      invoice.amount_sat, sim::kDefaultPaymentFee, &input_odd);

  PaymentBinding binding;
  binding.escrow_id = escrow_id_;
  binding.btc_txid = pkg.payment_tx.txid();
  binding.compensation = invoice.compensation;
  binding.merchant = invoice.merchant_psc;
  binding.expiry_ms = now_ms + binding_ttl_ms;
  binding.nonce = next_nonce_++;

  pkg.binding.binding = binding;
  bool binding_odd = false;
  const auto sig = crypto::ecdsa_sign(btc_.key, binding.signing_digest(), &binding_odd);
  pkg.binding.customer_sig = sig.serialize();
  pkg.r_parity = {binding_odd, input_odd};
  return pkg;
}

std::optional<psc::PscTx> CustomerWallet::make_defense_tx(const btc::Chain& btc_view,
                                                          const EscrowView& escrow,
                                                          const psc::Address& judger,
                                                          std::uint32_t required_depth) const {
  if (escrow.state != EscrowState::kDisputed) return std::nullopt;
  auto evidence = build_inclusion_evidence(btc_view, escrow.dispute_anchor,
                                           escrow.disputed_txid, required_depth);
  if (!evidence) return std::nullopt;

  psc::PscTx tx;
  tx.from = psc_address_;
  tx.to = judger;
  tx.method = "submitCustomerEvidence";
  tx.args = encode_customer_evidence_args(escrow_id_, evidence->headers, evidence->proof,
                                          evidence->header_index);
  tx.gas_limit = 8'000'000;  // evidence verification is the costly path
  return tx;
}

}  // namespace btcfast::core
