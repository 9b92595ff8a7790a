#include "btc/mempool.h"

namespace btcfast::btc {

Result<Amount> check_tx_inputs(const Transaction& tx, const UtxoSet& view,
                               std::uint32_t spend_height, std::uint32_t coinbase_maturity) {
  Amount value_in = 0;
  for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
    const auto coin = view.get(tx.inputs[i].prevout);
    if (!coin) {
      return make_error("bad-txns-inputs-missingorspent", tx.inputs[i].prevout.to_string());
    }
    if (coin->coinbase && spend_height < coin->height + coinbase_maturity) {
      return make_error("bad-txns-premature-spend-of-coinbase");
    }
    if (!verify_input(tx, i, coin->out.script_pubkey)) {
      return make_error("mandatory-script-verify-flag-failed",
                        "input " + std::to_string(i) + " signature invalid");
    }
    value_in += coin->out.value;
    if (!money_range(value_in)) return make_error("bad-txns-inputvalues-outofrange");
  }
  const Amount value_out = tx.total_output();
  if (value_in < value_out) return make_error("bad-txns-in-belowout");
  return value_in - value_out;
}

Status Mempool::accept(TxRef ref, const UtxoSet& utxo, std::uint32_t chain_height,
                       std::uint32_t coinbase_maturity) {
  const Transaction& tx = *ref;
  if (tx.is_coinbase()) return make_error("coinbase", "coinbase may not enter the mempool");
  if (tx.inputs.empty() || tx.outputs.empty()) return make_error("bad-txns-empty");
  const Txid id = tx.txid();
  if (txs_.contains(id)) return make_error("txn-already-in-mempool");

  // Conflict check against the pool (the double-spend signal).
  for (const auto& in : tx.inputs) {
    if (auto spender = spender_of(in.prevout)) {
      return make_error("txn-mempool-conflict",
                        in.prevout.to_string() + " already spent by " + spender->to_string());
    }
  }

  auto fee = check_tx_inputs(tx, utxo, chain_height + 1, coinbase_maturity);
  if (!fee) return fee.error();

  for (const auto& out : tx.outputs) {
    if (!money_range(out.value)) return make_error("bad-txout-value");
  }

  for (const auto& in : tx.inputs) spends_[in.prevout] = id;
  txs_.emplace(id, std::move(ref));
  return Status::success();
}

std::optional<Transaction> Mempool::get(const Txid& txid) const {
  auto it = txs_.find(txid);
  if (it == txs_.end()) return std::nullopt;
  return *it->second;
}

std::optional<Txid> Mempool::spender_of(const OutPoint& op) const {
  auto it = spends_.find(op);
  if (it == spends_.end()) return std::nullopt;
  return it->second;
}

void Mempool::remove_for_block(const Block& block) {
  auto erase_tx = [this](const Txid& id) {
    auto it = txs_.find(id);
    if (it == txs_.end()) return;
    for (const auto& in : it->second->inputs) spends_.erase(in.prevout);
    txs_.erase(it);
  };

  for (const auto& tx : block.txs) {
    erase_tx(tx.txid());
    // Also evict pool txs that conflict with a confirmed spend.
    for (const auto& in : tx.inputs) {
      if (auto conflicting = spender_of(in.prevout)) erase_tx(*conflicting);
    }
  }
}

std::vector<Transaction> Mempool::drain() {
  std::vector<Transaction> out;
  out.reserve(txs_.size());
  for (const auto& [id, tx] : txs_) out.push_back(*tx);
  txs_.clear();
  spends_.clear();
  return out;
}

std::vector<Transaction> Mempool::snapshot() const {
  std::vector<Transaction> out;
  out.reserve(txs_.size());
  for (const auto& [id, tx] : txs_) out.push_back(*tx);
  return out;
}

}  // namespace btcfast::btc
