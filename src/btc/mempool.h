// The memory pool of unconfirmed transactions, with the double-spend
// conflict detection that underpins the whole fast-payment problem: a
// merchant seeing tx A in its mempool can be defeated by a conflicting
// tx B confirming instead.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "btc/block.h"
#include "btc/transaction.h"
#include "btc/types.h"
#include "btc/utxo.h"
#include "common/result.h"

namespace btcfast::btc {

class Mempool {
 public:
  /// Validate and accept a transaction against the confirmed UTXO set.
  /// Rules: inputs exist and are unspent (both on-chain and in-pool),
  /// scripts verify, no value inflation, coinbase maturity respected.
  /// First-seen wins: a conflicting spend is rejected ("txn-mempool-conflict").
  /// The pool keeps `tx` itself, not a copy.
  Status accept(TxRef tx, const UtxoSet& utxo, std::uint32_t chain_height,
                std::uint32_t coinbase_maturity);

  [[nodiscard]] bool contains(const Txid& txid) const { return txs_.contains(txid); }
  [[nodiscard]] std::optional<Transaction> get(const Txid& txid) const;

  /// The txid currently spending an outpoint in the pool, if any. This is
  /// how a monitoring merchant *detects* an attempted double spend.
  [[nodiscard]] std::optional<Txid> spender_of(const OutPoint& op) const;

  /// Remove every pool tx confirmed by (or conflicting with) the block.
  void remove_for_block(const Block& block);

  /// Remove and return everything (reorg support; caller revalidates).
  [[nodiscard]] std::vector<Transaction> drain();

  [[nodiscard]] std::size_t size() const noexcept { return txs_.size(); }
  [[nodiscard]] std::vector<Transaction> snapshot() const;

 private:
  std::unordered_map<Txid, TxRef, Hash256Hasher> txs_;
  std::unordered_map<OutPoint, Txid, OutPointHasher> spends_;
};

/// Shared input-level validation used by both mempool and block connect:
/// checks existence, maturity, scripts and value conservation of `tx`
/// against `view`. Returns the fee on success.
[[nodiscard]] Result<Amount> check_tx_inputs(const Transaction& tx, const UtxoSet& view,
                                             std::uint32_t spend_height,
                                             std::uint32_t coinbase_maturity);

}  // namespace btcfast::btc
