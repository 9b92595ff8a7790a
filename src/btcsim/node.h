// A simulated Bitcoin node: full chain + mempool + relay behaviour +
// orphan management. Nodes communicate only through the Network, which
// imposes propagation latency.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btc/chain.h"
#include "btc/mempool.h"
#include "btc/script.h"

namespace btcfast::sim {

class Network;

using NodeId = int;

class Node {
 public:
  Node(NodeId id, btc::ChainParams params, Network* network);

  /// Deliver a transaction (validates into the mempool; relays if new).
  /// The mempool and every relay delivery share `tx` itself.
  void receive_tx(btc::TxRef tx);
  void receive_tx(const btc::Transaction& tx) {
    receive_tx(std::make_shared<const btc::Transaction>(tx));
  }
  /// Deliver a block (submits to the chain; relays; unblocks orphans;
  /// re-validates transactions disconnected by reorgs).
  void receive_block(const btc::Block& block);

  /// Build a block template on the current tip from mempool contents.
  [[nodiscard]] btc::Block assemble_block(const btc::ScriptPubKey& coinbase_dest,
                                          std::uint32_t time_s);

  /// Anti-entropy pull: if the peer's chain has more work, fetch its
  /// missing blocks (recovery path for lossy networks).
  void catch_up_from(const Node& peer);

  [[nodiscard]] btc::Chain& chain() noexcept { return chain_; }
  [[nodiscard]] const btc::Chain& chain() const noexcept { return chain_; }
  [[nodiscard]] btc::Mempool& mempool() noexcept { return mempool_; }
  [[nodiscard]] const btc::Mempool& mempool() const noexcept { return mempool_; }
  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Counters for experiment reporting.
  [[nodiscard]] std::size_t blocks_seen() const noexcept { return seen_blocks_.size(); }
  [[nodiscard]] std::size_t reorgs() const noexcept { return reorg_count_; }

 private:
  void try_connect_orphans(const btc::BlockHash& parent);

  NodeId id_;
  btc::Chain chain_;
  btc::Mempool mempool_;
  Network* network_;  ///< non-owning; the Network owns the nodes

  std::unordered_set<btc::BlockHash, btc::Hash256Hasher> seen_blocks_;
  std::unordered_set<btc::Txid, btc::Hash256Hasher> seen_txs_;
  std::unordered_map<btc::BlockHash, std::vector<btc::Block>, btc::Hash256Hasher> orphans_;
  std::size_t reorg_count_ = 0;
};

}  // namespace btcfast::sim
