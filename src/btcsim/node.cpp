#include "btcsim/node.h"

#include "btcsim/network.h"
#include "common/log.h"

namespace btcfast::sim {

Node::Node(NodeId id, btc::ChainParams params, Network* network)
    : id_(id), chain_(std::move(params)), network_(network) {
  seen_blocks_.insert(chain_.tip_hash());
}

void Node::receive_tx(btc::TxRef tx) {
  const btc::Txid id = tx->txid();
  if (!seen_txs_.insert(id).second) return;

  const Status s =
      mempool_.accept(tx, chain_.utxo(), chain_.height(), chain_.params().coinbase_maturity);
  if (!s.ok()) {
    BTCFAST_LOG(LogLevel::kDebug, "node") << "node " << id_ << " rejected tx "
                                          << id.to_string().substr(0, 12) << ": "
                                          << s.error().to_string();
    return;
  }
  if (network_ != nullptr) network_->broadcast_tx(id_, std::move(tx));
}

void Node::receive_block(const btc::Block& block) {
  const btc::BlockHash hash = block.hash();
  if (!seen_blocks_.insert(hash).second) return;

  std::string why;
  const btc::SubmitResult r = chain_.submit_block(block, &why);
  switch (r) {
    case btc::SubmitResult::kOrphan:
      // Park until the parent shows up; allow re-delivery then.
      seen_blocks_.erase(hash);
      orphans_[block.header.prev_hash].push_back(block);
      return;
    case btc::SubmitResult::kInvalid:
      BTCFAST_LOG(LogLevel::kDebug, "node")
          << "node " << id_ << " rejected block: " << why;
      return;
    case btc::SubmitResult::kDuplicate:
      return;
    case btc::SubmitResult::kActiveTip: {
      // Evict confirmed/conflicting txs; resurrect reorg losers.
      mempool_.remove_for_block(block);
      auto disconnected = chain_.take_disconnected_txs();
      if (!disconnected.empty()) {
        ++reorg_count_;
        for (auto& tx : disconnected) {
          (void)mempool_.accept(std::make_shared<const btc::Transaction>(std::move(tx)),
                                chain_.utxo(), chain_.height(),
                                chain_.params().coinbase_maturity);
        }
      }
      break;
    }
    case btc::SubmitResult::kSideChain:
      break;
  }

  if (network_ != nullptr) network_->broadcast_block(id_, block);
  try_connect_orphans(hash);
}

void Node::catch_up_from(const Node& peer) {
  const btc::Chain& pc = peer.chain();
  if (pc.tip_work() <= chain_.tip_work()) return;

  // Collect peer blocks from its tip down to our first known ancestor.
  std::vector<btc::Block> missing;
  btc::BlockHash cursor = pc.tip_hash();
  while (!chain_.get_block(cursor).has_value()) {
    const auto b = pc.get_block(cursor);
    if (!b) break;  // defensive; the peer's active chain is contiguous
    cursor = b->header.prev_hash;
    missing.push_back(*b);
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) receive_block(*it);
}

void Node::try_connect_orphans(const btc::BlockHash& parent) {
  auto it = orphans_.find(parent);
  if (it == orphans_.end()) return;
  const std::vector<btc::Block> children = std::move(it->second);
  orphans_.erase(it);
  for (const auto& child : children) receive_block(child);
}

btc::Block Node::assemble_block(const btc::ScriptPubKey& coinbase_dest, std::uint32_t time_s) {
  btc::Block b;
  b.header.version = 1;
  b.header.prev_hash = chain_.tip_hash();
  b.header.time = std::max(time_s, chain_.tip_header().time + 1);
  b.header.bits = chain_.next_work_required(b.header.prev_hash);

  btc::Transaction cb;
  btc::TxIn in;
  in.prevout.index = 0xffffffff;
  // Salt with height and node id so coinbase txids are unique per miner.
  in.sequence = (chain_.height() + 1) * 1000 + static_cast<std::uint32_t>(id_);
  cb.inputs.push_back(in);
  cb.outputs.push_back(btc::TxOut{chain_.params().subsidy, coinbase_dest});
  b.txs.push_back(cb);

  // Greedy: include every mempool tx that still validates in order.
  // (Chained mempool spends are excluded by mempool policy, so a single
  // pass against the confirmed UTXO set is sound.)
  for (const auto& tx : mempool_.snapshot()) b.txs.push_back(tx);

  b.seal_merkle_root();
  return b;
}

}  // namespace btcfast::sim
