#include "btcsim/network.h"

namespace btcfast::sim {

namespace {
// splitmix64 step — used to derive independent sub-stream seeds from the
// single scenario seed so each Rng starts decorrelated.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Network::Network(Simulator& sim, btc::ChainParams params, NetworkConfig config,
                 std::uint64_t seed)
    : sim_(sim),
      params_(std::move(params)),
      config_(config),
      fault_rng_(derive_seed(seed, 0)),
      latency_rng_(derive_seed(seed, 1)),
      sync_rng_(derive_seed(seed, 2)) {}

NodeId Network::add_node() {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, params_, this));
  return id;
}

SimTime Network::sample_latency() {
  SimTime lat = config_.base_latency;
  if (config_.jitter > 0) {
    lat += static_cast<SimTime>(latency_rng_.below(static_cast<std::uint64_t>(config_.jitter)));
  }
  return lat;
}

void Network::notify(NetEvent::Kind kind, NodeId from, NodeId to) {
  if (observer_) observer_(NetEvent{kind, from, to, sim_.now()});
}

void Network::set_isolated(NodeId id, bool isolated) {
  if (isolated) {
    isolated_.insert(id);
    notify(NetEvent::Kind::kNodeIsolated, id, id);
  } else {
    isolated_.erase(id);
    notify(NetEvent::Kind::kNodeReleased, id, id);
  }
}

void Network::broadcast_tx(NodeId from, btc::TxRef tx) {
  if (isolated_.contains(from)) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeId to = static_cast<NodeId>(i);
    if (to == from) continue;
    if (isolated_.contains(to)) continue;
    if (config_.loss_rate > 0 && fault_rng_.chance(config_.loss_rate)) {
      ++drops_;
      notify(NetEvent::Kind::kTxDropped, from, to);
      continue;
    }
    Node* dest = nodes_[i].get();
    int copies = 1;
    if (config_.dup_rate > 0 && fault_rng_.chance(config_.dup_rate)) {
      ++duplicates_;
      notify(NetEvent::Kind::kTxDuplicated, from, to);
      ++copies;
    }
    for (int c = 0; c < copies; ++c) {
      ++deliveries_;
      sim_.schedule_in(sample_latency(), [this, from, to, dest, tx] {
        dest->receive_tx(tx);
        notify(NetEvent::Kind::kTxDelivered, from, to);
      });
    }
  }
}

void Network::broadcast_block(NodeId from, const btc::Block& block) {
  if (isolated_.contains(from)) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeId to = static_cast<NodeId>(i);
    if (to == from) continue;
    if (isolated_.contains(to)) continue;
    if (config_.loss_rate > 0 && fault_rng_.chance(config_.loss_rate)) {
      ++drops_;
      notify(NetEvent::Kind::kBlockDropped, from, to);
      continue;
    }
    Node* dest = nodes_[i].get();
    int copies = 1;
    if (config_.dup_rate > 0 && fault_rng_.chance(config_.dup_rate)) {
      ++duplicates_;
      notify(NetEvent::Kind::kBlockDuplicated, from, to);
      ++copies;
    }
    for (int c = 0; c < copies; ++c) {
      ++deliveries_;
      sim_.schedule_in(sample_latency(), [this, from, to, dest, block] {
        dest->receive_block(block);
        notify(NetEvent::Kind::kBlockDelivered, from, to);
      });
    }
  }
}

void Network::enable_sync(SimTime period) {
  sync_period_ = period;
  sim_.schedule_in(period, [this] { sync_round(); });
}

void Network::sync_round() {
  if (nodes_.size() >= 2) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (isolated_.contains(static_cast<NodeId>(i))) continue;
      std::size_t j = static_cast<std::size_t>(sync_rng_.below(nodes_.size() - 1));
      if (j >= i) ++j;  // any peer but self
      if (isolated_.contains(static_cast<NodeId>(j))) continue;
      nodes_[i]->catch_up_from(*nodes_[j]);
    }
  }
  if (sync_period_ > 0) sim_.schedule_in(sync_period_, [this] { sync_round(); });
}

}  // namespace btcfast::sim
