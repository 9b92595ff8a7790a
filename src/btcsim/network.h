// The simulated P2P network: owns the nodes and delivers broadcasts with
// configurable propagation latency (base + jitter), plus failure
// injection (loss, duplication) and node isolation.
#pragma once

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "btcsim/event.h"
#include "btcsim/node.h"
#include "common/rng.h"

namespace btcfast::sim {

struct NetworkConfig {
  SimTime base_latency = 50;    ///< ms, one hop
  SimTime jitter = 50;          ///< uniform extra delay in [0, jitter)
  /// Probability each individual delivery is silently dropped (failure
  /// injection). Pair with enable_sync() so nodes re-converge.
  double loss_rate = 0.0;
  /// Probability each delivery is additionally delivered a second time
  /// after an independent latency sample (at-least-once networks; nodes
  /// must dedupe).
  double dup_rate = 0.0;
};

/// One observable network-layer event, reported to the registered
/// observer. Deliveries fire when the message arrives at `to` (after
/// latency); drops and duplicates fire at send time.
struct NetEvent {
  enum class Kind {
    kTxDelivered,
    kBlockDelivered,
    kTxDropped,
    kBlockDropped,
    kTxDuplicated,
    kBlockDuplicated,
    kNodeIsolated,
    kNodeReleased,
  };
  Kind kind;
  NodeId from = -1;
  NodeId to = -1;
  SimTime at = 0;
};

class Network {
 public:
  using Observer = std::function<void(const NetEvent&)>;

  Network(Simulator& sim, btc::ChainParams params, NetworkConfig config, std::uint64_t seed);

  /// Create a node; returns its id. Topology is a full mesh.
  NodeId add_node();

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Relay a transaction from `from` to every other node after latency.
  /// Every queued delivery holds `tx` itself, not a copy.
  void broadcast_tx(NodeId from, btc::TxRef tx);
  /// Relay a block likewise.
  void broadcast_block(NodeId from, const btc::Block& block);

  /// Inject a tx/block at a node at the current time (origin of traffic).
  void submit_tx(NodeId at, const btc::Transaction& tx) { node(at).receive_tx(tx); }
  void submit_block(NodeId at, const btc::Block& block) { node(at).receive_block(block); }

  [[nodiscard]] Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const btc::ChainParams& params() const noexcept { return params_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }

  /// Messages delivered so far (diagnostics).
  [[nodiscard]] std::uint64_t deliveries() const noexcept { return deliveries_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }

  /// Start periodic anti-entropy: every `period` each node pulls missing
  /// blocks from one random peer. Makes lossy networks converge.
  void enable_sync(SimTime period);

  /// Runtime failure-injection control (scenario fuzzing changes rates at
  /// epoch boundaries). The fault stream is independent of the latency
  /// stream, so toggling a rate mid-run never perturbs the latency
  /// schedule of unaffected deliveries.
  void set_loss_rate(double p) noexcept { config_.loss_rate = p; }
  void set_dup_rate(double p) noexcept { config_.dup_rate = p; }

  /// Eclipse a node: it neither receives nor relays anything until
  /// released (direct submit_* at the node itself still works, modelling
  /// the eclipsing adversary's private feed).
  void set_isolated(NodeId id, bool isolated);
  [[nodiscard]] bool is_isolated(NodeId id) const {
    return isolated_.contains(id);
  }

  /// Register a hook invoked on every network-layer event (delivery,
  /// drop, duplicate, isolation change). The testkit invariant harness
  /// evaluates protocol invariants from here. Pass nullptr to clear.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

 private:
  [[nodiscard]] SimTime sample_latency();
  void sync_round();
  void notify(NetEvent::Kind kind, NodeId from, NodeId to);

  Simulator& sim_;
  btc::ChainParams params_;
  NetworkConfig config_;
  // Independent deterministic streams, all derived from the scenario
  // seed: faults (loss/dup draws), latency jitter, and anti-entropy peer
  // selection. Separate streams keep runs byte-identical when one
  // consumer's draw count changes (e.g. a loss-rate epoch toggles) and
  // carry no platform dependence (xoshiro256**, never std::random_device
  // or wall-clock seeding).
  Rng fault_rng_;
  Rng latency_rng_;
  Rng sync_rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  SimTime sync_period_ = 0;
  std::unordered_set<NodeId> isolated_;
  Observer observer_;
};

}  // namespace btcfast::sim
