// End-to-end deployment of BTCFast inside the simulator: a Bitcoin
// network (honest miners + optional attacking customer), a PSC chain
// running PayJudger, and the customer / merchant / relayer processes.
// Tests, examples and benches all drive scenarios through this.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include <string>

#include "btcfast/customer.h"
#include "btcfast/merchant.h"
#include "btcfast/relayer.h"
#include "btcfast/watchtower.h"
#include "btcsim/attacker.h"
#include "btcsim/miner.h"
#include "common/thread_pool.h"
#include "store/recovery.h"

namespace btcfast::core {

struct DeploymentConfig {
  std::uint32_t honest_miners = 3;
  /// Attacker (== customer) hash share. 0 disables secret mining entirely.
  double attacker_share = 0.0;
  int attacker_give_up_deficit = 12;
  /// Public confirmations of the payment the attacker waits for before it
  /// will release its secret chain. Against a BTCFast merchant the goods
  /// ship instantly, so the rational attacker releases as soon as it is
  /// ahead (0). Against a k-conf baseline merchant, set to k.
  std::uint32_t attacker_release_confirmations = 0;

  std::uint32_t required_depth = 6;         ///< k in PayJudger
  std::uint32_t settle_confirmations = 6;   ///< merchant settles at this depth
  std::uint64_t evidence_window_ms = 60 * 60 * 1000;
  std::uint64_t dispute_after_ms = 90 * 60 * 1000;
  std::uint64_t binding_ttl_ms = 24ULL * 60 * 60 * 1000;

  psc::Value collateral = 10'000'000;
  psc::Value compensation = 1'000'000;
  psc::Value dispute_bond = 10'000;
  std::uint64_t escrow_unlock_delay_ms = 48ULL * 60 * 60 * 1000;
  std::uint64_t psc_block_interval_ms = 13'000;

  std::uint64_t poll_interval_ms = 60'000;  ///< merchant/customer monitors
  std::uint32_t relayer_lag_blocks = 30;
  /// Reserved mode: merchants lock exposure on-chain per payment
  /// (cross-merchant safety at ~1 call/payment; see MerchantService).
  bool reserve_payments = false;
  /// When false, the customer never defends its own disputes (models an
  /// offline customer — the availability gap the watchtower closes).
  bool customer_online = true;
  /// Run a Watchtower protecting the customer's escrow from an
  /// independent Bitcoin view.
  bool watchtower_enabled = false;

  /// When non-empty, open a DurableStore at this directory and attach it
  /// to the watchtower (and to any gateway the caller wires up via
  /// Deployment::store()). Restart toggles then actually drop in-memory
  /// state and recover from disk instead of pretending.
  std::string store_dir;
  store::StoreOptions store_options{};

  std::uint64_t seed = 1;
  sim::NetworkConfig net{};
  btc::Amount funded_coins = 4;  ///< mature coinbases granted to the customer

  /// Bitcoin consensus parameters for the simulated network. The default
  /// regtest difficulty (~2^16 hashes/block) keeps PoW honest; the
  /// scenario fuzzer lowers it to afford hundreds of deployments per run.
  btc::ChainParams params = btc::ChainParams::regtest();

  /// Worker threads for the verification engine (serve_batch's decode
  /// and batch signature checks, evaluate_fastpay_batch's, parallel
  /// evidence PoW hashing). Defaults to one
  /// pinned worker per allowed CPU (ThreadPool::hardware_workers()), so
  /// the composed serving stack uses every core; a pass never wakes the
  /// worker on its caller's CPU. 0 = inline execution on the calling
  /// thread. Responses,
  /// decisions and gas accounting are identical for every value; only
  /// wall-clock changes. Applied to the process-global pool at Deployment
  /// construction.
  std::size_t verify_threads = common::ThreadPool::hardware_workers();
};

/// Result of one fast payment attempt.
struct FastPayResult {
  bool accepted = false;
  std::string reject_reason;
  double decision_micros = 0.0;    ///< measured CPU time of evaluate_fastpay
  SimTime message_latency_ms = 0;  ///< simulated C->M network delay
  btc::Txid txid{};
  Invoice invoice{};
};

/// Snapshot of the world after a run.
struct DeploymentSummary {
  std::uint32_t btc_height = 0;
  std::uint64_t psc_blocks = 0;
  std::size_t payments_settled = 0;
  std::size_t disputes_opened = 0;
  std::size_t judged_for_merchant = 0;
  std::size_t judged_for_customer = 0;
  psc::Value merchant_psc_balance = 0;
  psc::Value customer_psc_balance = 0;
  psc::Value escrow_collateral = 0;
  EscrowState escrow_state = EscrowState::kEmpty;
  psc::Gas total_gas_used = 0;
};

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config);

  /// One fast payment: invoice -> customer package -> merchant decision.
  /// On acceptance the payment tx is broadcast; if the deployment has an
  /// attacker share, the customer simultaneously starts the secret race.
  FastPayResult perform_fastpay(btc::Amount amount_sat);

  /// Advance simulated time (all processes run inside).
  void run_for(SimTime duration);

  [[nodiscard]] DeploymentSummary summarize() const;

  // --- component access for focused tests ---
  [[nodiscard]] sim::Simulator& simulator() noexcept { return *sim_; }
  [[nodiscard]] sim::Network& network() noexcept { return *net_; }
  [[nodiscard]] psc::PscChain& psc() noexcept { return *psc_; }
  [[nodiscard]] CustomerWallet& customer() noexcept { return *customer_; }
  [[nodiscard]] MerchantService& merchant() noexcept { return *merchant_; }
  [[nodiscard]] Relayer& relayer() noexcept { return *relayer_; }
  [[nodiscard]] Watchtower* watchtower() noexcept { return watchtower_.get(); }
  [[nodiscard]] const psc::Address& judger_address() const noexcept { return judger_addr_; }
  [[nodiscard]] sim::Node& merchant_node() noexcept { return net_->node(merchant_node_id_); }
  [[nodiscard]] sim::Node& customer_node() noexcept { return net_->node(customer_node_id_); }
  [[nodiscard]] sim::NodeId merchant_node_id() const noexcept { return merchant_node_id_; }
  [[nodiscard]] sim::NodeId customer_node_id() const noexcept { return customer_node_id_; }
  [[nodiscard]] const std::vector<sim::NodeId>& miner_node_ids() const noexcept {
    return miner_node_ids_;
  }
  [[nodiscard]] const DeploymentConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::optional<EscrowView> escrow_view() const;

  // --- state-inspection accessors for the testkit invariant harness ---
  [[nodiscard]] const psc::Address& customer_psc_address() const noexcept { return customer_psc_; }
  [[nodiscard]] const psc::Address& merchant_psc_address() const noexcept { return merchant_psc_; }
  [[nodiscard]] const PayJudgerConfig& judger_config() const noexcept { return judger_cfg_; }
  [[nodiscard]] const sim::DoubleSpendAttacker* attacker() const noexcept {
    return attacker_.get();
  }
  /// Every PSC transaction the deployment submitted, as (method, tx id).
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>& submitted_txs()
      const noexcept {
    return submitted_txs_;
  }

  // --- crash/restart fault injection (scenario fuzzing) ---
  /// While offline a process is simply not pumped on the monitor tick; it
  /// keeps its in-memory state, modelling a crash + restart of the same
  /// process rather than a wipe.
  void set_watchtower_online(bool online) noexcept { watchtower_online_ = online; }
  /// Durable-store variant of a watchtower restart: discards the tower's
  /// in-memory state entirely, closes the store, reopens it from disk
  /// (snapshot + WAL replay) and rebuilds the tower from the recovered
  /// image. Returns true iff recovery succeeded AND the recovered state
  /// image is byte-identical to the pre-crash one (exactness check).
  /// Requires `store_dir` configured and the watchtower enabled. Any
  /// gateway holding the old store pointer must re-attach afterwards.
  [[nodiscard]] bool restart_watchtower_from_store();
  /// Replication failover: swap in a promoted follower's store as the new
  /// primary handle. The watchtower, if enabled, re-attaches and restores
  /// from the adopted image; any gateway holding the old pointer must
  /// re-attach afterwards.
  void adopt_store(std::unique_ptr<store::DurableStore> store);
  [[nodiscard]] store::DurableStore* store() noexcept { return store_.get(); }
  [[nodiscard]] const store::RecoveryInfo& last_recovery() const noexcept {
    return last_recovery_;
  }
  void set_relayer_online(bool online) noexcept { relayer_online_ = online; }
  void set_customer_online(bool online) noexcept { config_.customer_online = online; }
  [[nodiscard]] bool watchtower_online() const noexcept { return watchtower_online_; }
  [[nodiscard]] bool relayer_online() const noexcept { return relayer_online_; }

  /// Gas used by a named receipt class (diagnostics for E4).
  [[nodiscard]] std::vector<psc::Receipt> receipts_for(const std::string& method) const;

  /// Alternate acceptance path, used to route perform_fastpay through the
  /// gateway serving layer instead of calling the merchant directly. The
  /// route returns the decision plus any PSC transactions to submit, and
  /// owns the merchant bookkeeping (accept_payment) for accepted
  /// payments; the deployment still submits the returned txs and runs the
  /// attacker race. Clear with an empty function.
  using AcceptRoute = std::function<std::pair<AcceptDecision, std::vector<psc::PscTx>>(
      const FastPayPackage& pkg, const Invoice& invoice, std::uint64_t now_ms)>;
  void set_accept_route(AcceptRoute route) { accept_route_ = std::move(route); }

 private:
  void schedule_psc_blocks();
  void schedule_monitors();
  void pump_merchant(std::uint64_t now_ms);
  void pump_customer_defense();
  void pump_relayer();

  DeploymentConfig config_;
  btc::ChainParams params_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<psc::PscChain> psc_;
  psc::Address judger_addr_{};
  PayJudgerConfig judger_cfg_{};

  std::vector<sim::NodeId> miner_node_ids_;
  sim::NodeId customer_node_id_ = 0;
  sim::NodeId merchant_node_id_ = 0;

  sim::Party customer_party_;
  sim::Party merchant_party_;
  sim::Party miner_party_;
  psc::Address customer_psc_{};
  psc::Address merchant_psc_{};

  std::vector<std::unique_ptr<sim::MinerProcess>> miners_;
  std::unique_ptr<sim::DoubleSpendAttacker> attacker_;
  std::unique_ptr<CustomerWallet> customer_;
  std::unique_ptr<MerchantService> merchant_;
  std::unique_ptr<Relayer> relayer_;
  std::unique_ptr<Watchtower> watchtower_;
  std::unique_ptr<store::DurableStore> store_;
  store::RecoveryInfo last_recovery_{};

  AcceptRoute accept_route_;
  std::vector<std::pair<std::string, std::uint64_t>> submitted_txs_;  ///< (method, id)
  std::vector<std::pair<btc::OutPoint, btc::Coin>> customer_coins_;
  std::size_t next_coin_ = 0;
  bool watchtower_online_ = true;
  bool relayer_online_ = true;
};

}  // namespace btcfast::core
