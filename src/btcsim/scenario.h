// Scenario plumbing: key material for protocol parties, funding-chain
// bootstrap, and a ready-made double-spend experiment wiring honest
// miners, an attacker, a merchant observer and a paying customer.
#pragma once

#include <optional>
#include <vector>

#include "btc/chain.h"
#include "btcsim/attacker.h"
#include "btcsim/miner.h"
#include "btcsim/network.h"

namespace btcfast::sim {

/// A protocol participant's Bitcoin key material.
struct Party {
  crypto::PrivateKey key;
  crypto::PublicKey pub;
  btc::ScriptPubKey script;

  /// Deterministic party from a seed (simulator convenience).
  [[nodiscard]] static Party make(std::uint64_t seed);
};

/// Builds a chain prefix of mined blocks paying `blocks_each` mature
/// coinbases to every script in `payouts` (plus maturity padding), for
/// seeding nodes with spendable funds.
[[nodiscard]] std::vector<btc::Block> build_funding_chain(
    const btc::ChainParams& params, const std::vector<btc::ScriptPubKey>& payouts,
    std::uint32_t blocks_each);

/// Feed a pre-built block sequence into a node without network relay.
void seed_node(Node& node, const std::vector<btc::Block>& blocks);

/// Spendable coins a party owns on a chain view.
[[nodiscard]] std::vector<std::pair<btc::OutPoint, btc::Coin>> find_spendable(
    const btc::Chain& chain, const btc::ScriptPubKey& script);

/// build_payment's fee unless the caller names one.
inline constexpr btc::Amount kDefaultPaymentFee = 1000;

/// Builds a signed 1-in/1-out (plus optional change) payment. `r_odd`,
/// when non-null, receives the input signature's R parity (see
/// btc::sign_input).
[[nodiscard]] btc::Transaction build_payment(const Party& from, const btc::OutPoint& coin,
                                             btc::Amount coin_value,
                                             const btc::ScriptPubKey& to, btc::Amount amount,
                                             btc::Amount fee = kDefaultPaymentFee,
                                             bool* r_odd = nullptr);

/// End-to-end double-spend experiment on the full network simulator.
struct DoubleSpendExperimentConfig {
  double attacker_share = 0.2;
  std::uint32_t honest_miners = 3;
  std::uint32_t merchant_confirmations = 2;  ///< z the merchant waits for
  int give_up_deficit = 12;
  SimTime max_sim_time = 400 * kMinute;
  std::uint64_t seed = 1;
  NetworkConfig net{};
};

struct DoubleSpendExperimentResult {
  bool merchant_accepted = false;       ///< payment reached z confirmations
  SimTime merchant_accept_time = 0;     ///< when it did
  bool attack_released = false;
  bool payment_survives = false;        ///< payment still confirmed at the end
  bool double_spend_succeeded = false;  ///< conflict tx confirmed instead
  std::uint32_t final_height = 0;
  std::uint32_t merchant_reorgs = 0;
};

/// Runs one full attack trial: customer pays merchant, attacker (who *is*
/// the customer) secretly mines the conflicting spend, merchant waits for
/// z confirmations. Reports who ended up with the money.
[[nodiscard]] DoubleSpendExperimentResult run_double_spend_experiment(
    const DoubleSpendExperimentConfig& config);

}  // namespace btcfast::sim
