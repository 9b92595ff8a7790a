#include "btcsim/scenario.h"

#include <map>
#include <mutex>

#include "btc/pow.h"

namespace btcfast::sim {

Party Party::make(std::uint64_t seed) {
  // Derive a deterministic, valid scalar from the seed.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (;;) {
    const auto raw = rng.bytes<32>();
    auto key = crypto::PrivateKey::from_bytes({raw.data(), raw.size()});
    if (!key) continue;
    auto pub = crypto::PublicKey::derive(*key);
    return Party{*key, pub, btc::ScriptPubKey{btc::PubKeyHash::of(pub)}};
  }
}

std::vector<btc::Block> build_funding_chain(const btc::ChainParams& params,
                                            const std::vector<btc::ScriptPubKey>& payouts,
                                            std::uint32_t blocks_each) {
  // The result is a pure function of (params, payouts, blocks_each), and
  // mining it is the single most expensive part of standing up a
  // deployment (~10ms of PoW per block at regtest difficulty). Scenario
  // fuzzing builds hundreds of deployments over the same key material, so
  // memoize process-wide.
  std::string memo_key;
  {
    Writer w;
    for (const auto& word : params.pow_limit.w) w.u64le(word);
    w.u32le(params.genesis_bits);
    w.u64le(static_cast<std::uint64_t>(params.subsidy));
    w.u32le(params.coinbase_maturity);
    w.u32le(params.retarget_interval);
    w.u32le(blocks_each);
    for (const auto& script : payouts) {
      w.bytes({script.dest.bytes.data(), script.dest.bytes.size()});
    }
    const Bytes packed = std::move(w).take();
    memo_key.assign(packed.begin(), packed.end());
  }
  static std::mutex memo_mutex;
  static std::map<std::string, std::vector<btc::Block>> memo;
  {
    std::lock_guard<std::mutex> lock(memo_mutex);
    if (auto it = memo.find(memo_key); it != memo.end()) return it->second;
  }

  btc::Chain scratch(params);
  std::vector<btc::Block> out;

  auto mine_to = [&](const btc::ScriptPubKey& dest) {
    btc::Block b;
    b.header.version = 1;
    b.header.prev_hash = scratch.tip_hash();
    b.header.time = scratch.tip_header().time + 1;
    b.header.bits = scratch.next_work_required(b.header.prev_hash);

    btc::Transaction cb;
    btc::TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = scratch.height() + 1;
    cb.inputs.push_back(in);
    cb.outputs.push_back(btc::TxOut{params.subsidy, dest});
    b.txs.push_back(cb);
    if (!btc::mine_block(b, params)) return;
    if (scratch.submit_block(b) == btc::SubmitResult::kActiveTip) out.push_back(std::move(b));
  };

  for (std::uint32_t round = 0; round < blocks_each; ++round) {
    for (const auto& script : payouts) mine_to(script);
  }
  // Maturity padding to an unspendable destination.
  for (std::uint32_t i = 0; i < params.coinbase_maturity; ++i) mine_to(btc::ScriptPubKey{});
  {
    std::lock_guard<std::mutex> lock(memo_mutex);
    memo.emplace(std::move(memo_key), out);
  }
  return out;
}

void seed_node(Node& node, const std::vector<btc::Block>& blocks) {
  for (const auto& b : blocks) node.receive_block(b);
}

std::vector<std::pair<btc::OutPoint, btc::Coin>> find_spendable(
    const btc::Chain& chain, const btc::ScriptPubKey& script) {
  std::vector<std::pair<btc::OutPoint, btc::Coin>> out;
  for (const auto& [op, coin] : chain.utxo()) {
    if (coin.out.script_pubkey != script) continue;
    if (coin.coinbase && chain.height() + 1 < coin.height + chain.params().coinbase_maturity) {
      continue;
    }
    out.emplace_back(op, coin);
  }
  return out;
}

btc::Transaction build_payment(const Party& from, const btc::OutPoint& coin,
                               btc::Amount coin_value, const btc::ScriptPubKey& to,
                               btc::Amount amount, btc::Amount fee, bool* r_odd) {
  btc::Transaction tx;
  tx.inputs.push_back(btc::TxIn{coin, {}, 0xffffffff});
  tx.outputs.push_back(btc::TxOut{amount, to});
  const btc::Amount change = coin_value - amount - fee;
  if (change > 0) tx.outputs.push_back(btc::TxOut{change, from.script});
  const bool odd = btc::sign_input(tx, 0, from.key, from.script);
  if (r_odd != nullptr) *r_odd = odd;
  return tx;
}

DoubleSpendExperimentResult run_double_spend_experiment(
    const DoubleSpendExperimentConfig& config) {
  const btc::ChainParams params = btc::ChainParams::regtest();
  Simulator sim;
  Network net(sim, params, config.net, config.seed * 7919 + 13);

  // Parties.
  const Party customer = Party::make(config.seed * 101 + 1);  // also the attacker
  const Party merchant = Party::make(config.seed * 101 + 2);
  const Party miner_party = Party::make(config.seed * 101 + 3);

  // Nodes: honest miners + attacker node + merchant observer.
  std::vector<NodeId> miner_nodes;
  for (std::uint32_t i = 0; i < config.honest_miners; ++i) miner_nodes.push_back(net.add_node());
  const NodeId attacker_node = net.add_node();
  const NodeId merchant_node = net.add_node();

  // Fund the customer with one mature coinbase.
  const auto funding = build_funding_chain(params, {customer.script}, 1);
  for (std::size_t i = 0; i < net.size(); ++i) seed_node(net.node(static_cast<NodeId>(i)), funding);
  sim.run_all();  // drain any relay chatter from seeding

  // Locate the customer's coin.
  const auto coins = find_spendable(net.node(merchant_node).chain(), customer.script);
  DoubleSpendExperimentResult result;
  if (coins.empty()) return result;
  const auto [coin_op, coin] = coins.front();

  // The payment to the merchant, and the conflicting self-spend.
  const btc::Amount pay_amount = coin.out.value / 2;
  const btc::Transaction payment =
      build_payment(customer, coin_op, coin.out.value, merchant.script, pay_amount);
  const btc::Transaction conflict =
      build_payment(customer, coin_op, coin.out.value, customer.script, pay_amount, 2000);
  const btc::Txid payment_id = payment.txid();
  const btc::Txid conflict_id = conflict.txid();

  // Honest mining power: (1 - q) split across the honest miners.
  std::vector<std::unique_ptr<MinerProcess>> miners;
  const double honest_share = (1.0 - config.attacker_share) /
                              static_cast<double>(config.honest_miners);
  for (std::uint32_t i = 0; i < config.honest_miners; ++i) {
    miners.push_back(std::make_unique<MinerProcess>(net, miner_nodes[i], honest_share,
                                                    miner_party.script,
                                                    config.seed * 997 + i));
    miners.back()->start();
  }

  DoubleSpendAttacker::Config acfg;
  acfg.share = config.attacker_share;
  acfg.target_confirmations = config.merchant_confirmations;
  acfg.give_up_deficit = config.give_up_deficit;
  DoubleSpendAttacker attacker(net, attacker_node, acfg, customer.script,
                               config.seed * 31337 + 5);

  // t=0: the customer broadcasts the payment and the secret race begins.
  net.submit_tx(attacker_node, payment);
  attacker.begin_attack(payment, conflict);

  // Watch the merchant's view.
  bool accepted = false;
  SimTime accept_time = 0;
  std::function<void()> watch = [&] {
    const auto conf = net.node(merchant_node).chain().confirmations(payment_id);
    if (!accepted && conf >= config.merchant_confirmations) {
      accepted = true;
      accept_time = sim.now();
    }
    if (sim.now() < config.max_sim_time &&
        (attacker.attack_active() || !attacker.outcome().has_value() ||
         sim.now() < attacker.outcome()->finished_at + 30 * kMinute)) {
      sim.schedule_in(5 * kSecond, watch);
    }
  };
  sim.schedule_in(5 * kSecond, watch);

  sim.run_until(config.max_sim_time);

  for (auto& m : miners) m->stop();

  const btc::Chain& view = net.node(merchant_node).chain();
  result.merchant_accepted = accepted;
  result.merchant_accept_time = accept_time;
  result.attack_released = attacker.outcome() && attacker.outcome()->attack_released;
  result.payment_survives = view.confirmations(payment_id) > 0;
  result.double_spend_succeeded =
      view.confirmations(conflict_id) > 0 && accepted;
  result.final_height = view.height();
  result.merchant_reorgs = static_cast<std::uint32_t>(net.node(merchant_node).reorgs());
  return result;
}

}  // namespace btcfast::sim
