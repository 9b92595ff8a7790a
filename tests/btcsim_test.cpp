// Tests for the discrete-event Bitcoin network simulator: event ordering,
// block propagation, chain convergence, mining rates, the double-spend
// race model, and the end-to-end attack experiment.
#include <gtest/gtest.h>

#include "btcsim/attacker.h"
#include "btcsim/miner.h"
#include "btcsim/network.h"
#include "btcsim/race.h"
#include "btcsim/scenario.h"

namespace btcfast::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, FifoTieBreakAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule_in(10, chain);
  };
  sim.schedule_in(10, chain);
  sim.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, PastScheduleClampsToNow) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run_all();
  bool fired = false;
  sim.schedule_at(10, [&] { fired = true; });  // in the past
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Network, BlockPropagatesToAllNodes) {
  Simulator sim;
  Network net(sim, btc::ChainParams::regtest(), {}, 42);
  for (int i = 0; i < 4; ++i) net.add_node();

  const Party miner = Party::make(1);
  btc::Block b = net.node(0).assemble_block(miner.script, 1);
  ASSERT_TRUE(btc::mine_block(b, net.params()));
  net.submit_block(0, b);
  sim.run_all();

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(net.node(i).chain().height(), 1u) << "node " << i;
    EXPECT_EQ(net.node(i).chain().tip_hash(), b.hash());
  }
}

TEST(Network, TxPropagatesAndEntersMempools) {
  Simulator sim;
  Network net(sim, btc::ChainParams::regtest(), {}, 43);
  for (int i = 0; i < 3; ++i) net.add_node();

  const Party owner = Party::make(2);
  const Party payee = Party::make(3);
  const auto funding = build_funding_chain(net.params(), {owner.script}, 1);
  for (int i = 0; i < 3; ++i) seed_node(net.node(i), funding);
  sim.run_all();

  const auto coins = find_spendable(net.node(0).chain(), owner.script);
  ASSERT_FALSE(coins.empty());
  const auto tx = build_payment(owner, coins[0].first, coins[0].second.out.value,
                                payee.script, 10 * btc::kCoin);
  net.submit_tx(0, tx);
  sim.run_all();

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(net.node(i).mempool().contains(tx.txid())) << "node " << i;
  }
}

TEST(Network, RelayedTxIsOneSharedObject) {
  Simulator sim;
  Network net(sim, btc::ChainParams::regtest(), {}, 45);
  for (int i = 0; i < 5; ++i) net.add_node();

  const Party owner = Party::make(5);
  const Party payee = Party::make(6);
  const auto funding = build_funding_chain(net.params(), {owner.script}, 1);
  for (int i = 0; i < 5; ++i) seed_node(net.node(i), funding);
  sim.run_all();

  const auto coins = find_spendable(net.node(0).chain(), owner.script);
  ASSERT_FALSE(coins.empty());
  const btc::TxRef ref = std::make_shared<const btc::Transaction>(build_payment(
      owner, coins[0].first, coins[0].second.out.value, payee.script, 10 * btc::kCoin));
  net.node(0).receive_tx(ref);
  // This caller, node 0's mempool and the 4 queued peer deliveries.
  EXPECT_EQ(ref.use_count(), 1 + 1 + 4);
  EXPECT_EQ(sim.pending(), 4u);

  sim.run_all();
  for (int i = 0; i < 5; ++i) {
    const auto held = net.node(i).mempool().get(ref->txid());
    ASSERT_TRUE(held.has_value()) << "node " << i;
    EXPECT_EQ(*held, *ref) << "node " << i;
  }
  // Every delivery has run; each of the 5 mempools holds the same object.
  EXPECT_EQ(ref.use_count(), 1 + 5);
}

TEST(Network, OrphanBlocksConnectWhenParentArrives) {
  Simulator sim;
  Network net(sim, btc::ChainParams::regtest(), {}, 44);
  net.add_node();

  // Build two blocks on a scratch chain, deliver child first.
  btc::Chain scratch(net.params());
  const Party miner = Party::make(4);
  std::vector<btc::Block> blocks;
  for (int i = 0; i < 2; ++i) {
    btc::Block b;
    b.header.prev_hash = scratch.tip_hash();
    b.header.time = scratch.tip_header().time + 1;
    b.header.bits = net.params().genesis_bits;
    btc::Transaction cb;
    btc::TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = scratch.height() + 1;
    cb.inputs.push_back(in);
    cb.outputs.push_back(btc::TxOut{net.params().subsidy, miner.script});
    b.txs.push_back(cb);
    ASSERT_TRUE(btc::mine_block(b, net.params()));
    EXPECT_EQ(scratch.submit_block(b), btc::SubmitResult::kActiveTip);
    blocks.push_back(b);
  }

  net.node(0).receive_block(blocks[1]);  // orphan
  EXPECT_EQ(net.node(0).chain().height(), 0u);
  net.node(0).receive_block(blocks[0]);  // parent arrives
  EXPECT_EQ(net.node(0).chain().height(), 2u);
}

TEST(Miner, ProducesBlocksAtConfiguredRate) {
  Simulator sim;
  btc::ChainParams params = btc::ChainParams::regtest();
  Network net(sim, params, {}, 45);
  const NodeId n0 = net.add_node();
  const Party miner = Party::make(5);

  MinerProcess proc(net, n0, 1.0, miner.script, 46);
  proc.start();
  // 50 block intervals of simulated time.
  sim.run_until(static_cast<SimTime>(params.block_interval_s) * 1000 * 50);
  proc.stop();

  // Poisson(50): expect within a generous band.
  EXPECT_GT(net.node(n0).chain().height(), 25u);
  EXPECT_LT(net.node(n0).chain().height(), 85u);
}

TEST(Miner, NetworkOfMinersConverges) {
  Simulator sim;
  btc::ChainParams params = btc::ChainParams::regtest();
  Network net(sim, params, {}, 47);
  std::vector<NodeId> ids;
  std::vector<std::unique_ptr<MinerProcess>> procs;
  const Party miner = Party::make(6);
  for (int i = 0; i < 3; ++i) {
    ids.push_back(net.add_node());
    procs.push_back(std::make_unique<MinerProcess>(net, ids.back(), 1.0 / 3, miner.script,
                                                   100 + static_cast<std::uint64_t>(i)));
    procs.back()->start();
  }
  sim.run_until(static_cast<SimTime>(params.block_interval_s) * 1000 * 30);
  for (auto& p : procs) p->stop();
  sim.run_all();

  // All nodes agree on the tip (propagation latency << block interval).
  const auto tip = net.node(ids[0]).chain().tip_hash();
  for (auto id : ids) EXPECT_EQ(net.node(id).chain().tip_hash(), tip);
  EXPECT_GT(net.node(ids[0]).chain().height(), 10u);
}

TEST(Race, ZeroShareNeverWins) {
  RaceConfig cfg;
  cfg.q = 0.001;
  cfg.z = 6;
  const auto r = estimate_double_spend_probability(cfg, 2000, 7);
  EXPECT_LT(r.success_rate, 0.001);
}

TEST(Race, MajorityAttackerAlwaysWins) {
  RaceConfig cfg;
  cfg.q = 0.7;
  cfg.z = 3;
  cfg.give_up_deficit = 200;
  const auto r = estimate_double_spend_probability(cfg, 500, 8);
  EXPECT_GT(r.success_rate, 0.99);
}

TEST(Race, MoreConfirmationsLowerSuccess) {
  RaceConfig a, b;
  a.q = b.q = 0.2;
  a.z = 1;
  b.z = 6;
  const auto ra = estimate_double_spend_probability(a, 20000, 9);
  const auto rb = estimate_double_spend_probability(b, 20000, 9);
  EXPECT_GT(ra.success_rate, rb.success_rate * 2);
}

TEST(Race, ZeroConfIsNearCertainLoss) {
  // z = 0: merchant accepts instantly; attacker with q=0.1 still must
  // out-race from even — success = q/p ≈ 0.111.
  RaceConfig cfg;
  cfg.q = 0.1;
  cfg.z = 0;
  const auto r = estimate_double_spend_probability(cfg, 50000, 10);
  EXPECT_NEAR(r.success_rate, 0.1 / 0.9, 0.01);
}

TEST(Race, DeterministicForSeed) {
  RaceConfig cfg;
  cfg.q = 0.25;
  cfg.z = 4;
  const auto a = estimate_double_spend_probability(cfg, 5000, 11);
  const auto b = estimate_double_spend_probability(cfg, 5000, 11);
  EXPECT_EQ(a.success_rate, b.success_rate);
}

TEST(Experiment, StrongAttackerUsuallyDoubleSpends) {
  DoubleSpendExperimentConfig cfg;
  cfg.attacker_share = 0.45;
  cfg.merchant_confirmations = 1;
  cfg.honest_miners = 2;
  cfg.seed = 3;
  cfg.max_sim_time = 600 * kMinute;

  int wins = 0, accepted = 0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    cfg.seed = 50 + s;
    const auto r = run_double_spend_experiment(cfg);
    accepted += r.merchant_accepted;
    wins += r.double_spend_succeeded;
  }
  EXPECT_GT(accepted, 0);
  // With q=0.45 and z=1 the success probability is ~0.8; expect at least
  // one success across 5 trials (P[none] < 1e-3).
  EXPECT_GT(wins, 0);
}

TEST(Experiment, WeakAttackerUsuallyFails) {
  DoubleSpendExperimentConfig cfg;
  cfg.attacker_share = 0.05;
  cfg.merchant_confirmations = 3;
  cfg.honest_miners = 2;
  cfg.give_up_deficit = 6;
  cfg.max_sim_time = 300 * kMinute;

  int wins = 0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    cfg.seed = 90 + s;
    const auto r = run_double_spend_experiment(cfg);
    wins += r.double_spend_succeeded;
  }
  EXPECT_EQ(wins, 0);
}

TEST(Experiment, PaymentSurvivesWhenAttackFails) {
  DoubleSpendExperimentConfig cfg;
  cfg.attacker_share = 0.05;
  cfg.merchant_confirmations = 2;
  cfg.honest_miners = 2;
  cfg.give_up_deficit = 5;
  cfg.seed = 123;
  cfg.max_sim_time = 300 * kMinute;
  const auto r = run_double_spend_experiment(cfg);
  if (r.merchant_accepted && !r.double_spend_succeeded) {
    EXPECT_TRUE(r.payment_survives);
  }
}

}  // namespace
}  // namespace btcfast::sim
