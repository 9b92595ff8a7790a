// Edge-case unit tests across components: relayer behaviour, mempool
// drain/reorg paths, chain descendant invalidation, compact-bits
// boundaries and PSC host details not covered elsewhere.
#include <gtest/gtest.h>

#include "btc/chain.h"
#include "btc/mempool.h"
#include "btc/pow.h"
#include "btcfast/orchestrator.h"
#include "btcsim/scenario.h"

namespace btcfast {
namespace {

using core::Deployment;
using core::DeploymentConfig;

btc::TxRef tx_ref(const btc::Transaction& tx) {
  return std::make_shared<const btc::Transaction>(tx);
}

TEST(RelayerUnit, NoUpdateWhenWithinLag) {
  DeploymentConfig cfg;
  cfg.seed = 61;
  cfg.relayer_lag_blocks = 1000;  // can never catch up within the run
  Deployment dep(cfg);
  dep.run_for(2 * kHour);
  EXPECT_FALSE(dep.relayer().make_update_tx().has_value());
  // Checkpoint still reads as the initial one.
  const auto cp = dep.relayer().read_checkpoint();
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->second, 0u);
}

TEST(RelayerUnit, BatchesAreCapped) {
  DeploymentConfig cfg;
  cfg.seed = 62;
  cfg.relayer_lag_blocks = 1000;  // keep the built-in relayer idle
  Deployment dep(cfg);
  dep.run_for(3 * kHour);  // ~18 blocks

  // Cap at 5 headers per update.
  core::Relayer::Config rcfg;
  rcfg.judger = dep.judger_address();
  rcfg.self_psc = psc::Address::from_label("capped-relayer");
  rcfg.lag_blocks = 0;
  rcfg.max_batch = 5;
  dep.psc().mint(rcfg.self_psc, 100'000'000);
  core::Relayer capped(dep.merchant_node(), dep.psc(), rcfg);
  const auto tx = capped.make_update_tx();
  ASSERT_TRUE(tx.has_value());
  // 5 headers = varint(len) + varint(5) + 400 bytes, length-prefixed.
  Reader r({tx->args.data(), tx->args.size()});
  const auto blob = r.bytes_with_len(1 << 20);
  ASSERT_TRUE(blob.has_value());
  const auto headers = btc::deserialize_headers(*blob);
  ASSERT_TRUE(headers.has_value());
  EXPECT_EQ(headers->size(), 5u);
}

TEST(MempoolEdge, DrainEmptiesEverything) {
  btc::ChainParams params = btc::ChainParams::regtest();
  btc::Chain chain(params);
  const auto owner = sim::Party::make(1);
  const auto payee = sim::Party::make(2);
  for (const auto& b : sim::build_funding_chain(params, {owner.script}, 2)) {
    ASSERT_EQ(chain.submit_block(b), btc::SubmitResult::kActiveTip);
  }
  btc::Mempool pool;
  const auto coins = sim::find_spendable(chain, owner.script);
  ASSERT_GE(coins.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    const auto tx = sim::build_payment(owner, coins[static_cast<std::size_t>(i)].first,
                                       coins[static_cast<std::size_t>(i)].second.out.value,
                                       payee.script, btc::kCoin);
    ASSERT_TRUE(pool.accept(tx_ref(tx), chain.utxo(), chain.height(), 10).ok());
  }
  EXPECT_EQ(pool.size(), 2u);
  const auto drained = pool.drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(pool.size(), 0u);
  // Spender index cleared too.
  EXPECT_FALSE(pool.spender_of(coins[0].first).has_value());
}

TEST(MempoolEdge, RejectsCoinbaseAndDuplicates) {
  btc::ChainParams params = btc::ChainParams::regtest();
  btc::Chain chain(params);
  const auto owner = sim::Party::make(1);
  for (const auto& b : sim::build_funding_chain(params, {owner.script}, 1)) {
    ASSERT_EQ(chain.submit_block(b), btc::SubmitResult::kActiveTip);
  }
  btc::Mempool pool;
  EXPECT_EQ(pool.accept(tx_ref(btc::genesis_coinbase()), chain.utxo(), chain.height(), 10)
                .error()
                .code,
            "coinbase");
  const auto coins = sim::find_spendable(chain, owner.script);
  const auto tx = sim::build_payment(owner, coins[0].first, coins[0].second.out.value,
                                     owner.script, btc::kCoin);
  ASSERT_TRUE(pool.accept(tx_ref(tx), chain.utxo(), chain.height(), 10).ok());
  EXPECT_EQ(pool.accept(tx_ref(tx), chain.utxo(), chain.height(), 10).error().code,
            "txn-already-in-mempool");
}

TEST(ChainEdge, ChildOfInvalidBlockRejected) {
  btc::ChainParams params = btc::ChainParams::regtest();
  btc::Chain chain(params);
  const auto miner = sim::Party::make(1);

  // An invalid block: coinbase overpays.
  btc::Block bad;
  bad.header.prev_hash = chain.tip_hash();
  bad.header.time = chain.tip_header().time + 1;
  bad.header.bits = params.genesis_bits;
  btc::Transaction cb;
  btc::TxIn in;
  in.prevout.index = 0xffffffff;
  cb.inputs.push_back(in);
  cb.outputs.push_back(btc::TxOut{params.subsidy * 2, miner.script});  // inflation!
  bad.txs.push_back(cb);
  ASSERT_TRUE(btc::mine_block(bad, params));
  std::string why;
  EXPECT_EQ(chain.submit_block(bad, &why), btc::SubmitResult::kInvalid);
  EXPECT_NE(why.find("bad-cb-amount"), std::string::npos);

  // A child of the invalid block is rejected outright.
  btc::Block child;
  child.header.prev_hash = bad.hash();
  child.header.time = bad.header.time + 1;
  child.header.bits = params.genesis_bits;
  btc::Transaction cb2;
  btc::TxIn in2;
  in2.prevout.index = 0xffffffff;
  in2.sequence = 2;
  cb2.inputs.push_back(in2);
  cb2.outputs.push_back(btc::TxOut{params.subsidy, miner.script});
  child.txs.push_back(cb2);
  ASSERT_TRUE(btc::mine_block(child, params));
  EXPECT_EQ(chain.submit_block(child, &why), btc::SubmitResult::kInvalid);
  EXPECT_NE(why.find("bad-prevblk"), std::string::npos);
}

TEST(ChainEdge, TipWorkAccumulatesMonotonically) {
  btc::ChainParams params = btc::ChainParams::regtest();
  btc::Chain chain(params);
  const auto miner = sim::Party::make(1);
  crypto::U256 prev_work = chain.tip_work();
  for (const auto& b : sim::build_funding_chain(params, {miner.script}, 1)) {
    ASSERT_EQ(chain.submit_block(b), btc::SubmitResult::kActiveTip);
    EXPECT_GT(chain.tip_work(), prev_work);
    prev_work = chain.tip_work();
  }
}

TEST(BitsEdge, CompactEncodingBoundaries) {
  using btc::bits_to_target;
  using btc::target_to_bits;
  // Smallest targets.
  for (std::uint64_t t : {1ULL, 2ULL, 255ULL, 256ULL, 0x7fffffULL, 0x800000ULL}) {
    const crypto::U256 target(t);
    const auto round = bits_to_target(target_to_bits(target));
    ASSERT_TRUE(round.has_value()) << t;
    EXPECT_EQ(*round, target) << t;
  }
  // Large targets round-trip through the mantissa truncation consistently.
  const crypto::U256 big = crypto::U256::one() << 250;
  const auto round = bits_to_target(target_to_bits(big));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, big);
}

TEST(PscHostEdge, TransferOutFailsGracefully) {
  psc::WorldState state;
  psc::GasMeter meter(1'000'000, psc::GasSchedule::istanbul());
  std::vector<psc::LogEvent> logs;
  const auto self = psc::Address::from_label("c");
  psc::HostContext host(state, meter, self, psc::Address::from_label("x"), 0, 1, 1, logs);
  // Contract balance is zero: transfer must fail without mutating state.
  EXPECT_FALSE(host.transfer_out(psc::Address::from_label("y"), 100));
  EXPECT_EQ(state.balance(psc::Address::from_label("y")), 0u);
  // Gas was still charged for the attempt (EVM CALL semantics).
  EXPECT_GE(meter.used(), psc::GasSchedule::istanbul().value_transfer);
}

TEST(PscHostEdge, SstorePricingByTransition) {
  psc::WorldState state;
  psc::GasMeter meter(1'000'000, psc::GasSchedule::istanbul());
  std::vector<psc::LogEvent> logs;
  const auto self = psc::Address::from_label("c");
  psc::HostContext host(state, meter, self, self, 0, 1, 1, logs);
  const auto& sched = psc::GasSchedule::istanbul();

  const psc::Gas before_set = meter.used();
  host.sstore(crypto::U256(1), crypto::U256(5));  // zero -> nonzero
  EXPECT_EQ(meter.used() - before_set, sched.sstore_set);

  const psc::Gas before_update = meter.used();
  host.sstore(crypto::U256(1), crypto::U256(6));  // update
  EXPECT_EQ(meter.used() - before_update, sched.sstore_reset);
}

TEST(DeploymentEdge, OutOfCoinsReportedCleanly) {
  DeploymentConfig cfg;
  cfg.seed = 63;
  cfg.funded_coins = 1;
  Deployment dep(cfg);
  ASSERT_TRUE(dep.perform_fastpay(btc::kCoin).accepted);
  const auto r = dep.perform_fastpay(btc::kCoin);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reject_reason, "customer out of coins");
}

}  // namespace
}  // namespace btcfast
