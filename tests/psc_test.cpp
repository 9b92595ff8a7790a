// Tests for the PSC chain substrate: world state, gas metering, tx
// execution semantics (success, revert, out-of-gas, fees), value
// transfer, logs and view calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/serialize.h"
#include "psc/chain.h"

namespace btcfast::psc {
namespace {

/// Toy contract: a counter with a paid increment and a method that burns
/// unbounded gas, plus a payout method. Exercises the host surface.
class Counter final : public Contract {
 public:
  Status call(HostContext& host, const std::string& method, ByteSpan args, Bytes* ret) override {
    const Slot key = crypto::U256(1);
    if (method == "increment") {
      const Slot cur = host.sload(key);
      host.sstore(key, crypto::U256(cur.low64() + 1));
      host.emit_log("Incremented");
      return Status::success();
    }
    if (method == "get") {
      const Slot cur = host.sload(key);
      Writer w;
      w.u64le(cur.low64());
      *ret = std::move(w).take();
      return Status::success();
    }
    if (method == "spin") {
      for (;;) host.charge_compute(1'000);  // burns gas until OutOfGas
    }
    if (method == "fail") return make_error("deliberate-failure");
    if (method == "payout") {
      Reader r(args);
      auto amount = r.u64le();
      auto to = r.bytes(20);
      if (!amount || !to) return make_error("bad-args");
      Address dest;
      dest.bytes = to_array<20>(*to);
      if (!host.transfer_out(dest, *amount)) return make_error("insufficient");
      return Status::success();
    }
    if (method == "hash") {
      (void)host.sha256(args);
      return Status::success();
    }
    return make_error("unknown-method", method);
  }
};

struct PscFixture : ::testing::Test {
  PscFixture() {
    contract = chain.deploy("counter", std::make_unique<Counter>());
    chain.mint(alice, 10'000'000);
    chain.mint(bob, 5'000'000);
  }

  PscTx make_call(const std::string& method, Bytes args = {}, Value value = 0) {
    PscTx tx;
    tx.from = alice;
    tx.to = contract;
    tx.method = method;
    tx.args = std::move(args);
    tx.value = value;
    return tx;
  }

  PscChain chain;
  Address contract;
  Address alice = Address::from_label("alice");
  Address bob = Address::from_label("bob");
};

TEST_F(PscFixture, PlainTransferMovesValue) {
  PscTx tx;
  tx.from = alice;
  tx.to = bob;
  tx.value = 1000;
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(chain.state().balance(bob), 5'001'000u);
  EXPECT_EQ(r.gas_used, chain.schedule().tx_base);
}

TEST_F(PscFixture, FeesAreDeducted) {
  PscTx tx;
  tx.from = alice;
  tx.to = bob;
  tx.value = 1000;
  tx.gas_price = 2;
  const Value before = chain.state().balance(alice);
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_EQ(chain.state().balance(alice), before - 1000 - r.gas_used * 2);
}

TEST_F(PscFixture, ContractCallMutatesStorage) {
  EXPECT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  EXPECT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  const Receipt r = chain.execute_now(make_call("get"), 0);
  ASSERT_TRUE(r.success);
  Reader reader({r.return_data.data(), r.return_data.size()});
  EXPECT_EQ(reader.u64le().value(), 2u);
}

TEST_F(PscFixture, RevertUndoesEverything) {
  ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  const Value alice_before = chain.state().balance(alice);

  // A failing call with attached value: value must bounce back.
  const Receipt r = chain.execute_now(make_call("fail", {}, 500), 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "deliberate-failure");
  EXPECT_EQ(chain.state().balance(contract), 0u);
  // Alice lost only the gas fee, not the value.
  EXPECT_EQ(chain.state().balance(alice), alice_before - r.gas_used * 1);

  // Counter unchanged.
  const Receipt g = chain.execute_now(make_call("get"), 0);
  Reader reader({g.return_data.data(), g.return_data.size()});
  EXPECT_EQ(reader.u64le().value(), 1u);
}

TEST_F(PscFixture, OutOfGasChargesFullLimit) {
  PscTx tx = make_call("spin");
  tx.gas_limit = 100'000;
  const Value before = chain.state().balance(alice);
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "out of gas");
  EXPECT_EQ(r.gas_used, 100'000u);
  EXPECT_EQ(chain.state().balance(alice), before - 100'000);
}

TEST_F(PscFixture, IntrinsicGasRejection) {
  PscTx tx = make_call("increment");
  tx.gas_limit = 100;  // below tx_base
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "intrinsic gas exceeds limit");
}

TEST_F(PscFixture, InsufficientBalanceRejected) {
  PscTx tx;
  tx.from = Address::from_label("pauper");
  tx.to = bob;
  tx.value = 1;
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(chain.state().balance(bob), 5'000'000u);
}

TEST_F(PscFixture, ValueReachesContractAndCanBePaidOut) {
  ASSERT_TRUE(chain.execute_now(make_call("increment", {}, 2000), 0).success);
  EXPECT_EQ(chain.state().balance(contract), 2000u);

  Writer w;
  w.u64le(1500);
  w.bytes({bob.bytes.data(), bob.bytes.size()});
  const Receipt r = chain.execute_now(make_call("payout", std::move(w).take()), 0);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(chain.state().balance(contract), 500u);
  EXPECT_EQ(chain.state().balance(bob), 5'001'500u);
}

TEST_F(PscFixture, PayoutBeyondBalanceReverts) {
  Writer w;
  w.u64le(999'999);
  w.bytes({bob.bytes.data(), bob.bytes.size()});
  const Receipt r = chain.execute_now(make_call("payout", std::move(w).take()), 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(chain.state().balance(bob), 5'000'000u);
}

TEST_F(PscFixture, LogsRecordedOnSuccessOnly) {
  ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  ASSERT_FALSE(chain.execute_now(make_call("fail"), 0).success);
  std::size_t incremented = 0;
  for (const auto& log : chain.logs()) incremented += (log.topic == "Incremented");
  EXPECT_EQ(incremented, 1u);
}

TEST_F(PscFixture, ViewCallLeavesStateUntouched) {
  ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  const Address fee_sink = Address::from_label("psc/fee-sink");
  const Address fresh = chain.deploy("fresh-counter", std::make_unique<Counter>());
  const WorldState before = chain.state();
  const std::uint64_t alice_nonce = chain.state().nonce(alice);
  const Value sink_balance = chain.state().balance(fee_sink);
  const std::size_t accounts = chain.state().account_count();
  const Value total = chain.state().total_balance();

  // Each view must return what executing the same transaction on a copy
  // of the chain returns, and leave the world exactly as it found it.
  auto check_view = [&](const PscTx& tx, const std::string& what) -> Receipt {
    PscChain copy = chain;
    const Receipt want = copy.execute_now(tx, 0);
    const Receipt got = chain.view_call(tx);
    EXPECT_EQ(got.success, want.success) << what;
    EXPECT_EQ(got.revert_reason, want.revert_reason) << what;
    EXPECT_EQ(got.gas_used, want.gas_used) << what;
    EXPECT_EQ(got.return_data, want.return_data) << what;
    EXPECT_EQ(got.logs.size(), want.logs.size()) << what;
    for (std::size_t i = 0; i < std::min(got.logs.size(), want.logs.size()); ++i) {
      EXPECT_EQ(got.logs[i].contract, want.logs[i].contract) << what;
      EXPECT_EQ(got.logs[i].topic, want.logs[i].topic) << what;
      EXPECT_EQ(got.logs[i].data, want.logs[i].data) << what;
    }
    EXPECT_TRUE(chain.state() == before) << what;
    EXPECT_EQ(chain.state().nonce(alice), alice_nonce) << what;
    EXPECT_EQ(chain.state().balance(fee_sink), sink_balance) << what;
    EXPECT_EQ(chain.state().account_count(), accounts) << what;
    EXPECT_EQ(chain.state().total_balance(), total) << what;
    EXPECT_EQ(chain.state().journal_depth(), 0u) << what;
    return got;
  };

  EXPECT_TRUE(check_view(make_call("increment"), "increment").success);
  // Storage the view creates — a slot and the contract's whole storage
  // map — is erased again, not left behind empty.
  PscTx first_write = make_call("increment");
  first_write.to = fresh;
  EXPECT_TRUE(check_view(first_write, "first write to a fresh contract").success);
  // An account the view creates is erased again too.
  PscTx transfer;
  transfer.from = alice;
  transfer.to = Address::from_label("nobody-yet");
  transfer.value = 700;
  EXPECT_TRUE(check_view(transfer, "transfer to a new account").success);
  // Reverting views: the receipt still carries the fee the call would
  // burn, but nothing is charged.
  PscTx spin = make_call("spin");
  spin.gas_limit = 100'000;
  const Receipt oog = check_view(spin, "out-of-gas view");
  EXPECT_FALSE(oog.success);
  EXPECT_EQ(oog.revert_reason, "out of gas");
  EXPECT_EQ(oog.gas_used, 100'000u);
  EXPECT_FALSE(check_view(make_call("fail", {}, 500), "failing view with value").success);

  // State unchanged by the views.
  const Receipt g = chain.execute_now(make_call("get"), 0);
  Reader reader({g.return_data.data(), g.return_data.size()});
  EXPECT_EQ(reader.u64le().value(), 1u);
}

TEST_F(PscFixture, Sha256HostOpChargesByWord) {
  PscTx small = make_call("hash", Bytes(32, 0xab));
  PscTx large = make_call("hash", Bytes(320, 0xab));
  const Receipt rs = chain.execute_now(small, 0);
  const Receipt rl = chain.execute_now(large, 0);
  ASSERT_TRUE(rs.success);
  ASSERT_TRUE(rl.success);
  // 9 extra words of hashing plus extra calldata.
  const Gas extra_data = (320 - 32) * chain.schedule().tx_data_byte;
  const Gas extra_hash = 9 * chain.schedule().sha256_word;
  EXPECT_EQ(rl.gas_used - rs.gas_used, extra_data + extra_hash);
}

TEST_F(PscFixture, BlocksBatchPendingTxs) {
  (void)chain.submit(make_call("increment"));
  (void)chain.submit(make_call("increment"));
  EXPECT_EQ(chain.pending_txs(), 2u);
  chain.produce_block(1000);
  EXPECT_EQ(chain.pending_txs(), 0u);
  EXPECT_EQ(chain.block_number(), 1u);
  const Receipt g = chain.execute_now(make_call("get"), 2000);
  Reader reader({g.return_data.data(), g.return_data.size()});
  EXPECT_EQ(reader.u64le().value(), 2u);
}

TEST_F(PscFixture, NonceBumpsPerTransaction) {
  EXPECT_EQ(chain.state().nonce(alice), 0u);
  (void)chain.execute_now(make_call("increment"), 0);
  (void)chain.execute_now(make_call("fail"), 0);  // failed txs bump the nonce too
  EXPECT_EQ(chain.state().nonce(alice), 2u);
}

TEST(WorldState, StorageLifecycle) {
  WorldState state;
  const Address c = Address::from_label("c");
  const Slot key = crypto::U256(7);
  EXPECT_TRUE(state.storage_load(c, key).is_zero());
  EXPECT_TRUE(state.storage_store(c, key, crypto::U256(5)));   // zero -> nonzero
  EXPECT_FALSE(state.storage_store(c, key, crypto::U256(6)));  // update
  EXPECT_EQ(state.storage_load(c, key).low64(), 6u);
  EXPECT_FALSE(state.storage_store(c, key, crypto::U256(0)));  // clear
  EXPECT_TRUE(state.storage_load(c, key).is_zero());
}

TEST(WorldState, NestedJournalFrames) {
  WorldState state;
  const Address a = Address::from_label("a");
  const Address b = Address::from_label("b");
  const Address c = Address::from_label("c");
  const Address d = Address::from_label("d");
  const Slot k1 = crypto::U256(1);
  const Slot k2 = crypto::U256(2);
  state.set_balance(a, 100);
  ASSERT_TRUE(state.storage_store(c, k1, crypto::U256(5)));
  const WorldState before = state;

  // Inner commit, then outer revert: the outer revert undoes the inner
  // frame's committed changes too.
  state.journal_begin();
  state.add_balance(a, 1);
  state.bump_nonce(b);
  state.journal_begin();
  EXPECT_EQ(state.journal_depth(), 2u);
  (void)state.storage_store(c, k1, crypto::U256(6));
  (void)state.storage_store(c, k2, crypto::U256(7));
  (void)state.storage_store(d, k1, crypto::U256(8));  // creates d's storage map
  (void)state.storage_store(Address::from_label("e"), k1, Slot{});  // creates an empty map
  state.set_balance(b, 9);
  state.journal_commit();
  EXPECT_EQ(state.journal_depth(), 1u);
  EXPECT_EQ(state.storage_load(c, k2).low64(), 7u);
  EXPECT_EQ(state.balance(b), 9u);
  state.journal_revert();
  EXPECT_EQ(state.journal_depth(), 0u);
  EXPECT_TRUE(state == before);
  EXPECT_EQ(state.account_count(), 1u);

  // Inner revert, then outer commit: only the outer frame's changes stay.
  state.journal_begin();
  state.add_balance(a, 10);
  (void)state.storage_store(c, k2, crypto::U256(3));
  const WorldState outer_only = state;
  state.journal_begin();
  state.add_balance(a, 1000);
  state.bump_nonce(b);
  (void)state.storage_store(c, k2, crypto::U256(4));
  (void)state.storage_store(c, k1, Slot{});  // erases a slot that existed
  (void)state.storage_store(d, k2, crypto::U256(1));
  state.journal_revert();
  EXPECT_TRUE(state == outer_only);
  state.journal_commit();
  EXPECT_EQ(state.journal_depth(), 0u);
  EXPECT_TRUE(state == outer_only);
  EXPECT_EQ(state.balance(a), 110u);
  EXPECT_EQ(state.storage_load(c, k1).low64(), 5u);
  EXPECT_EQ(state.storage_load(c, k2).low64(), 3u);

  // A frame an exception unwinds through reverts itself.
  try {
    const JournalFrame frame(state);
    state.add_balance(a, 1);
    state.bump_nonce(d);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(state.journal_depth(), 0u);
  EXPECT_TRUE(state == outer_only);
}

TEST(GasMeter, ThrowsAtLimit) {
  GasMeter meter(100, GasSchedule::istanbul());
  meter.charge(60);
  meter.charge(40);
  EXPECT_EQ(meter.remaining(), 0u);
  EXPECT_THROW(meter.charge(1), OutOfGas);
}

TEST(GasMeter, Sha256PricingMatchesSchedule) {
  GasMeter meter(1'000'000, GasSchedule::istanbul());
  meter.charge_sha256(0);
  EXPECT_EQ(meter.used(), 60u);
  meter.charge_sha256(33);  // 2 words
  EXPECT_EQ(meter.used(), 60u + 60 + 24);
}

}  // namespace
}  // namespace btcfast::psc
