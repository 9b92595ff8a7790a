// Unit tests for the Bitcoin substrate: transactions, script, headers,
// PoW, blocks, UTXO, mempool conflict rules, chain reorgs and SPV proofs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "btc/chain.h"
#include "btc/mempool.h"
#include "btc/pow.h"
#include "btc/script.h"
#include "btc/spv.h"
#include "btc/transaction.h"
#include "common/rng.h"

namespace btcfast::btc {
namespace {

using crypto::PrivateKey;
using crypto::PublicKey;
using crypto::U256;

TxRef tx_ref(const Transaction& tx) { return std::make_shared<const Transaction>(tx); }

struct Wallet {
  PrivateKey key;
  PublicKey pub;
  ScriptPubKey script;

  static Wallet make(std::uint64_t seed) {
    auto key = PrivateKey::from_scalar(U256(seed));
    auto pub = PublicKey::derive(*key);
    return Wallet{*key, pub, ScriptPubKey{PubKeyHash::of(pub)}};
  }
};

/// Mines a block paying the coinbase to `dest` on top of `chain`'s tip.
Block make_block(const Chain& chain, const ScriptPubKey& dest,
                 std::vector<Transaction> txs = {}) {
  Block b;
  b.header.version = 1;
  b.header.prev_hash = chain.tip_hash();
  b.header.time = chain.tip_header().time + 600;
  b.header.bits = chain.params().genesis_bits;

  Transaction cb;
  TxIn in;
  in.prevout.index = 0xffffffff;
  // Salt the coinbase with the height so txids differ between chains.
  in.sequence = chain.height() + 1;
  cb.inputs.push_back(in);
  cb.outputs.push_back(TxOut{chain.params().subsidy, dest});
  b.txs.push_back(cb);
  for (auto& tx : txs) b.txs.push_back(std::move(tx));
  EXPECT_TRUE(mine_block(b, chain.params()));
  return b;
}

/// Extends the chain with `n` blocks to `dest`; returns the mined blocks.
std::vector<Block> mine_n(Chain& chain, const ScriptPubKey& dest, int n) {
  std::vector<Block> out;
  for (int i = 0; i < n; ++i) {
    Block b = make_block(chain, dest);
    EXPECT_EQ(chain.submit_block(b), SubmitResult::kActiveTip);
    out.push_back(std::move(b));
  }
  return out;
}

TEST(Script, AddressRoundTrip) {
  const Wallet w = Wallet::make(99);
  const std::string addr = encode_address(w.script.dest);
  const auto decoded = decode_address(addr);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, w.script.dest);
}

TEST(Script, AddressRejectsCorruption) {
  const Wallet w = Wallet::make(99);
  std::string addr = encode_address(w.script.dest);
  addr[8] = addr[8] == '2' ? '3' : '2';
  EXPECT_FALSE(decode_address(addr).has_value());
}

TEST(Transaction, SerializeRoundTrip) {
  const Wallet w = Wallet::make(5);
  Transaction tx;
  TxIn in;
  in.prevout.txid.bytes[0] = 0xaa;
  in.prevout.index = 3;
  tx.inputs.push_back(in);
  tx.outputs.push_back(TxOut{12345, w.script});
  tx.lock_time = 7;

  const Bytes ser = tx.serialize();
  const auto back = Transaction::deserialize(ser);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tx);
}

TEST(Transaction, SignedSerializeRoundTrip) {
  const Wallet w = Wallet::make(5);
  Transaction tx;
  TxIn in;
  in.prevout.txid.bytes[0] = 0xaa;
  tx.inputs.push_back(in);
  tx.outputs.push_back(TxOut{12345, w.script});
  sign_input(tx, 0, w.key, w.script);

  const auto back = Transaction::deserialize(tx.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tx);
  EXPECT_TRUE(verify_input(*back, 0, w.script));
}

TEST(Transaction, TxidChangesWithContent) {
  const Wallet w = Wallet::make(5);
  Transaction tx;
  TxIn in;
  tx.inputs.push_back(in);
  tx.outputs.push_back(TxOut{1000, w.script});
  const Txid id1 = tx.txid();
  tx.outputs[0].value = 1001;
  EXPECT_NE(tx.txid(), id1);
}

TEST(Transaction, SignatureCoversOutputs) {
  const Wallet w = Wallet::make(5);
  Transaction tx;
  TxIn in;
  tx.inputs.push_back(in);
  tx.outputs.push_back(TxOut{1000, w.script});
  sign_input(tx, 0, w.key, w.script);
  ASSERT_TRUE(verify_input(tx, 0, w.script));
  // Tampering with the output invalidates the signature.
  tx.outputs[0].value = 999;
  EXPECT_FALSE(verify_input(tx, 0, w.script));
}

TEST(Transaction, WrongKeyCannotSpend) {
  const Wallet owner = Wallet::make(5);
  const Wallet thief = Wallet::make(6);
  Transaction tx;
  tx.inputs.push_back(TxIn{});
  tx.outputs.push_back(TxOut{1000, thief.script});
  sign_input(tx, 0, thief.key, owner.script);
  EXPECT_FALSE(verify_input(tx, 0, owner.script));
}

TEST(Transaction, CoinbaseDetection) {
  Transaction cb = genesis_coinbase();
  EXPECT_TRUE(cb.is_coinbase());
  cb.inputs[0].prevout.index = 0;
  EXPECT_FALSE(cb.is_coinbase());
}

TEST(Header, SerializeIs80Bytes) {
  BlockHeader h;
  EXPECT_EQ(h.serialize().size(), 80u);
}

TEST(Header, SerializeRoundTrip) {
  BlockHeader h;
  h.version = 2;
  h.prev_hash.bytes[5] = 0xcd;
  h.merkle_root.bytes[31] = 0x11;
  h.time = 1234567;
  h.bits = 0x207fffff;
  h.nonce = 42;
  const auto back = BlockHeader::deserialize(h.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(Header, BitsTargetRoundTrip) {
  // Mainnet genesis bits.
  const auto target = bits_to_target(0x1d00ffff);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->to_hex(),
            "00000000ffff0000000000000000000000000000000000000000000000000000");
  EXPECT_EQ(target_to_bits(*target), 0x1d00ffffu);
}

TEST(Header, BitsRejectsNegative) {
  EXPECT_FALSE(bits_to_target(0x1d800000).has_value());
}

TEST(Header, BitsRejectsZeroMantissa) {
  EXPECT_FALSE(bits_to_target(0x1d000000).has_value());
}

TEST(Header, WorkIsInverseOfTarget) {
  // Halving the target doubles the work (within integer truncation).
  const ChainParams params = ChainParams::regtest();
  const auto t1 = params.pow_limit;
  const auto t2 = t1 >> 1;
  const auto w1 = header_work(target_to_bits(t1));
  const auto w2 = header_work(target_to_bits(t2));
  EXPECT_GE(w2, w1 + w1 - U256(2));
  EXPECT_LE(w2, w1 + w1 + U256(2));
}

TEST(Header, MainnetWorkValue) {
  // For bits 0x1d00ffff, work = 2^256 / (target+1) = 0x100010001... ≈ 2^32.
  const auto work = header_work(0x1d00ffff);
  EXPECT_EQ(work.to_hex(),
            "0000000000000000000000000000000000000000000000000000000100010001");
}

TEST(Pow, MineAndCheck) {
  const ChainParams params = ChainParams::regtest();
  BlockHeader h;
  h.bits = params.genesis_bits;
  ASSERT_TRUE(mine_header(h, params.pow_limit));
  EXPECT_TRUE(check_proof_of_work(h, params.pow_limit));
}

TEST(Pow, RejectsInsufficientWork) {
  const ChainParams params = ChainParams::regtest();
  BlockHeader h;
  h.bits = params.genesis_bits;
  ASSERT_TRUE(mine_header(h, params.pow_limit));
  // A stricter limit (lower) must reject the same header's bits.
  EXPECT_FALSE(check_proof_of_work(h, params.pow_limit >> 8));
}

TEST(Pow, NonceActuallyMatters) {
  const ChainParams params = ChainParams::regtest();
  BlockHeader h;
  h.bits = params.genesis_bits;
  ASSERT_TRUE(mine_header(h, params.pow_limit));
  h.nonce += 1;
  // Overwhelmingly likely to fail after perturbing the nonce.
  EXPECT_FALSE(check_proof_of_work(h, params.pow_limit));
}

TEST(Block, StructureChecks) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  Block good = make_block(chain, miner.script);
  EXPECT_TRUE(check_block_structure(good).ok());

  Block no_cb = good;
  no_cb.txs.clear();
  EXPECT_EQ(check_block_structure(no_cb).error().code, "bad-blk-empty");

  Block bad_root = good;
  bad_root.header.merkle_root.bytes[0] ^= 1;
  EXPECT_EQ(check_block_structure(bad_root).error().code, "bad-merkle-root");

  Block dup = good;
  dup.txs.push_back(dup.txs[0]);
  // Duplicate coinbase triggers the multiple-coinbase rule first.
  EXPECT_FALSE(check_block_structure(dup).ok());
}

TEST(Utxo, AddSpendLifecycle) {
  UtxoSet utxo;
  OutPoint op;
  op.txid.bytes[0] = 1;
  utxo.add(op, Coin{TxOut{500, {}}, 3, false});
  EXPECT_TRUE(utxo.contains(op));
  const auto coin = utxo.spend(op);
  ASSERT_TRUE(coin.has_value());
  EXPECT_EQ(coin->out.value, 500);
  EXPECT_FALSE(utxo.contains(op));
  EXPECT_FALSE(utxo.spend(op).has_value());
}

TEST(Chain, GenesisState) {
  Chain chain(ChainParams::regtest());
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.stored_blocks(), 1u);
  EXPECT_EQ(chain.utxo().size(), 1u);  // genesis coinbase burn output
}

TEST(Chain, ExtendsWithMinedBlocks) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  mine_n(chain, miner.script, 3);
  EXPECT_EQ(chain.height(), 3u);
  EXPECT_EQ(chain.utxo().size(), 4u);
}

TEST(Chain, RejectsBadPow) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  Block b = make_block(chain, miner.script);
  b.header.nonce ^= 0xffffffff;  // break PoW (keep structure valid)
  std::string why;
  EXPECT_EQ(chain.submit_block(b, &why), SubmitResult::kInvalid);
  EXPECT_NE(why.find("high-hash"), std::string::npos);
}

TEST(Chain, RejectsOrphans) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  Block b = make_block(chain, miner.script);
  b.header.prev_hash.bytes[0] ^= 0x55;
  ASSERT_TRUE(mine_header(b.header, chain.params().pow_limit));
  EXPECT_EQ(chain.submit_block(b), SubmitResult::kOrphan);
}

TEST(Chain, DuplicateDetected) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  Block b = make_block(chain, miner.script);
  EXPECT_EQ(chain.submit_block(b), SubmitResult::kActiveTip);
  EXPECT_EQ(chain.submit_block(b), SubmitResult::kDuplicate);
}

TEST(Chain, SpendConfirmedCoin) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const Wallet alice = Wallet::make(2);
  const auto blocks = mine_n(chain, miner.script, 1);
  // Mature the coinbase.
  mine_n(chain, miner.script, chain.params().coinbase_maturity);

  Transaction spend;
  spend.inputs.push_back(TxIn{{blocks[0].txs[0].txid(), 0}, {}, 0xffffffff});
  spend.outputs.push_back(TxOut{chain.params().subsidy - 1000, alice.script});
  sign_input(spend, 0, miner.key, miner.script);

  Block b = make_block(chain, miner.script, {spend});
  std::string why;
  EXPECT_EQ(chain.submit_block(b, &why), SubmitResult::kActiveTip) << why;
  EXPECT_EQ(chain.confirmations(spend.txid()), 1u);
}

TEST(Chain, RejectsPrematureCoinbaseSpend) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const auto blocks = mine_n(chain, miner.script, 1);

  Transaction spend;
  spend.inputs.push_back(TxIn{{blocks[0].txs[0].txid(), 0}, {}, 0xffffffff});
  spend.outputs.push_back(TxOut{chain.params().subsidy, miner.script});
  sign_input(spend, 0, miner.key, miner.script);

  Block b = make_block(chain, miner.script, {spend});
  std::string why;
  EXPECT_EQ(chain.submit_block(b, &why), SubmitResult::kInvalid);
  EXPECT_NE(why.find("premature"), std::string::npos);
}

TEST(Chain, RejectsValueInflation) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const auto blocks = mine_n(chain, miner.script, 1);
  mine_n(chain, miner.script, chain.params().coinbase_maturity);

  Transaction spend;
  spend.inputs.push_back(TxIn{{blocks[0].txs[0].txid(), 0}, {}, 0xffffffff});
  spend.outputs.push_back(TxOut{chain.params().subsidy + 1, miner.script});
  sign_input(spend, 0, miner.key, miner.script);

  Block b = make_block(chain, miner.script, {spend});
  std::string why;
  EXPECT_EQ(chain.submit_block(b, &why), SubmitResult::kInvalid);
  EXPECT_NE(why.find("belowout"), std::string::npos);
}

TEST(Chain, SideChainThenReorg) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const Wallet rival = Wallet::make(2);

  // Main chain: 2 blocks.
  mine_n(chain, miner.script, 2);
  const BlockHash old_tip = chain.tip_hash();

  // Rival fork from genesis on a second Chain instance, 3 blocks.
  Chain fork(ChainParams::regtest());
  const auto rival_blocks = mine_n(fork, rival.script, 3);

  // Feed the rival blocks to the main chain: first two are side-chain,
  // third triggers a reorg.
  EXPECT_EQ(chain.submit_block(rival_blocks[0]), SubmitResult::kSideChain);
  EXPECT_EQ(chain.submit_block(rival_blocks[1]), SubmitResult::kSideChain);
  EXPECT_EQ(chain.submit_block(rival_blocks[2]), SubmitResult::kActiveTip);

  EXPECT_EQ(chain.height(), 3u);
  EXPECT_NE(chain.tip_hash(), old_tip);
  EXPECT_EQ(chain.tip_hash(), fork.tip_hash());
  EXPECT_FALSE(chain.is_on_active_chain(old_tip));
}

TEST(Chain, ReorgUpdatesUtxoAndTxIndex) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const Wallet rival = Wallet::make(2);

  const auto main_blocks = mine_n(chain, miner.script, 1);
  const Txid main_cb = main_blocks[0].txs[0].txid();
  EXPECT_EQ(chain.confirmations(main_cb), 1u);

  Chain fork(ChainParams::regtest());
  const auto rival_blocks = mine_n(fork, rival.script, 2);
  EXPECT_EQ(chain.submit_block(rival_blocks[0]), SubmitResult::kSideChain);
  EXPECT_EQ(chain.submit_block(rival_blocks[1]), SubmitResult::kActiveTip);

  // The displaced coinbase is no longer confirmed nor in the UTXO set.
  EXPECT_EQ(chain.confirmations(main_cb), 0u);
  EXPECT_FALSE(chain.utxo().contains({main_cb, 0}));
  EXPECT_TRUE(chain.utxo().contains({rival_blocks[0].txs[0].txid(), 0}));
}

TEST(Chain, ReorgDisconnectsNonCoinbaseTxsForMempool) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const Wallet alice = Wallet::make(2);

  const auto blocks = mine_n(chain, miner.script, 1);
  mine_n(chain, miner.script, chain.params().coinbase_maturity);

  Transaction spend;
  spend.inputs.push_back(TxIn{{blocks[0].txs[0].txid(), 0}, {}, 0xffffffff});
  spend.outputs.push_back(TxOut{chain.params().subsidy - 500, alice.script});
  sign_input(spend, 0, miner.key, miner.script);
  Block with_spend = make_block(chain, miner.script, {spend});
  ASSERT_EQ(chain.submit_block(with_spend), SubmitResult::kActiveTip);

  // Build a heavier rival branch from the parent of with_spend.
  Chain shadow(ChainParams::regtest());
  const Wallet rival = Wallet::make(3);
  // Replay the shared prefix onto the shadow chain.
  for (std::uint32_t h = 1; h <= chain.height() - 1; ++h) {
    ASSERT_EQ(shadow.submit_block(*chain.block_at_height(h)), SubmitResult::kActiveTip);
  }
  const auto rb = mine_n(shadow, rival.script, 2);
  EXPECT_EQ(chain.submit_block(rb[0]), SubmitResult::kSideChain);
  EXPECT_EQ(chain.submit_block(rb[1]), SubmitResult::kActiveTip);

  const auto disconnected = chain.take_disconnected_txs();
  ASSERT_EQ(disconnected.size(), 1u);
  EXPECT_EQ(disconnected[0].txid(), spend.txid());
}

TEST(Chain, HeaderRangeReturnsActiveHeaders) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  mine_n(chain, miner.script, 5);
  const auto headers = chain.header_range(2, 3);
  ASSERT_EQ(headers.size(), 3u);
  EXPECT_EQ(headers[0].hash(), *chain.hash_at_height(2));
  EXPECT_EQ(headers[1].prev_hash, headers[0].hash());
  EXPECT_EQ(headers[2].prev_hash, headers[1].hash());
}

TEST(Mempool, AcceptsValidSpend) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const Wallet alice = Wallet::make(2);
  const auto blocks = mine_n(chain, miner.script, 1);
  mine_n(chain, miner.script, chain.params().coinbase_maturity);

  Transaction spend;
  spend.inputs.push_back(TxIn{{blocks[0].txs[0].txid(), 0}, {}, 0xffffffff});
  spend.outputs.push_back(TxOut{chain.params().subsidy - 100, alice.script});
  sign_input(spend, 0, miner.key, miner.script);

  Mempool pool;
  EXPECT_TRUE(
      pool.accept(tx_ref(spend), chain.utxo(), chain.height(), chain.params().coinbase_maturity)
          .ok());
  EXPECT_TRUE(pool.contains(spend.txid()));
}

TEST(Mempool, RejectsDoubleSpendConflict) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const Wallet alice = Wallet::make(2);
  const Wallet mallory = Wallet::make(3);
  const auto blocks = mine_n(chain, miner.script, 1);
  mine_n(chain, miner.script, chain.params().coinbase_maturity);

  const OutPoint coin{blocks[0].txs[0].txid(), 0};

  Transaction pay_alice;
  pay_alice.inputs.push_back(TxIn{coin, {}, 0xffffffff});
  pay_alice.outputs.push_back(TxOut{chain.params().subsidy - 100, alice.script});
  sign_input(pay_alice, 0, miner.key, miner.script);

  Transaction pay_self;
  pay_self.inputs.push_back(TxIn{coin, {}, 0xffffffff});
  pay_self.outputs.push_back(TxOut{chain.params().subsidy - 100, mallory.script});
  sign_input(pay_self, 0, miner.key, miner.script);

  Mempool pool;
  ASSERT_TRUE(pool.accept(tx_ref(pay_alice), chain.utxo(), chain.height(), 10).ok());
  const Status conflict = pool.accept(tx_ref(pay_self), chain.utxo(), chain.height(), 10);
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.error().code, "txn-mempool-conflict");
  EXPECT_EQ(pool.spender_of(coin).value(), pay_alice.txid());
}

TEST(Mempool, RejectsMissingInputsAndBadSig) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const Wallet alice = Wallet::make(2);
  mine_n(chain, miner.script, 1);

  Transaction ghost;
  TxIn in;
  in.prevout.txid.bytes[0] = 0x77;
  ghost.inputs.push_back(in);
  ghost.outputs.push_back(TxOut{100, alice.script});
  Mempool pool;
  EXPECT_EQ(pool.accept(tx_ref(ghost), chain.utxo(), chain.height(), 10).error().code,
            "bad-txns-inputs-missingorspent");
}

TEST(Mempool, RemoveForBlockEvictsConfirmedAndConflicts) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const Wallet alice = Wallet::make(2);
  const Wallet mallory = Wallet::make(3);
  const auto blocks = mine_n(chain, miner.script, 1);
  mine_n(chain, miner.script, chain.params().coinbase_maturity);

  const OutPoint coin{blocks[0].txs[0].txid(), 0};
  Transaction pay_alice;
  pay_alice.inputs.push_back(TxIn{coin, {}, 0xffffffff});
  pay_alice.outputs.push_back(TxOut{chain.params().subsidy - 100, alice.script});
  sign_input(pay_alice, 0, miner.key, miner.script);

  Mempool pool;
  ASSERT_TRUE(pool.accept(tx_ref(pay_alice), chain.utxo(), chain.height(), 10).ok());

  // A *different* tx spending the same coin confirms (the double spend).
  Transaction pay_mallory;
  pay_mallory.inputs.push_back(TxIn{coin, {}, 0xffffffff});
  pay_mallory.outputs.push_back(TxOut{chain.params().subsidy - 100, mallory.script});
  sign_input(pay_mallory, 0, miner.key, miner.script);
  Block b = make_block(chain, miner.script, {pay_mallory});

  pool.remove_for_block(b);
  EXPECT_FALSE(pool.contains(pay_alice.txid()));
  EXPECT_EQ(pool.size(), 0u);
}

TEST(Spv, InclusionProofRoundTrip) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  const Wallet alice = Wallet::make(2);
  const auto blocks = mine_n(chain, miner.script, 1);
  mine_n(chain, miner.script, chain.params().coinbase_maturity);

  Transaction spend;
  spend.inputs.push_back(TxIn{{blocks[0].txs[0].txid(), 0}, {}, 0xffffffff});
  spend.outputs.push_back(TxOut{chain.params().subsidy - 100, alice.script});
  sign_input(spend, 0, miner.key, miner.script);
  Block b = make_block(chain, miner.script, {spend});
  ASSERT_EQ(chain.submit_block(b), SubmitResult::kActiveTip);

  const auto proof = make_inclusion_proof(b, spend.txid());
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(verify_inclusion_proof(*proof));

  // Serialization round-trips.
  const auto back = TxInclusionProof::deserialize(proof->serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(verify_inclusion_proof(*back));

  // Wrong txid produces no proof.
  Txid bogus;
  bogus.bytes[0] = 0xee;
  EXPECT_FALSE(make_inclusion_proof(b, bogus).has_value());
}

TEST(Spv, InclusionProofRejectsTamper) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  Block b = make_block(chain, miner.script);
  auto proof = make_inclusion_proof(b, b.txs[0].txid());
  ASSERT_TRUE(proof.has_value());
  proof->txid.bytes[4] ^= 1;
  EXPECT_FALSE(verify_inclusion_proof(*proof));
}

TEST(Spv, HeaderChainVerifies) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  mine_n(chain, miner.script, 6);

  const auto headers = chain.header_range(1, 6);
  const auto anchor = *chain.hash_at_height(0);
  const auto summary = verify_header_chain(anchor, headers, chain.params().pow_limit);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().length, 6u);
  EXPECT_EQ(summary.value().tip_hash, chain.tip_hash());
  // Total work == 6 * per-header work at static difficulty.
  const auto unit = header_work(chain.params().genesis_bits);
  EXPECT_EQ(summary.value().total_work, unit * U256(6));
}

TEST(Spv, HeaderChainRejectsBrokenLink) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  mine_n(chain, miner.script, 4);
  auto headers = chain.header_range(1, 4);
  headers[2].prev_hash.bytes[0] ^= 1;
  const auto anchor = *chain.hash_at_height(0);
  const auto r = verify_header_chain(anchor, headers, chain.params().pow_limit);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "evidence-broken-link");
}

TEST(Spv, HeaderChainRejectsFakePow) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  mine_n(chain, miner.script, 3);
  auto headers = chain.header_range(1, 3);
  headers[1].nonce ^= 0x5555;
  // Re-link the successor so only the PoW is broken.
  headers[2].prev_hash = headers[1].hash();
  const auto anchor = *chain.hash_at_height(0);
  const auto r = verify_header_chain(anchor, headers, chain.params().pow_limit);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "evidence-bad-pow");
}

TEST(Spv, HeaderChainRejectsWrongAnchor) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  mine_n(chain, miner.script, 2);
  const auto headers = chain.header_range(1, 2);
  BlockHash wrong;
  wrong.bytes[3] = 9;
  EXPECT_EQ(verify_header_chain(wrong, headers, chain.params().pow_limit).error().code,
            "evidence-broken-link");
}

TEST(Spv, HeadersSerializeRoundTrip) {
  Chain chain(ChainParams::regtest());
  const Wallet miner = Wallet::make(1);
  mine_n(chain, miner.script, 3);
  const auto headers = chain.header_range(0, 4);
  const auto back = deserialize_headers(serialize_headers(headers));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, headers);
}

/// The memoized txid must match a from-scratch sha256d of the
/// serialization, before and after every kind of field mutation.
TEST(TxidMemo, InvalidatesOnMutation) {
  Transaction tx;
  tx.inputs.push_back(TxIn{});
  tx.outputs.push_back(TxOut{5 * kCoin, ScriptPubKey{}});

  const auto fresh_txid = [](const Transaction& t) {
    return Txid::from_digest(crypto::sha256d(t.serialize()));
  };
  EXPECT_EQ(tx.txid(), fresh_txid(tx));
  const Txid original = tx.txid();
  EXPECT_EQ(tx.txid(), original);  // memo hit, same answer

  tx.outputs[0].value += 1;  // direct field mutation, no API involved
  EXPECT_NE(tx.txid(), original);
  EXPECT_EQ(tx.txid(), fresh_txid(tx));

  tx.version = 2;
  EXPECT_EQ(tx.txid(), fresh_txid(tx));
  tx.lock_time = 99;
  EXPECT_EQ(tx.txid(), fresh_txid(tx));
  tx.inputs[0].sequence = 7;
  EXPECT_EQ(tx.txid(), fresh_txid(tx));
  tx.inputs.push_back(TxIn{});
  EXPECT_EQ(tx.txid(), fresh_txid(tx));
  tx.inputs[1].script_sig.pubkey[0] = 0x02;
  EXPECT_EQ(tx.txid(), fresh_txid(tx));
}

TEST(TxidMemo, SignInputInvalidates) {
  const Wallet w = Wallet::make(77);
  Transaction tx;
  TxIn in;
  in.prevout.txid.bytes[0] = 1;
  tx.inputs.push_back(in);
  tx.outputs.push_back(TxOut{kCoin, w.script});
  const Txid unsigned_id = tx.txid();
  sign_input(tx, 0, w.key, w.script);
  EXPECT_NE(tx.txid(), unsigned_id);
  EXPECT_EQ(tx.txid(), Txid::from_digest(crypto::sha256d(tx.serialize())));
}

TEST(TxidMemo, CopiesCarryAndRevalidate) {
  Transaction tx;
  tx.inputs.push_back(TxIn{});
  tx.outputs.push_back(TxOut{kCoin, ScriptPubKey{}});
  const Txid id = tx.txid();  // warm the memo

  Transaction copy = tx;  // memo travels with the copy
  EXPECT_EQ(copy.txid(), id);
  EXPECT_EQ(copy, tx);  // equality ignores memo state

  copy.outputs[0].value = 2 * kCoin;  // mutate the copy only
  EXPECT_NE(copy.txid(), id);
  EXPECT_EQ(tx.txid(), id);  // original memo unaffected
  EXPECT_NE(copy, tx);
}

TEST(TxidMemo, ConcurrentReadsAreSafe) {
  Transaction tx;
  tx.inputs.push_back(TxIn{});
  tx.outputs.push_back(TxOut{3 * kCoin, ScriptPubKey{}});
  const Txid want = Txid::from_digest(crypto::sha256d(tx.serialize()));

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (tx.txid() != want) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// mine_header's midstate loop must land on the same (nonce, hash) the
/// per-attempt serialize-and-stream path would find.
TEST(Pow, MidstateMiningMatchesReference) {
  const auto params = ChainParams::regtest();
  for (std::uint32_t salt = 0; salt < 3; ++salt) {
    BlockHeader h;
    h.bits = params.genesis_bits;
    h.time = salt;
    h.merkle_root.bytes[0] = static_cast<std::uint8_t>(salt + 1);
    BlockHeader reference = h;

    ASSERT_TRUE(mine_header(h, params.pow_limit));

    // Seed-style reference grind: re-serialize and stream-hash per nonce.
    const auto target = bits_to_target(reference.bits);
    ASSERT_TRUE(target.has_value());
    for (std::uint32_t nonce = 0;; ++nonce) {
      reference.nonce = nonce;
      Bytes ser = reference.serialize();
      crypto::Sha256 s;
      s.update(ser);
      const auto first = s.finalize();
      s.update({first.data(), first.size()});
      const auto digest = s.finalize();
      const auto value = crypto::U256::from_le_bytes({digest.data(), digest.size()});
      if (value <= *target) break;
      ASSERT_LT(nonce, 1u << 24) << "reference grind ran away";
    }
    EXPECT_EQ(h.nonce, reference.nonce);
    EXPECT_EQ(h.hash(), reference.hash());
    EXPECT_TRUE(check_proof_of_work(h, params.pow_limit));
  }
}

}  // namespace
}  // namespace btcfast::btc
