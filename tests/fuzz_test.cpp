// Robustness fuzzing (deterministic, seeded): parsers must never crash or
// accept inconsistent data; the PayJudger contract must preserve value-
// conservation invariants under arbitrary operation sequences; chains
// must converge regardless of block delivery order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "btc/chain.h"
#include "btc/pow.h"
#include "btc/spv.h"
#include "btcfast/customer.h"
#include "btcfast/payjudger.h"
#include "btcsim/node.h"
#include "btcsim/scenario.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "crypto/base58.h"
#include "dispute/header_sync.h"
#include "dispute/storm_engine.h"
#include "gateway/wire.h"
#include "net/frame_assembler.h"
#include "store/records.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace btcfast {
namespace {

// Per-seed iteration count for the decoder corpus. The default keeps the
// tier-1 run fast; `scripts/tier1.sh --fuzz-smoke` raises it via
// BTCFAST_FUZZ_ITERS (2000 x 5 seeds = a 10k-iteration corpus per
// decoder) under the ASan/UBSan builds.
int fuzz_iters(int fallback) {
  static const int scaled = [] {
    const char* v = std::getenv("BTCFAST_FUZZ_ITERS");
    return (v != nullptr && *v != '\0') ? std::atoi(v) : 0;
  }();
  return scaled > 0 ? scaled : fallback;
}

// ---------------------------------------------------------------- parsers

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverCrashParsers) {
  Rng rng(GetParam());
  for (int i = 0; i < fuzz_iters(200); ++i) {
    const std::size_t len = rng.below(512);
    Bytes junk(len);
    rng.fill({junk.data(), junk.size()});

    (void)btc::Transaction::deserialize(junk);
    (void)btc::BlockHeader::deserialize(junk);
    (void)btc::TxInclusionProof::deserialize(junk);
    (void)btc::deserialize_headers(junk);
    (void)core::PaymentBinding::deserialize(junk);
    (void)core::SignedBinding::deserialize(junk);
    (void)core::FastPayPackage::deserialize(junk);
    (void)gateway::Frame::deserialize(junk);
    (void)gateway::SubmitFastPayRequest::deserialize(junk);
    (void)gateway::QueryEscrowRequest::deserialize(junk);
    (void)gateway::GetReceiptRequest::deserialize(junk);
    (void)gateway::FastPayResultResponse::deserialize(junk);
    (void)gateway::EscrowInfoResponse::deserialize(junk);
    (void)gateway::ReceiptInfoResponse::deserialize(junk);
    (void)gateway::RetryAfterResponse::deserialize(junk);
    (void)gateway::ErrorResponse::deserialize(junk);
    (void)crypto::base58_decode(std::string(junk.begin(), junk.end()));
    (void)crypto::base58check_decode(std::string(junk.begin(), junk.end()));
    (void)store::StoreRecord::deserialize(junk);
    (void)store::decode_snapshot(junk);
    (void)store::scan_wal(junk);
  }
}

TEST_P(ParserFuzz, SuccessfulParsesRoundTrip) {
  Rng rng(GetParam() * 31 + 5);
  for (int i = 0; i < fuzz_iters(100); ++i) {
    const std::size_t len = rng.below(256);
    Bytes junk(len);
    rng.fill({junk.data(), junk.size()});

    if (auto tx = btc::Transaction::deserialize(junk)) {
      EXPECT_EQ(btc::Transaction::deserialize(tx->serialize()), tx);
    }
    if (auto h = btc::BlockHeader::deserialize(junk)) {
      EXPECT_EQ(h->serialize(), junk);  // headers are fixed-width: exact
    }
    if (auto b = core::PaymentBinding::deserialize(junk)) {
      EXPECT_EQ(b->serialize(), junk);
    }
    // Gateway wire decoders: a successful parse must survive re-encoding
    // (field-level round trip; varint prefixes may be re-canonicalized).
    if (auto f = gateway::Frame::deserialize(junk)) {
      const auto again = gateway::Frame::deserialize(f->serialize());
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->type, f->type);
      EXPECT_EQ(again->request_id, f->request_id);
      EXPECT_EQ(again->payload, f->payload);
    }
    if (auto e = gateway::EscrowInfoResponse::deserialize(junk)) {
      EXPECT_EQ(e->serialize(), junk);  // fixed-width fields: exact
    }
    if (auto ra = gateway::RetryAfterResponse::deserialize(junk)) {
      EXPECT_EQ(ra->serialize(), junk);
    }
  }
}

TEST_P(ParserFuzz, BitFlippedValidMessagesHandled) {
  Rng rng(GetParam() * 77 + 3);
  const sim::Party party = sim::Party::make(GetParam());

  // A genuinely valid FastPayPackage to mutate.
  core::Invoice inv;
  inv.amount_sat = btc::kCoin;
  inv.compensation = 1000;
  inv.pay_to = party.script;
  inv.merchant_psc = psc::Address::from_label("m");
  inv.expires_at_ms = 1000000;
  core::CustomerWallet wallet(party, psc::Address::from_label("c"), 1);
  btc::OutPoint coin;
  coin.txid.bytes[0] = 0x42;
  auto pkg = wallet.create_fastpay(inv, coin, 2 * btc::kCoin, 0, 1000000);
  const Bytes valid = pkg.serialize();

  for (int i = 0; i < fuzz_iters(100); ++i) {
    Bytes mutated = valid;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    // Must not crash; if it parses, the binding signature must fail unless
    // the mutation missed all signed bytes.
    if (auto parsed = core::FastPayPackage::deserialize(mutated)) {
      if (parsed->binding.binding != pkg.binding.binding) {
        EXPECT_FALSE(parsed->binding.verify(party.pub.serialize()));
      }
    }
  }
}

TEST_P(ParserFuzz, ParityFieldDecodesOnlyInCanonicalForm) {
  // Random tails after a hint-free package: a decode that succeeds must
  // hold one bit per signature and re-encode to the same bytes.
  Rng rng(GetParam() * 59 + 11);
  const sim::Party party = sim::Party::make(GetParam() + 90);
  core::Invoice inv;
  inv.amount_sat = btc::kCoin;
  inv.compensation = 1000;
  inv.pay_to = party.script;
  inv.merchant_psc = psc::Address::from_label("m");
  inv.expires_at_ms = 1000000;
  core::CustomerWallet wallet(party, psc::Address::from_label("c"), 1);
  btc::OutPoint coin;
  coin.txid.bytes[0] = 0x17;
  auto pkg = wallet.create_fastpay(inv, coin, 2 * btc::kCoin, 0, 1000000);
  pkg.r_parity.clear();
  const Bytes head = pkg.serialize();
  int decoded = 0;
  for (int i = 0; i < fuzz_iters(200); ++i) {
    Bytes b = head;
    const std::size_t len = rng.below(5);
    for (std::size_t k = 0; k < len; ++k) {
      // Small values half the time, so plausible counts and bit bytes occur.
      b.push_back(static_cast<std::uint8_t>(rng.below(2) == 0 ? rng.below(4) : rng.below(256)));
    }
    if (auto parsed = core::FastPayPackage::deserialize(b)) {
      ++decoded;
      EXPECT_TRUE(parsed->r_parity.empty() ||
                  parsed->r_parity.size() == 1 + parsed->payment_tx.inputs.size());
      EXPECT_EQ(parsed->serialize(), b);
    }
  }
  EXPECT_GT(decoded, 0);  // the hint-free tail (len 0) always decodes
}

TEST_P(ParserFuzz, BitFlippedValidGatewayFramesHandled) {
  Rng rng(GetParam() * 131 + 7);
  const sim::Party party = sim::Party::make(GetParam() + 50);

  core::Invoice inv;
  inv.amount_sat = btc::kCoin;
  inv.compensation = 1000;
  inv.pay_to = party.script;
  inv.merchant_psc = psc::Address::from_label("m");
  inv.expires_at_ms = 1000000;
  core::CustomerWallet wallet(party, psc::Address::from_label("c"), 1);
  btc::OutPoint coin;
  coin.txid.bytes[0] = 0x24;
  gateway::SubmitFastPayRequest req;
  req.invoice_id = 9;
  req.package = wallet.create_fastpay(inv, coin, 2 * btc::kCoin, 0, 1000000);
  const Bytes valid =
      gateway::make_frame(gateway::MsgType::kSubmitFastPay, 1, req.serialize());

  for (int i = 0; i < fuzz_iters(100); ++i) {
    Bytes mutated = valid;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    // The whole decode chain must stay total: frame, then payload.
    if (auto frame = gateway::Frame::deserialize(mutated)) {
      (void)gateway::SubmitFastPayRequest::deserialize(frame->payload);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range<std::uint64_t>(1, 6));

// ------------------------------------------------------- durable store

class StoreFuzz : public ::testing::TestWithParam<std::uint64_t> {};

namespace {

/// A WAL image of `n` random-payload records, recording each payload so
/// the corruption tests can check "never fabricated, never altered".
struct WalImage {
  Bytes bytes;
  std::vector<Bytes> payloads;
};

WalImage sample_wal(Rng& rng, std::size_t n) {
  WalImage img;
  store::append_wal_header(img.bytes);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes payload(1 + rng.below(64));
    rng.fill({payload.data(), payload.size()});
    store::append_wal_record(img.bytes, i + 1, payload);
    img.payloads.push_back(std::move(payload));
  }
  return img;
}

/// The safety property every corrupted scan must satisfy: either the
/// scan fails closed, or it returns a strict-or-full prefix of the
/// original records, byte-identical — corruption may drop a suffix but
/// can never invent or alter a record.
void expect_prefix_or_error(const store::WalScan& scan, const WalImage& img,
                            const std::string& what) {
  if (!scan.ok()) return;
  ASSERT_LE(scan.records.size(), img.payloads.size()) << what;
  for (std::size_t r = 0; r < scan.records.size(); ++r) {
    ASSERT_EQ(scan.records[r].seq, r + 1) << what;
    ASSERT_EQ(scan.records[r].payload, img.payloads[r]) << what;
  }
}

}  // namespace

TEST_P(StoreFuzz, TruncatedWalYieldsOnlyCompletePrefix) {
  Rng rng(GetParam() * 271 + 9);
  for (int i = 0; i < fuzz_iters(50); ++i) {
    const WalImage img = sample_wal(rng, 1 + rng.below(6));
    const std::size_t cut = rng.below(img.bytes.size() + 1);
    const auto scan = store::scan_wal({img.bytes.data(), cut}, 1);
    ASSERT_TRUE(scan.ok()) << scan.error;  // a prefix is always a crash shape
    expect_prefix_or_error(scan, img, "cut " + std::to_string(cut));
    EXPECT_EQ(scan.truncated_tail, cut != img.bytes.size() &&
                                       scan.valid_bytes != cut);
  }
}

TEST_P(StoreFuzz, BitFlippedWalNeverFabricatesRecords) {
  Rng rng(GetParam() * 911 + 13);
  for (int i = 0; i < fuzz_iters(50); ++i) {
    const WalImage img = sample_wal(rng, 1 + rng.below(6));
    Bytes mutated = img.bytes;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    expect_prefix_or_error(store::scan_wal(mutated, 1), img,
                           "flip at " + std::to_string(pos));
  }
}

TEST_P(StoreFuzz, DuplicateAndReorderedSequencesFailClosed) {
  Rng rng(GetParam() * 577 + 21);
  for (int i = 0; i < fuzz_iters(50); ++i) {
    Bytes image;
    store::append_wal_header(image);
    // Two records with a broken sequence relation: duplicate, skip, or
    // regression. Replay protection must refuse all of them.
    const std::uint64_t first = 1 + rng.below(100);
    std::uint64_t second = first + 1;
    switch (rng.below(3)) {
      case 0: second = first; break;                    // duplicate
      case 1: second = first + 2 + rng.below(10); break;  // gap
      case 2: second = first - rng.below(first); break;   // regression
    }
    Bytes p1(8), p2(8);
    rng.fill({p1.data(), p1.size()});
    rng.fill({p2.data(), p2.size()});
    store::append_wal_record(image, first, p1);
    store::append_wal_record(image, second, p2);
    const auto scan = store::scan_wal(image, first);
    EXPECT_FALSE(scan.ok()) << "first=" << first << " second=" << second;
  }
}

TEST_P(StoreFuzz, BitFlippedSnapshotsFailClosed) {
  Rng rng(GetParam() * 383 + 29);
  store::StateImage img;
  img.last_seq = 12;
  for (std::uint8_t i = 0; i < 4; ++i) {
    store::ReservationImage res;
    res.id = 100u + i;
    res.escrow_id = 1 + rng.below(3);
    res.amount = 1 + rng.below(1'000'000);
    res.expires_at_ms = rng.below(1'000'000);
    res.txid[0] = i;
    img.reservations.push_back(res);
  }
  store::DisputeImage dis;
  dis.escrow_id = 2;
  dis.txid[3] = 0x7e;
  dis.amount = 55;
  dis.deadline_ms = 123'456;
  img.open_disputes.push_back(dis);
  const Bytes enc = store::encode_snapshot(img);
  const Bytes canonical = img.serialize();

  for (int i = 0; i < fuzz_iters(200); ++i) {
    Bytes mutated = enc;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    // Snapshots have no torn-tail tolerance: any flip is fatal (the CRC
    // covers every byte past the magic, and the magic itself gates).
    EXPECT_FALSE(store::decode_snapshot(mutated).has_value())
        << "flip at " << pos;
    // Truncation too — atomic rename means partial snapshots never count.
    const auto trunc = store::decode_snapshot({enc.data(), rng.below(enc.size())});
    EXPECT_FALSE(trunc.has_value());
  }
  // The unmutated image still decodes to the same canonical bytes.
  const auto back = store::decode_snapshot(enc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), canonical);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzz, ::testing::Range<std::uint64_t>(1, 6));

// ------------------------------------------------------ escrow invariants

class EscrowFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EscrowFuzz, RandomOperationSequencesPreserveValue) {
  Rng rng(GetParam() * 1009 + 17);

  psc::PscChain psc;
  core::PayJudgerConfig cfg;
  cfg.pow_limit = btc::ChainParams::regtest().pow_limit;
  cfg.required_depth = 2;
  cfg.evidence_window_ms = 1000;
  cfg.min_collateral = 100;
  cfg.dispute_bond = 50;
  // A checkpoint nobody can extend (no real chain in this fuzz).
  cfg.initial_checkpoint.bytes[0] = 0xAA;
  const auto judger = psc.deploy("payjudger", std::make_unique<core::PayJudger>(cfg));

  constexpr int kCustomers = 3;
  constexpr int kMerchants = 2;
  constexpr psc::Value kMint = 1'000'000'000;
  std::vector<psc::Address> customers, merchants;
  std::vector<std::unique_ptr<core::CustomerWallet>> wallets;
  std::vector<sim::Party> parties;
  for (int i = 0; i < kCustomers; ++i) {
    customers.push_back(psc::Address::from_label("cust" + std::to_string(i)));
    parties.push_back(sim::Party::make(900 + static_cast<std::uint64_t>(i)));
    wallets.push_back(std::make_unique<core::CustomerWallet>(
        parties.back(), customers.back(), static_cast<core::EscrowId>(i + 1)));
    psc.mint(customers.back(), kMint);
  }
  for (int i = 0; i < kMerchants; ++i) {
    merchants.push_back(psc::Address::from_label("merch" + std::to_string(i)));
    psc.mint(merchants.back(), kMint);
  }
  const psc::Value total_minted = kMint * (kCustomers + kMerchants);

  auto escrow_view = [&](core::EscrowId id) -> std::optional<core::EscrowView> {
    psc::PscTx q;
    q.from = merchants[0];
    q.to = judger;
    q.method = "getEscrow";
    q.args = core::encode_escrow_id_arg(id);
    const auto r = psc.view_call(q);
    if (!r.success) return std::nullopt;
    return core::PayJudger::decode_escrow_view(r.return_data);
  };

  auto make_binding = [&](int cust, int merch, psc::Value comp,
                          std::uint64_t expiry) -> core::SignedBinding {
    core::Invoice inv;
    inv.amount_sat = btc::kCoin;
    inv.compensation = comp;
    inv.pay_to = parties[static_cast<std::size_t>(cust)].script;
    inv.merchant_psc = merchants[static_cast<std::size_t>(merch)];
    inv.expires_at_ms = expiry;
    btc::OutPoint coin;
    coin.txid.bytes[0] = static_cast<std::uint8_t>(rng.below(256));
    coin.txid.bytes[1] = static_cast<std::uint8_t>(rng.below(256));
    return wallets[static_cast<std::size_t>(cust)]
        ->create_fastpay(inv, coin, 2 * btc::kCoin, 0, expiry)
        .binding;
  };

  std::uint64_t now = 1;
  std::uint64_t open_bonds = 0;  // bonds held by open disputes

  auto check_invariants = [&] {
    // 1. Value conservation: every unit minted is in an account, the
    //    contract, or the fee sink.
    psc::Value total = psc.state().balance(judger) +
                       psc.state().balance(psc::Address::from_label("psc/fee-sink"));
    for (const auto& a : customers) total += psc.state().balance(a);
    for (const auto& a : merchants) total += psc.state().balance(a);
    ASSERT_EQ(total, total_minted);

    // 2. The contract holds exactly the collaterals plus open bonds.
    psc::Value escrowed = 0;
    for (int i = 0; i < kCustomers; ++i) {
      const auto v = escrow_view(static_cast<core::EscrowId>(i + 1));
      ASSERT_TRUE(v.has_value());
      escrowed += v->collateral;
      // 3. Reservations never exceed collateral.
      ASSERT_LE(v->reserved, v->collateral);
      // 4. States stay in the legal set.
      ASSERT_TRUE(v->state == core::EscrowState::kEmpty ||
                  v->state == core::EscrowState::kActive ||
                  v->state == core::EscrowState::kDisputed);
    }
    ASSERT_EQ(psc.state().balance(judger), escrowed + open_bonds);
  };

  std::vector<core::SignedBinding> bindings;
  for (int step = 0; step < 120; ++step) {
    now += 1 + rng.below(500);
    const int cust = static_cast<int>(rng.below(kCustomers));
    const int merch = static_cast<int>(rng.below(kMerchants));
    const auto escrow_id = static_cast<core::EscrowId>(cust + 1);

    psc::PscTx tx;
    const std::uint64_t op = rng.below(7);
    switch (op) {
      case 0:  // deposit
        tx = wallets[static_cast<std::size_t>(cust)]->make_deposit_tx(
            judger, 100 + rng.below(100'000), rng.below(2000));
        break;
      case 1:  // topUp
        tx = wallets[static_cast<std::size_t>(cust)]->make_topup_tx(judger,
                                                                    1 + rng.below(10'000));
        break;
      case 2:  // withdraw
        tx = wallets[static_cast<std::size_t>(cust)]->make_withdraw_tx(judger);
        break;
      case 3: {  // reserve
        const auto b = make_binding(cust, merch, 1 + rng.below(50'000), now + 100'000);
        bindings.push_back(b);
        tx.from = merchants[static_cast<std::size_t>(merch)];
        tx.to = judger;
        tx.method = "reservePayment";
        tx.args = core::encode_open_dispute_args(escrow_id, b);
        break;
      }
      case 4: {  // release a random earlier binding
        if (bindings.empty()) continue;
        const auto& b = bindings[rng.below(bindings.size())];
        tx.from = b.binding.merchant;
        tx.to = judger;
        tx.method = "releaseReservation";
        tx.args = core::encode_open_dispute_args(b.binding.escrow_id, b);
        break;
      }
      case 5: {  // open dispute on a random binding
        if (bindings.empty()) continue;
        const auto& b = bindings[rng.below(bindings.size())];
        tx.from = b.binding.merchant;
        tx.to = judger;
        tx.value = cfg.dispute_bond;
        tx.method = "openDispute";
        tx.args = core::encode_open_dispute_args(b.binding.escrow_id, b);
        break;
      }
      case 6: {  // judge
        tx.from = merchants[static_cast<std::size_t>(merch)];
        tx.to = judger;
        tx.method = "judge";
        tx.args = core::encode_escrow_id_arg(escrow_id);
        break;
      }
    }

    const auto receipt = psc.execute_now(tx, now);
    if (receipt.success && tx.method == "openDispute") open_bonds += cfg.dispute_bond;
    if (receipt.success && tx.method == "judge") open_bonds -= cfg.dispute_bond;
    check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EscrowFuzz, ::testing::Range<std::uint64_t>(1, 9));

// -------------------------------------------------------- chain orderings

class ChainOrderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainOrderFuzz, RandomDeliveryOrdersConverge) {
  Rng rng(GetParam() * 733 + 11);
  const btc::ChainParams params = btc::ChainParams::regtest();
  const sim::Party miner = sim::Party::make(3);

  // Build a small block dag: a trunk with random-length forks.
  std::vector<btc::Block> blocks;
  btc::Chain builder(params);
  for (int i = 0; i < 8; ++i) {
    btc::Block b;
    b.header.prev_hash = builder.tip_hash();
    b.header.time = builder.tip_header().time + 600;
    b.header.bits = builder.next_work_required(b.header.prev_hash);
    btc::Transaction cb;
    btc::TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = 1000 + static_cast<std::uint32_t>(i);
    cb.inputs.push_back(in);
    cb.outputs.push_back(btc::TxOut{params.subsidy, miner.script});
    b.txs.push_back(cb);
    EXPECT_TRUE(btc::mine_block(b, params));
    EXPECT_EQ(builder.submit_block(b), btc::SubmitResult::kActiveTip);
    blocks.push_back(b);
  }
  // Fork blocks off random trunk heights — strictly below the tip so the
  // trunk stays the unique heaviest chain (equal-work ties legitimately
  // resolve by arrival order, which an ordering-fuzz must avoid).
  const std::size_t trunk = blocks.size();
  for (int f = 0; f < 5; ++f) {
    const auto base = rng.below(trunk - 2);
    btc::Block b;
    b.header.prev_hash = blocks[base].hash();
    b.header.time = blocks[base].header.time + 1;
    b.header.bits = params.genesis_bits;
    btc::Transaction cb;
    btc::TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = 5000 + static_cast<std::uint32_t>(f);
    cb.inputs.push_back(in);
    cb.outputs.push_back(btc::TxOut{params.subsidy, miner.script});
    b.txs.push_back(cb);
    EXPECT_TRUE(btc::mine_block(b, params));
    blocks.push_back(b);
  }

  // Deliver the same set in two different random orders via Nodes (whose
  // orphan pools absorb out-of-order arrival).
  auto deliver_shuffled = [&](std::uint64_t seed) {
    Rng order_rng(seed);
    std::vector<btc::Block> shuffled = blocks;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[order_rng.below(i)]);
    }
    sim::Node node(0, params, nullptr);
    for (const auto& b : shuffled) node.receive_block(b);
    return node.chain().tip_hash();
  };

  const auto tip_a = deliver_shuffled(GetParam() * 2 + 1);
  const auto tip_b = deliver_shuffled(GetParam() * 7 + 5);
  EXPECT_EQ(tip_a, tip_b);
  // And both equal the builder's heaviest tip (the trunk).
  EXPECT_EQ(tip_a, builder.tip_hash());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainOrderFuzz, ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------------------------- TCP frame reassembly

class NetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

namespace {

/// What a reassembled stream must look like, computed by a one-shot
/// whole-buffer walk — no incremental buffering, no compaction, no
/// chunk-boundary state. The incremental FrameAssembler must agree with
/// this for EVERY chunking of the same bytes.
struct RefReassembly {
  std::vector<Bytes> frames;
  bool poisoned = false;
  net::FrameAssembler::Error kind = net::FrameAssembler::Error::kNone;
  std::uint64_t error_rid = 0;
};

RefReassembly reference_reassemble(ByteSpan s, std::size_t max_payload) {
  static constexpr std::uint8_t kMagic[4] = {0x31, 0x47, 0x50, 0x46};  // "1GPF" LE image
  RefReassembly out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t avail = s.size() - pos;
    const std::size_t check = avail < 4 ? avail : 4;
    for (std::size_t i = 0; i < check; ++i) {
      if (s[pos + i] != kMagic[i]) {
        out.poisoned = true;
        out.kind = net::FrameAssembler::Error::kBadMagic;
        return out;
      }
    }
    if (avail < net::kHeaderFixedBytes + 1) return out;
    const std::uint8_t tag = s[pos + net::kHeaderFixedBytes];
    const std::size_t vwidth = tag < 0xfd ? 1 : (tag == 0xfd ? 3 : (tag == 0xfe ? 5 : 9));
    if (avail < net::kHeaderFixedBytes + vwidth) return out;
    Reader r(s.subspan(pos + net::kHeaderFixedBytes, vwidth));
    const auto len = r.varint();
    if (!len || *len > max_payload) {
      out.poisoned = true;
      out.kind = net::FrameAssembler::Error::kOversizedLength;
      std::uint64_t rid = 0;
      for (int i = 7; i >= 0; --i) rid = (rid << 8) | s[pos + 5 + static_cast<std::size_t>(i)];
      out.error_rid = rid;
      return out;
    }
    const std::size_t total = net::kHeaderFixedBytes + vwidth + static_cast<std::size_t>(*len);
    if (avail < total) return out;
    out.frames.emplace_back(s.begin() + static_cast<std::ptrdiff_t>(pos),
                            s.begin() + static_cast<std::ptrdiff_t>(pos + total));
    pos += total;
  }
}

/// A stream of mostly-valid frames with adversarial sprinkles: corrupted
/// magic bytes, unknown types, zero-length and oversized payloads,
/// non-canonical varint lengths, truncated tails, trailing garbage.
Bytes sample_stream(Rng& rng, std::size_t max_payload) {
  Writer w;
  const std::size_t n_frames = rng.below(6);
  for (std::size_t f = 0; f < n_frames; ++f) {
    std::uint32_t magic = gateway::kWireMagic;
    if (rng.below(8) == 0) magic ^= 1u << (8 * rng.below(4));  // corrupt one magic byte
    w.u8(static_cast<std::uint8_t>(magic & 0xff));
    w.u8(static_cast<std::uint8_t>((magic >> 8) & 0xff));
    w.u8(static_cast<std::uint8_t>((magic >> 16) & 0xff));
    w.u8(static_cast<std::uint8_t>((magic >> 24) & 0xff));
    w.u8(static_cast<std::uint8_t>(rng.below(256)));  // type: often unknown
    w.u64le(rng.next());
    std::size_t len = rng.below(64);
    switch (rng.below(8)) {
      case 0: len = 0; break;
      case 1: len = max_payload; break;
      case 2: len = max_payload + 1 + rng.below(1 << 20); break;  // oversized
      default: break;
    }
    if (rng.below(4) == 0 && len <= 0xffff) {
      w.u8(0xfd);  // non-canonical CompactSize for a small length
      w.u16le(static_cast<std::uint16_t>(len));
    } else {
      w.varint(len);
    }
    if (len <= max_payload) {
      Bytes payload(len);
      rng.fill({payload.data(), payload.size()});
      w.bytes(payload);
    }
  }
  Bytes stream = std::move(w).take();
  if (rng.below(3) == 0 && !stream.empty()) {
    stream.resize(rng.below(stream.size()));  // truncate mid-anything
  }
  if (rng.below(3) == 0) {
    Bytes tail(rng.below(32));
    rng.fill({tail.data(), tail.size()});
    append(stream, tail);  // trailing garbage
  }
  return stream;
}

}  // namespace

// Every chunking of every stream: the incremental assembler never
// crashes, never emits different frames than the whole-buffer reference,
// agrees on the poison verdict, and never buffers more than one
// max-size frame (bounded memory).
TEST_P(NetFuzz, ChunkedReassemblyMatchesReference) {
  Rng rng(GetParam() * 467 + 19);
  constexpr std::size_t kMaxPayload = 4096;  // small cap keeps oversized reachable
  const std::size_t bound = net::kHeaderFixedBytes + 9 + kMaxPayload;

  for (int i = 0; i < fuzz_iters(150); ++i) {
    const Bytes stream = rng.below(6) == 0
                             ? [&] {  // pure garbage occasionally
                                 Bytes junk(rng.below(256));
                                 rng.fill({junk.data(), junk.size()});
                                 return junk;
                               }()
                             : sample_stream(rng, kMaxPayload);
    const RefReassembly want = reference_reassemble(stream, kMaxPayload);

    net::FrameAssembler a(kMaxPayload);
    std::vector<Bytes> got;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk = std::min<std::size_t>(1 + rng.below(17), stream.size() - off);
      if (!a.feed({stream.data() + off, chunk})) break;  // poisoned: drops the rest
      off += chunk;
      while (auto frame = a.next_frame()) got.push_back(std::move(*frame));
      ASSERT_LE(a.buffered(), bound) << "unbounded buffering at offset " << off;
    }
    // Drain poison detection for streams whose last chunk completed the
    // offending header (feed never parses; next_frame does).
    (void)a.next_frame();

    ASSERT_EQ(got.size(), want.frames.size()) << "iter " << i;
    for (std::size_t f = 0; f < got.size(); ++f) {
      ASSERT_EQ(got[f], want.frames[f]) << "iter " << i << " frame " << f;
    }
    ASSERT_EQ(a.poisoned(), want.poisoned) << "iter " << i;
    if (want.poisoned) {
      EXPECT_EQ(a.error(), want.kind) << "iter " << i;
      if (want.kind == net::FrameAssembler::Error::kOversizedLength) {
        EXPECT_EQ(a.error_request_id(), want.error_rid) << "iter " << i;
      }
    }
  }
}

// Valid gateway frames through every pathological chunking must come out
// byte-identical — the property the loopback parity tests rely on.
TEST_P(NetFuzz, ValidFramesSurviveEveryChunking) {
  Rng rng(GetParam() * 821 + 23);
  for (int i = 0; i < fuzz_iters(60); ++i) {
    std::vector<Bytes> frames;
    Bytes stream;
    const std::size_t n = 1 + rng.below(4);
    for (std::size_t f = 0; f < n; ++f) {
      Bytes payload(rng.below(300));
      rng.fill({payload.data(), payload.size()});
      frames.push_back(gateway::make_frame(
          static_cast<gateway::MsgType>(1 + rng.below(3)), rng.next(), std::move(payload)));
      append(stream, frames.back());
    }

    net::FrameAssembler a;
    std::vector<Bytes> got;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk = std::min<std::size_t>(1 + rng.below(7), stream.size() - off);
      ASSERT_TRUE(a.feed({stream.data() + off, chunk}));
      off += chunk;
      while (auto frame = a.next_frame()) got.push_back(std::move(*frame));
    }
    ASSERT_EQ(got.size(), frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) ASSERT_EQ(got[f], frames[f]);
    EXPECT_FALSE(a.poisoned());
    EXPECT_EQ(a.buffered(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetFuzz, ::testing::Range<std::uint64_t>(1, 6));

// ---------------------------------------------------------------- dispute

// The dispute subsystem's untrusted surfaces: the locator wire codec,
// the header-sync accept path, and the storm engine's tx pre-scan.
class DisputeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DisputeFuzz, LocatorCodecNeverCrashesAndRoundTrips) {
  Rng rng(GetParam());
  for (int i = 0; i < fuzz_iters(200); ++i) {
    const std::size_t len = rng.below(600);
    Bytes junk(len);
    rng.fill({junk.data(), junk.size()});
    // Junk decode must fail cleanly or produce a re-encodable locator.
    const auto decoded = dispute::deserialize_locator({junk.data(), junk.size()});
    if (decoded) {
      const Bytes wire = dispute::serialize_locator(*decoded);
      const auto again = dispute::deserialize_locator({wire.data(), wire.size()});
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*again, *decoded);
    }
  }
}

TEST_P(DisputeFuzz, HeaderSyncSurvivesJunkAndMutatedBatches) {
  Rng rng(GetParam());
  auto params = btc::ChainParams::regtest();
  params.pow_limit = crypto::U256::one() << 250;
  params.genesis_bits = btc::target_to_bits(params.pow_limit);

  // A small real chain supplies structurally-valid headers to mutate.
  btc::Chain chain(params);
  const auto party = sim::Party::make(42);
  for (const auto& b : sim::build_funding_chain(params, {party.script}, 4)) {
    ASSERT_EQ(chain.submit_block(b), btc::SubmitResult::kActiveTip);
  }
  const auto real = chain.header_range(0, chain.height() + 1);

  dispute::HeaderSyncManager::Config cfg;
  cfg.max_reorg_depth = 5;
  dispute::HeaderSyncManager mgr(params, cfg);
  for (int i = 0; i < fuzz_iters(100); ++i) {
    std::vector<btc::BlockHeader> batch;
    const std::size_t n = 1 + rng.below(8);
    for (std::size_t j = 0; j < n; ++j) {
      btc::BlockHeader h = real[rng.below(real.size())];
      switch (rng.below(4)) {
        case 0:  // untouched (valid, possibly duplicate)
          break;
        case 1:  // corrupt the PoW / identity
          h.nonce ^= static_cast<std::uint32_t>(1 + rng.below(0xffff));
          break;
        case 2:  // orphan it
          rng.fill({h.prev_hash.bytes.data(), h.prev_hash.bytes.size()});
          break;
        default:  // absurd difficulty claim
          h.bits = static_cast<std::uint32_t>(rng.next());
          break;
      }
      batch.push_back(h);
    }
    const auto r = mgr.accept_headers(batch);
    EXPECT_EQ(r.connected + r.known + r.orphaned + r.rejected, batch.size());
    // The tree never outgrows what it has connected (+ genesis).
    EXPECT_LE(mgr.tree_size(), mgr.stats().headers_connected + 1);
    EXPECT_LE(mgr.tip_height(), chain.height());
  }
  // After the storm of junk, a clean sync still converges to the source.
  mgr.sync_from(chain);
  EXPECT_EQ(mgr.tip_hash(), chain.tip_hash());
}

TEST_P(DisputeFuzz, StormPreScanNeverCrashesOnArbitraryArgs) {
  Rng rng(GetParam());
  const char* methods[] = {"submitMerchantEvidence", "submitCustomerEvidence",
                           "updateCheckpoint", "judge", ""};
  std::vector<btc::BlockHeader> sink;
  for (int i = 0; i < fuzz_iters(300); ++i) {
    psc::PscTx tx;
    tx.method = methods[rng.below(5)];
    Bytes junk(rng.below(1024));
    rng.fill({junk.data(), junk.size()});
    tx.args = std::move(junk);
    const std::size_t before = sink.size();
    const std::size_t added = dispute::StormEngine::scan_tx_headers(tx, 144, &sink);
    EXPECT_EQ(sink.size(), before + added);
    EXPECT_LE(added, 144u);
    // The zero-copy span scan must accept exactly what the decoded scan
    // accepts — the storm sweep and the contract see the same headers.
    const ByteSpan raw = dispute::StormEngine::scan_tx_header_span(tx, 144);
    EXPECT_EQ(raw.size(), added * 80);
    for (std::size_t h = 0; h < added; ++h) {
      EXPECT_EQ(sink[before + h].serialize(),
                Bytes(raw.begin() + static_cast<std::ptrdiff_t>(h * 80),
                      raw.begin() + static_cast<std::ptrdiff_t>((h + 1) * 80)));
    }
    if (sink.size() > 4096) sink.clear();  // bound the corpus
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisputeFuzz, ::testing::Range<std::uint64_t>(1, 6));

}  // namespace
}  // namespace btcfast
