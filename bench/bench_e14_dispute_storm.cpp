// E14 — Dispute storm engine: deduped batch PoW judgment vs the naive
// per-dispute path, under a flash double-spend wave whose evidence
// chains share segments Zipf-style (a few deep anchors carry most of the
// disputes — everyone proves against the same recent chain suffix).
//
// Twin worlds are built from the same seed; one executes the storm batch
// one transaction at a time (naive), the other through the StormEngine
// (one deduped parallel hashing sweep, then identical sequential metered
// execution). Receipts and gas must match byte-for-byte — the engine is
// only allowed to be faster, never different.
//
// BTCFAST_E14_SMOKE=1 shrinks the workload for the tier1.sh gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <thread>

#include "bench_table.h"
#include "btc/pow.h"
#include "btcfast/customer.h"
#include "btcfast/evidence.h"
#include "btcfast/payjudger.h"
#include "btcsim/scenario.h"
#include "common/thread_pool.h"
#include "dispute/storm_engine.h"

using namespace btcfast;

namespace {

constexpr std::uint64_t kHourMs = 60ULL * 60 * 1000;

struct Workload {
  std::size_t disputes = 48;
  std::size_t waves = 6;        ///< distinct checkpoint anchors
  int blocks_per_wave = 22;     ///< chain segment between anchors
  int repetitions = 5;
};

struct World {
  btc::ChainParams params;
  std::unique_ptr<btc::Chain> chain;
  psc::PscChain psc;
  core::PayJudgerConfig cfg;
  psc::Address judger;
  psc::Address merchant = psc::Address::from_label("merchant");
  std::vector<sim::Party> parties;
  std::vector<psc::Address> customers;
  std::vector<std::unique_ptr<core::CustomerWallet>> wallets;
  std::vector<psc::PscTx> storm;
  std::uint64_t eval_time = 0;
  std::size_t evidence_headers = 0;  ///< total headers across storm txs
};

void mine(World& w, std::vector<btc::Transaction> txs) {
  btc::Block b;
  b.header.prev_hash = w.chain->tip_hash();
  b.header.time = w.chain->tip_header().time + 600;
  b.header.bits = w.params.genesis_bits;
  btc::Transaction cb;
  btc::TxIn in;
  in.prevout.index = 0xffffffff;
  in.sequence = w.chain->height() + 1;
  cb.inputs.push_back(in);
  cb.outputs.push_back(btc::TxOut{w.params.subsidy, w.parties[0].script});
  b.txs.push_back(cb);
  for (auto& tx : txs) b.txs.push_back(std::move(tx));
  if (!btc::mine_block(b, w.params) ||
      w.chain->submit_block(b) != btc::SubmitResult::kActiveTip) {
    std::fprintf(stderr, "FATAL: mining failed during setup\n");
    std::abort();
  }
}

/// Zipf-ish wave assignment: wave w receives a share proportional to
/// 1/(w+1), so the deepest anchors carry the most disputes.
std::vector<std::size_t> wave_of_dispute(const Workload& wl) {
  double norm = 0;
  for (std::size_t w = 0; w < wl.waves; ++w) norm += 1.0 / static_cast<double>(w + 1);
  std::vector<std::size_t> waves;
  std::size_t assigned = 0;
  for (std::size_t w = 0; w < wl.waves && assigned < wl.disputes; ++w) {
    std::size_t quota = static_cast<std::size_t>(
        static_cast<double>(wl.disputes) / (static_cast<double>(w + 1) * norm) + 0.5);
    if (w + 1 == wl.waves || quota == 0) quota = wl.disputes - assigned;
    for (std::size_t i = 0; i < quota && assigned < wl.disputes; ++i, ++assigned) {
      waves.push_back(w);
    }
  }
  return waves;
}

std::unique_ptr<World> build_world(std::uint64_t seed, const Workload& wl) {
  auto w = std::make_unique<World>();
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  w->params = btc::ChainParams::regtest();
  w->params.pow_limit = crypto::U256::one() << 250;  // ~2^6 hashes/block
  w->params.genesis_bits = btc::target_to_bits(w->params.pow_limit);
  w->chain = std::make_unique<btc::Chain>(w->params);

  std::vector<btc::ScriptPubKey> scripts;
  for (std::size_t i = 0; i < wl.disputes; ++i) {
    w->parties.push_back(sim::Party::make(100 + static_cast<unsigned>(i)));
    scripts.push_back(w->parties.back().script);
    w->customers.push_back(psc::Address::from_label("customer/" + std::to_string(i)));
  }
  for (const auto& b : sim::build_funding_chain(w->params, scripts, 1)) {
    (void)w->chain->submit_block(b);
  }

  w->cfg.pow_limit = w->params.pow_limit;
  w->cfg.initial_checkpoint = w->chain->tip_hash();
  w->cfg.required_depth = 3;
  w->cfg.evidence_window_ms = 10'000 * kHourMs;
  w->cfg.min_collateral = 1'000;
  w->cfg.dispute_bond = 500;
  w->judger = w->psc.deploy("payjudger", std::make_unique<core::PayJudger>(w->cfg));
  w->psc.mint(w->merchant, 1'000'000'000);

  for (std::size_t i = 0; i < wl.disputes; ++i) {
    w->psc.mint(w->customers[i], 1'000'000'000);
    w->wallets.push_back(std::make_unique<core::CustomerWallet>(
        w->parties[i], w->customers[i], i + 1));
    (void)w->psc.execute_now(w->wallets[i]->make_deposit_tx(w->judger, 100'000, 10'000 * kHourMs), 0);
  }

  const auto waves = wave_of_dispute(wl);
  std::vector<btc::BlockHash> anchors(wl.disputes);
  std::vector<btc::Txid> txids(wl.disputes);
  btc::BlockHash checkpoint = w->cfg.initial_checkpoint;
  std::uint64_t t = 1'000;
  std::size_t next = 0;
  for (std::size_t wave = 0; wave < wl.waves; ++wave) {
    if (wave > 0 && w->chain->tip_hash() != checkpoint) {
      const auto advance = core::headers_since(*w->chain, checkpoint);
      if (advance && !advance->empty()) {
        psc::PscTx tx;
        tx.from = w->merchant;
        tx.to = w->judger;
        tx.method = "updateCheckpoint";
        tx.args = core::encode_checkpoint_args(*advance);
        tx.gas_limit = 30'000'000;
        (void)w->psc.execute_now(tx, t);
        checkpoint = w->chain->tip_hash();
      }
    }
    std::vector<btc::Transaction> payments;
    for (; next < waves.size() && waves[next] == wave; ++next) {
      const auto coins = sim::find_spendable(*w->chain, w->parties[next].script);
      if (coins.empty()) continue;
      const auto [op, coin] = coins.front();
      core::Invoice inv;
      inv.amount_sat = coin.out.value / 2;
      inv.compensation = 400;
      inv.pay_to = w->parties[next].script;
      inv.merchant_psc = w->merchant;
      inv.expires_at_ms = t + 100 * kHourMs;
      core::FastPayPackage pkg =
          w->wallets[next]->create_fastpay(inv, op, coin.out.value, t, t + 100 * kHourMs);
      txids[next] = pkg.payment_tx.txid();
      anchors[next] = checkpoint;
      payments.push_back(pkg.payment_tx);
      psc::PscTx tx;
      tx.from = w->merchant;
      tx.to = w->judger;
      tx.value = 500;
      tx.method = "openDispute";
      tx.args = core::encode_open_dispute_args(next + 1, pkg.binding);
      const auto r = w->psc.execute_now(tx, t);
      if (!r.success) {
        std::fprintf(stderr, "FATAL: openDispute: %s\n", r.revert_reason.c_str());
        std::abort();
      }
      t += 10;
    }
    mine(*w, std::move(payments));
    for (int b = 1; b < wl.blocks_per_wave; ++b) mine(*w, {});
  }
  for (std::uint32_t d = 0; d < w->cfg.required_depth; ++d) mine(*w, {});

  for (std::size_t i = 0; i < wl.disputes; ++i) {
    const auto chain_headers = core::headers_since(*w->chain, anchors[i]);
    if (!chain_headers || chain_headers->empty() || chain_headers->size() > 144) {
      std::fprintf(stderr, "FATAL: bad evidence chain for dispute %zu\n", i);
      std::abort();
    }
    psc::PscTx m;
    m.from = w->merchant;
    m.to = w->judger;
    m.method = "submitMerchantEvidence";
    m.args = core::encode_merchant_evidence_args(i + 1, *chain_headers);
    m.gas_limit = 30'000'000;
    w->evidence_headers += chain_headers->size();
    w->storm.push_back(std::move(m));

    const auto ev =
        core::build_inclusion_evidence(*w->chain, anchors[i], txids[i], w->cfg.required_depth);
    if (!ev) {
      std::fprintf(stderr, "FATAL: no inclusion evidence for dispute %zu\n", i);
      std::abort();
    }
    psc::PscTx c;
    c.from = w->customers[i];
    c.to = w->judger;
    c.method = "submitCustomerEvidence";
    c.args = core::encode_customer_evidence_args(i + 1, ev->headers, ev->proof, ev->header_index);
    c.gas_limit = 30'000'000;
    w->evidence_headers += ev->headers.size();
    w->storm.push_back(std::move(c));
  }
  std::shuffle(w->storm.begin(), w->storm.end(), rng);
  w->eval_time = t + 1'000;
  return w;
}

struct RunOutcome {
  double seconds = 0;
  psc::Gas total_gas = 0;
  std::size_t failures = 0;
  dispute::HeaderIndexStats stats;
};

RunOutcome run_naive(World& w) {
  RunOutcome o;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& tx : w.storm) {
    const auto r = w.psc.execute_now(tx, w.eval_time);
    if (!r.success) ++o.failures;
  }
  const auto t1 = std::chrono::steady_clock::now();
  o.seconds = std::chrono::duration<double>(t1 - t0).count();
  o.total_gas = w.psc.total_gas_used();
  return o;
}

RunOutcome run_storm(World& w) {
  RunOutcome o;
  dispute::StormEngine engine(w.psc, w.judger);
  const auto t0 = std::chrono::steady_clock::now();
  const auto receipts = engine.execute_batch(w.storm, w.eval_time);
  const auto t1 = std::chrono::steady_clock::now();
  for (const auto& r : receipts) {
    if (!r.success) ++o.failures;
  }
  o.seconds = std::chrono::duration<double>(t1 - t0).count();
  o.total_gas = w.psc.total_gas_used();
  o.stats = engine.stats();
  return o;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("BTCFAST_E14_SMOKE") != nullptr;
  Workload wl;
  if (smoke) {
    wl.disputes = 10;
    wl.waves = 3;
    wl.blocks_per_wave = 5;
    wl.repetitions = 1;
  }
  // The naive-vs-storm comparison runs on the inline pool, so dedup alone
  // is measured; the fan-out table below adds worker threads.
  common::ThreadPool::configure_global(0);

  std::printf("# E14 — dispute storm: deduped batch judgment vs naive per-dispute\n");
  std::printf("# %zu disputes, %zu Zipf-shared anchors, %d-block segments%s\n\n", wl.disputes,
              wl.waves, wl.blocks_per_wave, smoke ? " [smoke]" : "");

  RunOutcome best_naive, best_storm;
  std::size_t evidence_headers = 0, storm_txs = 0;
  bool gas_match = true;
  for (int rep = 0; rep < wl.repetitions; ++rep) {
    auto w_naive = build_world(1, wl);
    auto w_storm = build_world(1, wl);
    evidence_headers = w_naive->evidence_headers;
    storm_txs = w_naive->storm.size();
    const RunOutcome naive = run_naive(*w_naive);
    const RunOutcome storm = run_storm(*w_storm);
    gas_match &= naive.total_gas == storm.total_gas && naive.failures == storm.failures;
    if (rep == 0 || naive.seconds < best_naive.seconds) best_naive = naive;
    if (rep == 0 || storm.seconds < best_storm.seconds) best_storm = storm;
  }

  const double evidence_mb = static_cast<double>(evidence_headers) * 80.0 / 1e6;
  const double dps_naive = static_cast<double>(wl.disputes) / best_naive.seconds;
  const double dps_storm = static_cast<double>(wl.disputes) / best_storm.seconds;
  const double speedup = dps_storm / dps_naive;
  const double hit_rate = best_storm.stats.hit_rate();
  const std::uint64_t unique_hashed = best_storm.stats.misses;

  bench::Table t({"path", "time ms", "disputes/s", "evidence MB/s", "headers hashed"});
  t.row({"naive per-dispute", bench::fmt(best_naive.seconds * 1e3, 2), bench::fmt(dps_naive, 1),
         bench::fmt(evidence_mb / best_naive.seconds, 2), bench::fmt_u(evidence_headers)});
  t.row({"storm engine", bench::fmt(best_storm.seconds * 1e3, 2), bench::fmt(dps_storm, 1),
         bench::fmt(evidence_mb / best_storm.seconds, 2), bench::fmt_u(unique_hashed)});
  t.print();

  std::printf(
      "\n# %zu evidence txs over %zu disputes carry %zu headers (%.2f MB of 80-byte\n"
      "# headers); only %llu are unique. Dedup hit rate %.1f%%, speedup %.2fx.\n"
      "# Gas and verdicts byte-identical across paths: %s\n",
      storm_txs, wl.disputes, evidence_headers, evidence_mb,
      static_cast<unsigned long long>(unique_hashed), hit_rate * 100.0, speedup,
      gas_match ? "yes" : "NO");

  // Thread fan-out: the storm engine hashes each batch's unique headers
  // in one parallel_for on the global pool, then replays sequentially.
  // Same worlds, same parity requirement, at each pool size the hardware
  // backs.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  bench::Table fanout({"pool threads", "storm disputes/s", "scale vs inline"});
  fanout.row({"0", bench::fmt(dps_storm, 1), bench::fmt(1.0, 2)});
  for (const unsigned threads : {2u, 4u}) {
    if (threads > hw) break;
    double best_s = 0;
    for (int rep = 0; rep < wl.repetitions; ++rep) {
      auto w = build_world(1, wl);
      common::ThreadPool::configure_global(threads);
      const RunOutcome o = run_storm(*w);
      common::ThreadPool::configure_global(0);
      gas_match &= o.total_gas == best_naive.total_gas && o.failures == best_naive.failures;
      if (rep == 0 || o.seconds < best_s) best_s = o.seconds;
    }
    const double dps = static_cast<double>(wl.disputes) / best_s;
    fanout.row({bench::fmt_u(threads), bench::fmt(dps, 1), bench::fmt(dps / dps_storm, 2)});
  }
  std::printf("\n# storm engine thread fan-out (hardware threads: %u)\n\n", hw);
  fanout.print();

  bench::JsonDoc doc;
  doc.set("experiment", "e14_dispute_storm");
  doc.set("smoke", smoke ? "yes" : "no");
  doc.set("disputes", static_cast<std::uint64_t>(wl.disputes));
  doc.set("storm_txs", static_cast<std::uint64_t>(storm_txs));
  doc.set("anchors", static_cast<std::uint64_t>(wl.waves));
  doc.set("evidence_headers_total", static_cast<std::uint64_t>(evidence_headers));
  doc.set("unique_headers_hashed", unique_hashed);
  doc.set("dedup_hit_rate", hit_rate);
  doc.set("disputes_per_s_naive", dps_naive);
  doc.set("disputes_per_s_storm", dps_storm);
  doc.set("evidence_mb_per_s_naive", evidence_mb / best_naive.seconds);
  doc.set("evidence_mb_per_s_storm", evidence_mb / best_storm.seconds);
  doc.set("speedup", speedup);
  doc.set("gas_parity", gas_match ? "yes" : "no");
  doc.add_table("storm_thread_fanout", fanout);
  doc.write("BENCH_e14_dispute_storm.json");
  return gas_match ? 0 : 1;
}
