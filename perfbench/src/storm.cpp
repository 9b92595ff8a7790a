#include "storm.h"

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "btc/header.h"
#include "btc/pow.h"
#include "btcfast/customer.h"
#include "btcfast/evidence.h"
#include "btcfast/payjudger.h"
#include "btcsim/scenario.h"
#include "dispute/storm_engine.h"

namespace perfbench {
namespace {

using namespace btcfast;

constexpr std::uint64_t kHourMs = 60ULL * 60 * 1000;
constexpr std::size_t kDisputes = 192;
constexpr std::size_t kWaves = 6;          ///< distinct checkpoint anchors (Zipf-shared)
constexpr int kBlocksPerWave = 22;         ///< chain segment between anchors
constexpr std::size_t kBatchTxs = 96;      ///< evidence txs per execute_batch (~48 disputes)
constexpr std::size_t kSlices = 80;        ///< time slices of the run (near-best reported)

/// What one evidence tx must produce, from the sequential reference.
struct Verdict {
  bool success = false;
  std::string revert_reason;
  psc::Gas gas_used = 0;
  Bytes return_data;
  [[nodiscard]] bool operator==(const Verdict&) const = default;
};

struct World {
  btc::ChainParams params;
  std::unique_ptr<btc::Chain> chain;
  psc::PscChain psc;
  core::PayJudgerConfig cfg;
  psc::Address judger;
  psc::Address merchant = psc::Address::from_label("merchant");
  std::vector<sim::Party> parties;
  std::vector<std::unique_ptr<core::CustomerWallet>> wallets;
  std::vector<psc::PscTx> storm;
  std::vector<std::size_t> dispute_of;  ///< storm tx -> dispute index
  std::uint64_t eval_time = 0;
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
    throw std::runtime_error("mining failed during set-up");
  }
}

/// Wave w carries a share of the disputes proportional to 1/(w+1), so a
/// few deep anchors carry most of them and evidence chains share segments.
std::vector<std::size_t> wave_of_dispute() {
  double norm = 0;
  for (std::size_t w = 0; w < kWaves; ++w) norm += 1.0 / static_cast<double>(w + 1);
  std::vector<std::size_t> waves;
  for (std::size_t w = 0; w < kWaves && waves.size() < kDisputes; ++w) {
    std::size_t quota = static_cast<std::size_t>(
        static_cast<double>(kDisputes) / (static_cast<double>(w + 1) * norm) + 0.5);
    if (w + 1 == kWaves || quota == 0) quota = kDisputes - waves.size();
    for (std::size_t i = 0; i < quota && waves.size() < kDisputes; ++i) waves.push_back(w);
  }
  return waves;
}

/// The pre-storm world: every dispute opened, every payment mined, and
/// the storm (merchant + customer evidence per dispute) shuffled by seed.
std::unique_ptr<World> build_world(std::uint64_t seed) {
  auto w = std::make_unique<World>();
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5d);
  w->params = btc::ChainParams::regtest();
  w->params.pow_limit = crypto::U256::one() << 250;
  w->params.genesis_bits = btc::target_to_bits(w->params.pow_limit);
  w->chain = std::make_unique<btc::Chain>(w->params);

  std::vector<btc::ScriptPubKey> scripts;
  std::vector<psc::Address> customers;
  for (std::size_t i = 0; i < kDisputes; ++i) {
    w->parties.push_back(sim::Party::make((seed << 24) + 100 + i));
    scripts.push_back(w->parties.back().script);
    customers.push_back(psc::Address::from_label("customer/" + std::to_string(i)));
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
  for (std::size_t i = 0; i < kDisputes; ++i) {
    w->psc.mint(customers[i], 1'000'000'000);
    w->wallets.push_back(std::make_unique<core::CustomerWallet>(w->parties[i], customers[i], i + 1));
    const auto r = w->psc.execute_now(
        w->wallets[i]->make_deposit_tx(w->judger, 100'000, 10'000 * kHourMs), 0);
    if (!r.success) throw std::runtime_error("deposit: " + r.revert_reason);
  }

  const auto waves = wave_of_dispute();
  std::vector<btc::BlockHash> anchors(kDisputes);
  std::vector<btc::Txid> txids(kDisputes);
  btc::BlockHash checkpoint = w->cfg.initial_checkpoint;
  std::uint64_t t = 1'000;
  std::size_t next = 0;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
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
      if (coins.empty()) throw std::runtime_error("no coin for dispute " + std::to_string(next));
      const auto [op, coin] = coins.front();
      core::Invoice inv;
      inv.amount_sat = coin.out.value / 2;
      inv.compensation = 400;
      inv.pay_to = w->parties[next].script;
      inv.merchant_psc = w->merchant;
      inv.expires_at_ms = t + 100 * kHourMs;
      const core::FastPayPackage pkg =
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
      if (!r.success) throw std::runtime_error("openDispute: " + r.revert_reason);
      t += 10;
    }
    mine(*w, std::move(payments));
    for (int b = 1; b < kBlocksPerWave; ++b) mine(*w, {});
  }
  for (std::uint32_t d = 0; d < w->cfg.required_depth; ++d) mine(*w, {});

  std::vector<std::pair<psc::PscTx, std::size_t>> storm;
  for (std::size_t i = 0; i < kDisputes; ++i) {
    const auto chain_headers = core::headers_since(*w->chain, anchors[i]);
    if (!chain_headers || chain_headers->empty() || chain_headers->size() > 144) {
      throw std::runtime_error("bad evidence chain for dispute " + std::to_string(i));
    }
    psc::PscTx m;
    m.from = w->merchant;
    m.to = w->judger;
    m.method = "submitMerchantEvidence";
    m.args = core::encode_merchant_evidence_args(i + 1, *chain_headers);
    m.gas_limit = 30'000'000;
    storm.emplace_back(std::move(m), i);

    const auto ev =
        core::build_inclusion_evidence(*w->chain, anchors[i], txids[i], w->cfg.required_depth);
    if (!ev) throw std::runtime_error("no inclusion evidence for dispute " + std::to_string(i));
    psc::PscTx c;
    c.from = customers[i];
    c.to = w->judger;
    c.method = "submitCustomerEvidence";
    c.args = core::encode_customer_evidence_args(i + 1, ev->headers, ev->proof, ev->header_index);
    c.gas_limit = 30'000'000;
    storm.emplace_back(std::move(c), i);
  }
  std::shuffle(storm.begin(), storm.end(), rng);
  for (auto& [tx, d] : storm) {
    w->storm.push_back(std::move(tx));
    w->dispute_of.push_back(d);
  }
  w->eval_time = t + 1'000;
  return w;
}

Verdict verdict_of(const psc::Receipt& r) {
  return {r.success, r.revert_reason, r.gas_used, r.return_data};
}

}  // namespace

RunResult run_storm(std::uint64_t seed, double seconds, bool trace) {
  RunResult res;
  SpanLog log(trace);

  // Set-up, timed several times: the measured world, its sequential twin,
  // and more builds for the median.
  std::vector<double> setup_s;
  std::unique_ptr<World> world, twin;
  try {
    for (std::uint64_t i = 0; more_setups(setup_s); ++i) {
      const std::uint64_t t0 = now_ns();
      auto w = build_world(seed);
      const std::uint64_t t1 = now_ns();
      log.add("setup.world", i, 0, t0, t1);
      setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      if (i == 0) world = std::move(w);
      if (i == 1) twin = std::move(w);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    return res;
  }

  // The reference: the twin world judged one transaction at a time with
  // no engine attached.
  std::vector<Verdict> reference;
  const psc::Gas gas_before = twin->psc.total_gas_used();
  for (const auto& tx : twin->storm) {
    reference.push_back(verdict_of(twin->psc.execute_now(tx, twin->eval_time)));
  }
  const psc::Gas reference_gas = twin->psc.total_gas_used() - gas_before;

  std::vector<std::vector<psc::PscTx>> batches;
  for (std::size_t i = 0; i < world->storm.size(); i += kBatchTxs) {
    const std::size_t end = std::min(world->storm.size(), i + kBatchTxs);
    batches.emplace_back(world->storm.begin() + static_cast<std::ptrdiff_t>(i),
                         world->storm.begin() + static_cast<std::ptrdiff_t>(end));
  }

  // The run is cut into kSlices equal stretches of time; each stretch
  // gets its own goodput and batch-latency percentiles.
  std::vector<double> batch_ms;
  std::vector<std::vector<double>> slice_rate(kSlices), slice_ms(kSlices);
  std::uint64_t passes = 0, hits = 0, misses = 0, mismatched = 0;
  const std::vector<int> cpus = allowed_cpus();
  std::size_t pinned_slice = kSlices;
  const std::uint64_t start = now_ns();
  const std::uint64_t span = static_cast<std::uint64_t>(seconds * 1e9);
  while (passes == 0 || now_ns() < start + span) {
    const std::size_t slice =
        std::min<std::size_t>(kSlices - 1, (now_ns() - start) * kSlices / span);
    if (slice != pinned_slice) {  // each slice on the next CPU (see pin_to_cpu)
      pin_to_cpu(rotating_cpu(cpus, slice));
      pinned_slice = slice;
    }
    psc::PscChain chain = world->psc;  // the pre-storm state, untouched by earlier passes
    const psc::Gas chain_gas = chain.total_gas_used();
    std::vector<bool> bad(kDisputes, false);
    {
      dispute::StormEngine engine(chain, world->judger);
      double pass_s = 0;
      std::size_t tx = 0;
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const std::uint64_t t0 = now_ns();
        const auto receipts = engine.execute_batch(batches[b], world->eval_time);
        const std::uint64_t t1 = now_ns();
        log.add("storm.execute_batch", passes * batches.size() + b, passes, t0, t1);
        batch_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        slice_ms[slice].push_back(batch_ms.back());
        pass_s += static_cast<double>(t1 - t0) / 1e9;
        for (const auto& r : receipts) {
          if (verdict_of(r) != reference[tx]) bad[world->dispute_of[tx]] = true;
          ++tx;
        }
      }
      slice_rate[slice].push_back(static_cast<double>(kDisputes) / pass_s);
      hits += engine.stats().hits;
      misses += engine.stats().misses;
    }
    if (chain.total_gas_used() - chain_gas != reference_gas) {
      std::fprintf(stderr, "CHECK FAILED: pass %llu gas %llu != sequential %llu\n",
                   static_cast<unsigned long long>(passes),
                   static_cast<unsigned long long>(chain.total_gas_used() - chain_gas),
                   static_cast<unsigned long long>(reference_gas));
      mismatched += kDisputes;
    }
    for (const bool b : bad) mismatched += b ? 1 : 0;
    ++passes;
  }

  res.attempted = passes * kDisputes;
  res.failed = mismatched;
  res.correct = mismatched == 0;
  const double disputes = static_cast<double>(res.attempted);
  // As in the fast-pay workloads, each metric takes the near-best slice.
  std::vector<double> rate, p50;
  for (std::size_t k = 0; k < kSlices; ++k) {
    if (slice_rate[k].empty()) continue;
    rate.push_back(median(slice_rate[k]));
    p50.push_back(percentile_copy(slice_ms[k], 50));
  }
  res.end_to_end["goodput_per_s"] = {near_best(rate, true), "1/s"};
  res.end_to_end["latency_p50_ms"] = {near_best(p50, false), "ms"};
  res.end_to_end["setup_s"] = {median(setup_s), "s"};
  res.end_to_end["rss_mb"] = {peak_rss_mb(), "MB"};

  std::printf("# dispute_storm seed %llu: %zu disputes (%zu evidence txs) in %zu batches per "
              "pass, %llu passes\n",
              static_cast<unsigned long long>(seed), kDisputes, world->storm.size(),
              batches.size(), static_cast<unsigned long long>(passes));
  std::printf("# set-up runs (s):");
  for (const double x : setup_s) std::printf(" %.3f", x);
  std::printf("\n# per time slice, in run order: disputes/s");
  for (std::size_t k = 0; k < rate.size(); ++k) std::printf(" %zu:%.0f", k + 1, rate[k]);
  std::printf("; execute_batch p50 ms");
  for (std::size_t k = 0; k < p50.size(); ++k) std::printf(" %zu:%.3f", k + 1, p50[k]);
  std::printf("\n# disputes_per_s %.1f; execute_batch p50 %.3f ms, whole run p90 %.3f ms p99 "
              "%.3f ms (n=%zu); gas per dispute %.1f; verdicts and gas equal the sequential "
              "twin: %s\n",
              res.end_to_end["goodput_per_s"].value, res.end_to_end["latency_p50_ms"].value,
              percentile_copy(batch_ms, 90), percentile_copy(batch_ms, 99), batch_ms.size(),
              static_cast<double>(reference_gas) / kDisputes, res.correct ? "yes" : "NO");

  if (trace) {
    Metrics& m = res.per_layer;
    std::vector<double> spans_ms;
    for (const Span& s : log.spans()) {
      if (std::string_view(s.name) == "storm.execute_batch") {
        spans_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    m["dispute.execute_batch_p50_ms"] = {percentile(spans_ms, 50), "ms"};
    m["dispute.dedup_hit_ratio"] = {
        ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio"};
    m["dispute.headers_hashed_per_dispute"] = {ratio(static_cast<double>(misses), disputes),
                                               "count"};
    m["psc.gas_per_dispute"] = {static_cast<double>(reference_gas) / kDisputes, "gas"};
  }
  return res;
}

}  // namespace perfbench
