#include "workload.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "btc/header.h"
#include "btc/pow.h"
#include "btcsim/scenario.h"
#include "gateway/wire.h"

namespace perfbench {
namespace {

/// Coins one fan-out transaction creates (one funding coinbase each).
constexpr std::size_t kOutputsPerFanout = 4096;

double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

}  // namespace

Plan make_plan(const FastpayShape& shape, std::uint64_t seed) {
  Plan plan;
  plan.shape = shape;
  plan.seed = seed;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL +
                      (shape.kind == FastpayKind::kCold ? 0x51ULL : 0x4dULL));

  // Open loop: Poisson arrivals at the fixed offered rate.
  const double mean_gap_s = 1.0 / shape.open_rate_per_s;
  for (double t = 0;;) {
    t += -std::log1p(-uniform01(rng)) * mean_gap_s;
    if (t >= shape.open_seconds) break;
    plan.open_due_ns.push_back(static_cast<std::uint64_t>(t * 1e9));
  }

  // Payers. Cold: back-to-back random permutations of every customer, so
  // a key recurs only after about `customers` other payments — far past
  // the precomp cache. Hot: uniform over a handful of returning keys.
  const std::size_t total = shape.closed_groups + plan.open_due_ns.size();
  plan.payer.reserve(total);
  std::vector<std::uint32_t> perm(shape.customers);
  for (std::size_t c = 0; c < perm.size(); ++c) perm[c] = static_cast<std::uint32_t>(c);
  while (plan.payer.size() < total) {
    if (shape.kind == FastpayKind::kCold) {
      std::shuffle(perm.begin(), perm.end(), rng);
      for (const auto c : perm) {
        if (plan.payer.size() == total) break;
        plan.payer.push_back(c);
      }
    } else {
      plan.payer.push_back(static_cast<std::uint32_t>(rng() % shape.customers));
    }
  }
  plan.payments_of.assign(shape.customers, 0);
  for (const auto c : plan.payer) ++plan.payments_of[c];
  return plan;
}

std::unique_ptr<World> build_world(const Plan& plan, std::string* error) {
  auto fail = [&](const std::string& why) -> std::unique_ptr<World> {
    *error = why;
    return nullptr;
  };
  const std::size_t payments = plan.groups();
  const std::size_t fanouts = (payments + kOutputsPerFanout - 1) / kOutputsPerFanout;

  core::DeploymentConfig cfg;
  cfg.seed = plan.seed;
  cfg.funded_coins = static_cast<btc::Amount>(fanouts);
  cfg.params.pow_limit = crypto::U256::one() << 250;  // trivial PoW: blocks are set-up, not load
  cfg.params.genesis_bits = btc::target_to_bits(cfg.params.pow_limit);

  auto w = std::make_unique<World>();
  w->dep = std::make_unique<core::Deployment>(cfg);
  core::Deployment& dep = *w->dep;
  w->now_ms = static_cast<std::uint64_t>(dep.simulator().now());

  // One escrow per customer, sized to cover every payment it will make.
  const psc::Address payer_psc = psc::Address::from_label("perfbench/customers");
  psc::Value total_collateral = 0;
  for (const auto n : plan.payments_of) total_collateral += kCompensation * (n + 1);
  // Plus gas for each deposit (2M gas limit at gas price 1).
  dep.psc().mint(payer_psc, total_collateral + 2'000'000 * plan.shape.customers);
  std::vector<sim::Party> parties;
  parties.reserve(plan.shape.customers);
  for (std::size_t c = 0; c < plan.shape.customers; ++c) {
    parties.push_back(sim::Party::make((plan.seed << 24) + 1'000 + c));
    // Escrow 1 belongs to the deployment's own (funding) customer.
    w->wallets.push_back(std::make_unique<core::CustomerWallet>(
        parties.back(), payer_psc, static_cast<core::EscrowId>(c + 2)));
    const auto receipt = dep.psc().execute_now(
        w->wallets.back()->make_deposit_tx(dep.judger_address(),
                                           kCompensation * (plan.payments_of[c] + 1),
                                           cfg.escrow_unlock_delay_ms),
        w->now_ms);
    if (!receipt.success) return fail("escrow deposit failed: " + receipt.revert_reason);
  }

  // One confirmed coin per payment: fan the funding coinbases out to the
  // paying customers in one block on the merchant's node.
  sim::Node& node = dep.merchant_node();
  const sim::Party& funder = dep.customer().btc_identity();
  auto funding = sim::find_spendable(node.chain(), funder.script);
  std::sort(funding.begin(), funding.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (funding.size() < fanouts) return fail("not enough funding coinbases");

  btc::Block block;
  block.header.version = 1;
  block.header.prev_hash = node.chain().tip_hash();
  block.header.time = node.chain().tip_header().time + 1;
  block.header.bits = node.chain().next_work_required(block.header.prev_hash);
  {
    btc::Transaction cb;
    btc::TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = node.chain().height() + 1;
    cb.inputs.push_back(in);
    cb.outputs.push_back(btc::TxOut{cfg.params.subsidy, funder.script});
    block.txs.push_back(std::move(cb));
  }
  w->coins.resize(payments);
  for (std::size_t f = 0; f < fanouts; ++f) {
    const std::size_t first = f * kOutputsPerFanout;
    const std::size_t last = std::min(payments, first + kOutputsPerFanout);
    btc::Transaction tx;
    tx.inputs.push_back(btc::TxIn{funding[f].first, {}, 0xffffffff});
    for (std::size_t i = first; i < last; ++i) {
      tx.outputs.push_back(btc::TxOut{kCoinSat, parties[plan.payer[i]].script});
    }
    const btc::Amount spent = kCoinSat * static_cast<btc::Amount>(last - first);
    tx.outputs.push_back(btc::TxOut{funding[f].second.out.value - spent - 1'000, funder.script});
    btc::sign_input(tx, 0, funder.key, funder.script);
    const btc::Txid txid = tx.txid();
    for (std::size_t i = first; i < last; ++i) {
      w->coins[i] = btc::OutPoint{txid, static_cast<std::uint32_t>(i - first)};
    }
    block.txs.push_back(std::move(tx));
  }
  if (!btc::mine_block(block, cfg.params)) return fail("fan-out block mining failed");
  node.receive_block(block);
  if (node.chain().tip_hash() != block.hash()) return fail("fan-out block rejected");

  w->invoices.reserve(payments);
  for (std::size_t i = 0; i < payments; ++i) {
    w->invoices.push_back(dep.merchant().make_invoice(kInvoiceSat, kCompensation, w->now_ms,
                                                      24ULL * 60 * 60 * 1000));
  }
  return w;
}

std::vector<Bytes> make_frames(const Plan& plan, World& world) {
  std::vector<Bytes> frames(plan.groups() * plan.shape.frames_per_group());
  const std::uint64_t ttl = world.dep->config().binding_ttl_ms;
  for (std::size_t g = 0; g < plan.groups(); ++g) {
    core::CustomerWallet& wallet = *world.wallets[plan.payer[g]];
    gateway::SubmitFastPayRequest req;
    req.invoice_id = world.invoices[g].invoice_id;
    req.package = wallet.create_fastpay(world.invoices[g], world.coins[g], kCoinSat,
                                        world.now_ms, ttl);
    const std::uint64_t rid = submit_rid(plan, g);
    frames[rid - 1] = gateway::make_frame(gateway::MsgType::kSubmitFastPay, rid, req.serialize());
    if (plan.shape.kind == FastpayKind::kHotMixed) {
      gateway::QueryEscrowRequest q;
      q.escrow_id = wallet.escrow_id();
      frames[rid] = gateway::make_frame(gateway::MsgType::kQueryEscrow, rid + 1, q.serialize());
      gateway::GetReceiptRequest r;
      r.request_id = submit_rid(plan, receipt_target(g));
      frames[rid + 1] = gateway::make_frame(gateway::MsgType::kGetReceipt, rid + 2, r.serialize());
    }
  }
  return frames;
}

std::uint64_t fingerprint(const Plan& plan, const std::vector<Bytes>& frames) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint8_t b) { h = (h ^ b) * 0x100000001b3ULL; };
  for (const auto& f : frames) {
    for (const auto b : f) mix(b);
  }
  for (const auto due : plan.open_due_ns) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(due >> (8 * i)));
  }
  return h;
}

}  // namespace perfbench
