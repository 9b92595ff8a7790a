// Crypto micro-benchmarks: the primitive costs under E1/E7's latency and
// throughput numbers. Google-benchmark timings first, then a hand-timed
// hashing-engine section that lands BENCH_micro_crypto.json — including
// the mine_header attempts/s comparison against a seed-style grind
// (per-attempt heap serialization + generic streaming sha256d on the
// portable kernel), which is the acceptance evidence for the midstate +
// specialized-kernel path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_table.h"
#include "btc/header.h"
#include "btc/params.h"
#include "btc/pow.h"
#include "common/thread_pool.h"
#include "crypto/batch_verify.h"
#include "crypto/ecdsa.h"
#include "crypto/merkle.h"
#include "crypto/ripemd160.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/sigcache.h"

namespace {

using namespace btcfast;
using namespace btcfast::crypto;

void BM_Sha256_64B(benchmark::State& state) {
  Bytes data(64, 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_1KiB(benchmark::State& state) {
  Bytes data(1024, 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_Sha256d_Header(benchmark::State& state) {
  Bytes data(80, 0x11);
  for (auto _ : state) benchmark::DoNotOptimize(sha256d(data));
}
BENCHMARK(BM_Sha256d_Header);

void BM_Sha256d64_Kernel(benchmark::State& state) {
  std::uint8_t data[64];
  std::memset(data, 0xab, sizeof(data));
  for (auto _ : state) benchmark::DoNotOptimize(sha256d_64(data));
}
BENCHMARK(BM_Sha256d64_Kernel);

void BM_Sha256d80_Kernel(benchmark::State& state) {
  std::uint8_t data[80];
  std::memset(data, 0x11, sizeof(data));
  for (auto _ : state) benchmark::DoNotOptimize(sha256d_80(data));
}
BENCHMARK(BM_Sha256d80_Kernel);

void BM_MidstateTail16(benchmark::State& state) {
  std::uint8_t data[80];
  std::memset(data, 0x11, sizeof(data));
  const auto midstate = Sha256Midstate::of_first_block(data);
  for (auto _ : state) benchmark::DoNotOptimize(midstate.sha256d_tail16(data + 64));
}
BENCHMARK(BM_MidstateTail16);

void BM_Hash160(benchmark::State& state) {
  Bytes data(33, 0x02);
  for (auto _ : state) benchmark::DoNotOptimize(hash160(data));
}
BENCHMARK(BM_Hash160);

void BM_EcdsaSign(benchmark::State& state) {
  const auto key = *PrivateKey::from_scalar(U256(987654321));
  const auto digest = sha256(as_bytes(std::string("bench message")));
  for (auto _ : state) benchmark::DoNotOptimize(ecdsa_sign(key, digest));
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto key = *PrivateKey::from_scalar(U256(987654321));
  const auto pub = PublicKey::derive(key);
  const auto digest = sha256(as_bytes(std::string("bench message")));
  const auto sig = ecdsa_sign(key, digest);
  for (auto _ : state) benchmark::DoNotOptimize(ecdsa_verify(pub, digest, sig));
}
BENCHMARK(BM_EcdsaVerify);

void BM_ScalarMulBase(benchmark::State& state) {
  const U256 k = *U256::from_hex("123456789abcdef123456789abcdef123456789abcdef");
  for (auto _ : state) benchmark::DoNotOptimize(secp::scalar_mul_base(k));
}
BENCHMARK(BM_ScalarMulBase);

void BM_ScalarMul(benchmark::State& state) {
  const U256 k = *U256::from_hex("123456789abcdef123456789abcdef123456789abcdef");
  const auto p = PublicKey::derive(*PrivateKey::from_scalar(U256(987654321))).point();
  for (auto _ : state) benchmark::DoNotOptimize(secp::scalar_mul(k, p));
}
BENCHMARK(BM_ScalarMul);

// The seed's bit-at-a-time kernel, kept as the correctness reference —
// benchmarked so the wNAF speedup stays visible in the same run.
void BM_ScalarMulNaive(benchmark::State& state) {
  const U256 k = *U256::from_hex("123456789abcdef123456789abcdef123456789abcdef");
  const auto p = PublicKey::derive(*PrivateKey::from_scalar(U256(987654321))).point();
  for (auto _ : state) benchmark::DoNotOptimize(secp::scalar_mul_naive(k, p));
}
BENCHMARK(BM_ScalarMulNaive);

void BM_PubkeyDecompress(benchmark::State& state) {
  const auto key = *PrivateKey::from_scalar(U256(42));
  const auto enc = PublicKey::derive(key).serialize();
  for (auto _ : state) benchmark::DoNotOptimize(secp::decompress({enc.data(), enc.size()}));
}
BENCHMARK(BM_PubkeyDecompress);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Hash32> leaves;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    leaves.push_back(sha256(as_bytes(std::to_string(i))));
  }
  for (auto _ : state) benchmark::DoNotOptimize(merkle_root(leaves));
}
BENCHMARK(BM_MerkleRoot)->Arg(16)->Arg(256)->Arg(2048);

void BM_MerkleProofVerify(benchmark::State& state) {
  std::vector<Hash32> leaves;
  for (int i = 0; i < 2048; ++i) leaves.push_back(sha256(as_bytes(std::to_string(i))));
  const auto root = merkle_root(leaves);
  const auto branch = merkle_branch(leaves, 1027);
  for (auto _ : state) benchmark::DoNotOptimize(merkle_verify(leaves[1027], branch, root));
}
BENCHMARK(BM_MerkleProofVerify);

void BM_HeaderPowCheck(benchmark::State& state) {
  const auto params = btc::ChainParams::regtest();
  btc::BlockHeader h;
  h.bits = params.genesis_bits;
  (void)btc::mine_header(h, params.pow_limit);
  for (auto _ : state) benchmark::DoNotOptimize(btc::check_proof_of_work(h, params.pow_limit));
}
BENCHMARK(BM_HeaderPowCheck);

void BM_MineRegtestBlock(benchmark::State& state) {
  const auto params = btc::ChainParams::regtest();
  std::uint32_t salt = 0;
  for (auto _ : state) {
    btc::BlockHeader h;
    h.bits = params.genesis_bits;
    h.time = salt++;
    benchmark::DoNotOptimize(btc::mine_header(h, params.pow_limit));
  }
}
BENCHMARK(BM_MineRegtestBlock)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Hand-timed hashing-engine section → BENCH_micro_crypto.json
// ---------------------------------------------------------------------------

double elapsed_ns(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(b - a).count();
}

/// ns per op of `body(i)` over `iters` calls.
template <typename F>
double time_ns(std::uint64_t iters, F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) body(i);
  const auto t1 = std::chrono::steady_clock::now();
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// The seed's mining loop, byte for byte in behavior: per attempt, write
/// the nonce into the struct, heap-serialize all 80 bytes, and run the
/// generic streaming double-SHA. Called with the scalar kernel forced so
/// the comparison is against what the seed could actually do.
std::uint64_t seed_style_grind(btc::BlockHeader header, const U256& target,
                               std::uint64_t max_attempts) {
  std::uint64_t sink = 0;
  for (std::uint64_t a = 0; a < max_attempts; ++a) {
    header.nonce = static_cast<std::uint32_t>(a);
    const Bytes ser = header.serialize();
    Sha256 h;
    h.update(ser);
    const auto first = h.finalize();
    h.update({first.data(), first.size()});
    const auto digest = h.finalize();
    const auto value = U256::from_le_bytes({digest.data(), digest.size()});
    if (value <= target) ++sink;  // never at the bench target; defeats DCE
  }
  return sink;
}

double hashes_per_s(double ns_per_op) { return 1e9 / ns_per_op; }

/// Min-of-reps wall-clock: run `body` (which performs `iters` ops) `reps`
/// times and keep the fastest rep. On a shared/1-core host the min is the
/// only stable estimator — means absorb scheduler noise.
template <typename F>
double min_us_per_op(int reps, std::uint64_t iters, F&& body) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, elapsed_ns(t0, t1) / static_cast<double>(iters));
  }
  return best / 1e3;
}

// ---------------------------------------------------------------------------
// Hand-timed verify-engine section → the GLV / precomp / batch acceptance
// numbers. Returns false if the smoke-mode floors fail.
// ---------------------------------------------------------------------------

struct VerifyTriple {
  ByteArray<33> pubkey;
  Sha256Digest digest;
  ByteArray<64> sig;
};

VerifyTriple make_verify_triple(std::uint64_t key_seed, std::uint64_t msg_seed) {
  const auto key = *PrivateKey::from_scalar(U256(key_seed * 2654435761ULL + 12345));
  VerifyTriple t;
  t.digest = sha256(as_bytes(std::string("verify-bench-") + std::to_string(msg_seed)));
  t.pubkey = PublicKey::derive(key).serialize();
  t.sig = ecdsa_sign(key, t.digest).serialize();
  return t;
}

bool run_verify_engine_section(bench::JsonDoc& doc, bool smoke) {
  std::printf("\n# ECDSA verify engine (hand-timed, min-of-reps)\n\n");

  const int reps = smoke ? 3 : 12;
  const std::uint64_t n_single = smoke ? 16 : 64;
  const std::uint64_t n_batch = smoke ? 32 : 64;

  // Distinct-key triples: the cold path (decompress + per-call tables).
  std::vector<VerifyTriple> cold;
  for (std::uint64_t i = 0; i < n_single; ++i) cold.push_back(make_verify_triple(i + 1, i));
  // Repeat-payer triples: ONE key, distinct messages (the warm path).
  std::vector<VerifyTriple> warm;
  for (std::uint64_t i = 0; i < n_single; ++i) warm.push_back(make_verify_triple(7, 1000 + i));

  volatile bool sink = true;
  auto check = [&sink](bool ok) { sink = sink && ok; };

  // Legacy kernel (the retained Shamir baseline), parsed-key and
  // wire-level (decompress included — what a request actually costs).
  std::vector<PublicKey> cold_pubs;
  std::vector<Signature> cold_sigs;
  for (const auto& t : cold) {
    cold_pubs.push_back(*PublicKey::parse({t.pubkey.data(), t.pubkey.size()}));
    cold_sigs.push_back(*Signature::parse({t.sig.data(), t.sig.size()}));
  }
  const double legacy_us = min_us_per_op(reps, n_single, [&] {
    for (std::uint64_t i = 0; i < n_single; ++i) {
      check(ecdsa_verify_baseline(cold_pubs[i], cold[i].digest, cold_sigs[i]));
    }
  });
  const double legacy_wire_us = min_us_per_op(reps, n_single, [&] {
    for (std::uint64_t i = 0; i < n_single; ++i) {
      const auto pub = PublicKey::parse({cold[i].pubkey.data(), cold[i].pubkey.size()});
      check(pub && ecdsa_verify_baseline(*pub, cold[i].digest, cold_sigs[i]));
    }
  });

  // Cold GLV path: wire-level, no caches — decompress + glv_split +
  // per-call shared-frame tables + the four-stream chain.
  const double cold_us = min_us_per_op(reps, n_single, [&] {
    for (const auto& t : cold) {
      check(ecdsa_verify_cached(nullptr, {t.pubkey.data(), t.pubkey.size()}, t.digest,
                                {t.sig.data(), t.sig.size()}, nullptr));
    }
  });

  // Warm repeat-payer path: precomp tables resident, every message fresh
  // (no SigCache, so each op is a full verify through the wide tables).
  PubkeyPrecompCache pre(64);
  check(ecdsa_verify_cached(nullptr, {warm[0].pubkey.data(), 33}, warm[0].digest,
                            {warm[0].sig.data(), 64}, &pre));
  check(ecdsa_verify_cached(nullptr, {warm[1].pubkey.data(), 33}, warm[1].digest,
                            {warm[1].sig.data(), 64}, &pre));  // second touch builds
  check(pre.stats().insertions == 1);
  const double warm_us = min_us_per_op(reps, n_single, [&] {
    for (const auto& t : warm) {
      check(ecdsa_verify_cached(nullptr, {t.pubkey.data(), t.pubkey.size()}, t.digest,
                                {t.sig.data(), t.sig.size()}, &pre));
    }
  });

  // Batch verify: one Montgomery inversion per batch. Cold = distinct
  // keys, warm = 4 repeat payers with resident precomp tables.
  common::ThreadPool inline_pool(0);
  std::vector<SigCheckJob> batch_cold;
  for (std::uint64_t i = 0; i < n_batch; ++i) {
    const auto t = make_verify_triple(100 + i, 5000 + i);
    batch_cold.push_back({t.digest, t.pubkey, t.sig});
  }
  std::vector<SigCheckJob> batch_warm;
  for (std::uint64_t i = 0; i < n_batch; ++i) {
    const auto t = make_verify_triple(200 + (i % 4), 6000 + i);
    batch_warm.push_back({t.digest, t.pubkey, t.sig});
  }
  // Three passes make all 4 keys resident: the first notes them, and a
  // key whose shard took a newer key since its note waits one more pass.
  PubkeyPrecompCache batch_pre(64);
  for (int pass = 0; pass < 3; ++pass) {
    (void)batch_verify(inline_pool, batch_warm, nullptr, &batch_pre);
  }
  check(batch_pre.stats().insertions == 4);
  const double batch_cold_us = min_us_per_op(reps, n_batch, [&] {
    benchmark::DoNotOptimize(batch_verify(inline_pool, batch_cold, nullptr, nullptr));
  });
  const double batch_warm_us = min_us_per_op(reps, n_batch, [&] {
    benchmark::DoNotOptimize(batch_verify(inline_pool, batch_warm, nullptr, &batch_pre));
  });

  const double cold_speedup = legacy_wire_us / cold_us;
  const double warm_speedup = legacy_wire_us / warm_us;
  const double batch_warm_speedup = legacy_wire_us / batch_warm_us;

  bench::Table verify({"path", "us/verify", "speedup vs legacy wire"});
  verify.row({"legacy shamir (parsed key)", bench::fmt(legacy_us, 1), "-"});
  verify.row({"legacy shamir (wire: decompress+verify)", bench::fmt(legacy_wire_us, 1),
              bench::fmt(1.0, 2)});
  verify.row({"glv cold (wire, per-call tables)", bench::fmt(cold_us, 1),
              bench::fmt(cold_speedup, 2)});
  verify.row({"glv warm (precomp tables resident)", bench::fmt(warm_us, 1),
              bench::fmt(warm_speedup, 2)});
  verify.row({"batch cold (shared ninv, distinct keys)", bench::fmt(batch_cold_us, 1),
              bench::fmt(legacy_wire_us / batch_cold_us, 2)});
  verify.row({"batch warm (shared ninv, repeat payers)", bench::fmt(batch_warm_us, 1),
              bench::fmt(batch_warm_speedup, 2)});
  verify.print();
  if (!sink) std::printf("\n# WARNING: a benchmark verify returned false\n");

  doc.set("verify_legacy_us", legacy_us);
  doc.set("verify_legacy_wire_us", legacy_wire_us);
  doc.set("verify_cold_us", cold_us);
  doc.set("verify_warm_us", warm_us);
  doc.set("verify_batch_cold_us", batch_cold_us);
  doc.set("verify_batch_warm_us", batch_warm_us);
  doc.set("verify_cold_speedup", cold_speedup);
  doc.set("verify_warm_speedup", warm_speedup);
  doc.set("verify_batch_warm_speedup", batch_warm_speedup);
  doc.add_table("verify", verify);

  // batch_verify across pool sizes: the cold batch's table builds and
  // GLV chains fan out per key / per job; the inversion stays serial.
  // Interleaved min-of-reps, as the merkle rows: each rep times every
  // pool size back to back, so a noisy spell hits all rows alike.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> pool_sizes;
  for (const unsigned threads : {0u, 2u, 4u}) {
    if (threads <= hw) pool_sizes.push_back(threads);
  }
  std::vector<std::unique_ptr<common::ThreadPool>> pools;
  for (const unsigned threads : pool_sizes) {
    pools.push_back(std::make_unique<common::ThreadPool>(threads));
  }
  std::vector<double> pool_us(pools.size(), 1e30);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t p = 0; p < pools.size(); ++p) {
      pool_us[p] = std::min(pool_us[p], min_us_per_op(1, n_batch, [&] {
        benchmark::DoNotOptimize(batch_verify(*pools[p], batch_cold, nullptr, nullptr));
      }));
    }
  }
  bench::Table batch_threads({"pool threads", "batch cold us/verify", "scale vs inline"});
  for (std::size_t p = 0; p < pools.size(); ++p) {
    batch_threads.row({bench::fmt_u(pool_sizes[p]), bench::fmt(pool_us[p], 1),
                       bench::fmt(pool_us[0] / pool_us[p], 2)});
  }
  std::printf("\n# batch_verify over pool sizes (%llu distinct-key jobs per batch)\n\n",
              static_cast<unsigned long long>(n_batch));
  batch_threads.print();
  doc.add_table("batch_verify_threads", batch_threads);

  // Batch equations: the same passes with and without R-parity hints.
  // Cold = a serving window of first-time payers (155 keys × 2 sigs: the
  // binding and the input share a key), hot = 4 repeat payers with
  // resident tables. The cut-over rows walk small passes across
  // kMinBatchEquationJobs; the wrong-bit row is the worst a submitter can
  // force: one bad parity bit in every sub-batch, so every equation
  // fails and its jobs are checked again one chain each.
  const auto window = [](std::size_t keys, std::size_t per_key, std::uint64_t seed) {
    std::vector<SigCheckJob> jobs;
    for (std::size_t k = 0; k < keys; ++k) {
      const auto key = *PrivateKey::from_scalar(U256(seed * 1000003 + k + 1));
      const auto pub = PublicKey::derive(key).serialize();
      for (std::size_t j = 0; j < per_key; ++j) {
        SigCheckJob job;
        job.digest = sha256(as_bytes("window-" + std::to_string(seed) + "-" + std::to_string(k) +
                                     "-" + std::to_string(j)));
        job.pubkey = pub;
        bool odd = false;
        job.sig = ecdsa_sign(key, job.digest, &odd).serialize();
        job.r_parity = odd ? 1 : 0;
        jobs.push_back(job);
      }
    }
    return jobs;
  };
  const auto unhinted = [](std::vector<SigCheckJob> jobs) {
    for (auto& j : jobs) j.r_parity = kNoRParity;
    return jobs;
  };
  const std::size_t cold_keys = smoke ? 40 : 155;
  const auto cold_window = window(cold_keys, 2, 31);
  const auto cold_window_plain = unhinted(cold_window);
  const auto hot_window = window(4, 26, 32);
  const auto hot_window_plain = unhinted(hot_window);
  PubkeyPrecompCache hot_pre(64);
  for (int pass = 0; pass < 3; ++pass) (void)batch_verify(inline_pool, hot_window, nullptr, &hot_pre);
  check(hot_pre.stats().insertions == 4);
  common::ThreadPool& widest = *pools.back();
  // One flipped bit in each of the first keys' first jobs: batch_verify
  // gives each new key the lightest sub-batch, so key b lands in
  // sub-batch b and every sub-batch gets one wrong bit.
  auto cold_wrong_bit = cold_window;
  for (std::size_t b = 0; b < std::max<std::size_t>(1, widest.thread_count()); ++b) {
    cold_wrong_bit[2 * b].r_parity ^= 1;
  }

  struct HintRow {
    std::string shape;
    std::string pool;
    common::ThreadPool* on;
    const std::vector<SigCheckJob>* plain;
    const std::vector<SigCheckJob>* hinted;
    PubkeyPrecompCache* pre;
    double us[2] = {1e30, 1e30};
  };
  std::vector<HintRow> rows;
  const std::string cold_shape = std::to_string(cold_keys) + " keys x 2";
  rows.push_back({"cold " + cold_shape, "inline", &inline_pool, &cold_window_plain, &cold_window,
                  nullptr});
  rows.push_back({"cold " + cold_shape, std::to_string(widest.thread_count()), &widest,
                  &cold_window_plain, &cold_window, nullptr});
  rows.push_back({"hot 4 keys x 26 (resident)", "inline", &inline_pool, &hot_window_plain,
                  &hot_window, &hot_pre});
  rows.push_back({"cold, 1 wrong bit per sub-batch", std::to_string(widest.thread_count()), &widest,
                  &cold_window_plain, &cold_wrong_bit, nullptr});
  std::vector<std::vector<SigCheckJob>> cut_jobs[2];
  for (const std::size_t n : {kMinBatchEquationJobs / 2, kMinBatchEquationJobs,
                              2 * kMinBatchEquationJobs, 4 * kMinBatchEquationJobs}) {
    cut_jobs[1].push_back(window(n / 2, 2, 40 + n));
    cut_jobs[0].push_back(unhinted(cut_jobs[1].back()));
  }
  for (std::size_t c = 0; c < cut_jobs[1].size(); ++c) {
    rows.push_back({"cut-over: " + std::to_string(cut_jobs[1][c].size()) + " jobs", "inline",
                    &inline_pool, &cut_jobs[0][c], &cut_jobs[1][c], nullptr});
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& row : rows) {
      for (int h = 0; h < 2; ++h) {
        const auto& jobs = h == 0 ? *row.plain : *row.hinted;
        row.us[h] = std::min(row.us[h], min_us_per_op(1, jobs.size(), [&] {
          const auto ok = batch_verify(*row.on, jobs, nullptr, row.pre);
          check(std::count(ok.begin(), ok.end(), 1) == static_cast<std::ptrdiff_t>(ok.size()));
        }));
      }
    }
  }
  bench::Table hints({"window", "pool threads", "per-sig chains us/verify",
                      "batch equations us/verify", "speedup"});
  for (const auto& row : rows) {
    hints.row({row.shape, row.pool, bench::fmt(row.us[0], 1), bench::fmt(row.us[1], 1),
               bench::fmt(row.us[0] / row.us[1], 2)});
  }
  std::printf("\n# batch equations: hinted vs unhinted passes (min-of-reps, interleaved)\n\n");
  hints.print();
  doc.add_table("batch_equations", hints);
  const double cold_equation_speedup = rows[0].us[0] / rows[0].us[1];
  doc.set("verify_batch_equation_cold_us", rows[0].us[1]);
  doc.set("verify_batch_equation_cold_speedup", cold_equation_speedup);
  doc.set("verify_batch_equation_hot_speedup", rows[2].us[0] / rows[2].us[1]);
  doc.set("verify_batch_equation_wrong_bit_speedup", rows[3].us[0] / rows[3].us[1]);

  if (!smoke) return sink;

  // Smoke gates (tier1 --verify-smoke): relative floors always apply —
  // they compare two kernels in the same process, so they are
  // hardware-independent. The absolute-latency budget only applies when
  // the caller vouches for the hardware via BTCFAST_VERIFY_BUDGET_US.
  bool ok = sink;
  const double kColdFloor = 1.5;
  const double kWarmFloor = 2.0;
  const double kEquationFloor = 1.2;
  std::printf("\n# verify-smoke: cold %.2fx (floor %.1f), warm %.2fx (floor %.1f)\n",
              cold_speedup, kColdFloor, warm_speedup, kWarmFloor);
  std::printf("# verify-smoke: hinted cold window %.2fx its unhinted pass (floor %.1f)\n",
              cold_equation_speedup, kEquationFloor);
  if (cold_speedup < kColdFloor || warm_speedup < kWarmFloor) ok = false;
  if (cold_equation_speedup < kEquationFloor) ok = false;
  if (const char* budget_env = std::getenv("BTCFAST_VERIFY_BUDGET_US")) {
    const double budget = std::atof(budget_env);
    std::printf("# verify-smoke: cold %.1f us vs budget %.1f us\n", cold_us, budget);
    if (budget > 0 && cold_us > budget) ok = false;
  } else {
    std::printf("# verify-smoke: no BTCFAST_VERIFY_BUDGET_US — absolute check skipped\n");
  }
  std::printf("# verify-smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

void run_hashing_engine_section() {
  std::printf("\n# Hashing engine (hand-timed) — impl: %s\n\n", sha256_impl_name());

  bench::JsonDoc doc;
  doc.set("experiment", "micro_crypto");
  doc.set("sha256_impl", sha256_impl_name());

  std::uint8_t hdr[80];
  for (int i = 0; i < 80; ++i) hdr[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const Bytes hdr_bytes(hdr, hdr + 80);
  Sha256Digest sink{};

  // --- Per-kernel latency, dispatched vs forced-scalar. ---
  bench::Table kernels({"kernel", "impl", "ns/hash", "hashes/s"});
  constexpr std::uint64_t kHashIters = 200000;
  for (const bool scalar : {false, true}) {
    const bool prev = sha256_force_scalar(scalar);
    const std::string impl = sha256_impl_name();
    const double streaming_ns = time_ns(kHashIters, [&](std::uint64_t) {
      Sha256 h;
      h.update(hdr_bytes);
      const auto first = h.finalize();
      h.update({first.data(), first.size()});
      sink = h.finalize();
    });
    const double d64_ns = time_ns(kHashIters, [&](std::uint64_t) { sink = sha256d_64(hdr); });
    const double d80_ns = time_ns(kHashIters, [&](std::uint64_t) { sink = sha256d_80(hdr); });
    const auto midstate = Sha256Midstate::of_first_block(hdr);
    const double mid_ns =
        time_ns(kHashIters, [&](std::uint64_t) { sink = midstate.sha256d_tail16(hdr + 64); });
    kernels.row({"sha256d streaming 80B", impl, bench::fmt(streaming_ns, 1),
                 bench::fmt(hashes_per_s(streaming_ns), 0)});
    kernels.row({"sha256d_64", impl, bench::fmt(d64_ns, 1), bench::fmt(hashes_per_s(d64_ns), 0)});
    kernels.row({"sha256d_80", impl, bench::fmt(d80_ns, 1), bench::fmt(hashes_per_s(d80_ns), 0)});
    kernels.row({"midstate tail16", impl, bench::fmt(mid_ns, 1),
                 bench::fmt(hashes_per_s(mid_ns), 0)});
    if (!scalar) {
      doc.set("sha256d_80_ns", d80_ns);
      doc.set("midstate_tail16_ns", mid_ns);
      doc.set("header_hashes_per_s", hashes_per_s(mid_ns));
    }
    (void)sha256_force_scalar(prev);
  }
  kernels.print();

  // --- mine_header attempts/s: engine vs seed-style grind. ---
  // bits 0x03000001 → target 1: no attempt can succeed, so both loops run
  // exactly `kGrindAttempts` attempts and the timing is pure grind cost.
  btc::BlockHeader header;
  header.bits = 0x03000001;
  header.time = 1234;
  const auto target = *btc::bits_to_target(header.bits);
  const auto pow_limit = btc::ChainParams::regtest().pow_limit;
  constexpr std::uint64_t kGrindAttempts = 200000;

  const auto m0 = std::chrono::steady_clock::now();
  const bool mined = btc::mine_header(header, pow_limit, 0, kGrindAttempts);
  const auto m1 = std::chrono::steady_clock::now();
  const double mine_ns = elapsed_ns(m0, m1) / static_cast<double>(kGrindAttempts);

  const bool prev = sha256_force_scalar(true);  // the seed only had the portable kernel
  const auto s0 = std::chrono::steady_clock::now();
  const std::uint64_t seed_sink = seed_style_grind(header, target, kGrindAttempts);
  const auto s1 = std::chrono::steady_clock::now();
  (void)sha256_force_scalar(prev);
  const double seed_ns = elapsed_ns(s0, s1) / static_cast<double>(kGrindAttempts);

  const double mine_aps = hashes_per_s(mine_ns);
  const double seed_aps = hashes_per_s(seed_ns);
  const double speedup = seed_ns / mine_ns;

  bench::Table mining({"grind", "ns/attempt", "attempts/s"});
  mining.row({"seed-style (serialize + streaming scalar)", bench::fmt(seed_ns, 1),
              bench::fmt(seed_aps, 0)});
  mining.row({std::string("mine_header (midstate, ") + sha256_impl_name() + ")",
              bench::fmt(mine_ns, 1), bench::fmt(mine_aps, 0)});
  std::printf("\n");
  mining.print();
  std::printf("\n# mine_header speedup vs seed grind: %.1fx%s\n", speedup,
              mined || seed_sink != 0 ? " (WARNING: grind terminated early)" : "");

  doc.set("mine_attempts_per_s", mine_aps);
  doc.set("seed_grind_attempts_per_s", seed_aps);
  doc.set("mine_header_speedup", speedup);

  // --- merkle_root: serial vs thread-pooled level reduction. The pool
  // column must never read slower than serial: below the 4096-pair
  // cutover (and always on single-core hosts) the pool path IS the
  // serial loop, so any residual delta is timer noise. ---
  bench::Table merkle({"leaves", "threads", "us/root"});
  for (const std::size_t n : {512u, 4096u, 16384u}) {
    std::vector<Hash32> leaves(n);
    for (std::size_t i = 0; i < n; ++i) {
      leaves[i] = sha256(as_bytes(std::to_string(i)));
    }
    // Interleaved min-of-reps: each rep times serial then pool back to
    // back, so clock drift and scheduler noise hit both columns equally
    // instead of biasing whichever block ran second.
    const std::uint64_t iters = n >= 16384 ? 50 : 200;
    Hash32 root{};
    double us[2] = {1e18, 1e18};
    for (int rep = 0; rep < 9; ++rep) {
      for (int t = 0; t < 2; ++t) {
        common::ThreadPool::configure_global(t == 0 ? 0 : 4);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < iters; ++i) root = merkle_root(leaves);
        const auto t1 = std::chrono::steady_clock::now();
        const double u =
            std::chrono::duration<double, std::micro>(t1 - t0).count() / static_cast<double>(iters);
        if (u < us[t]) us[t] = u;
      }
    }
    for (int t = 0; t < 2; ++t) {
      merkle.row({bench::fmt_u(n), bench::fmt_u(t == 0 ? 0 : 4), bench::fmt(us[t], 1)});
      if (n == 4096) doc.set(t == 0 ? "merkle_root_4096_serial_us" : "merkle_root_4096_pool4_us", us[t]);
      if (n == 16384) {
        doc.set(t == 0 ? "merkle_root_16384_serial_us" : "merkle_root_16384_pool4_us", us[t]);
      }
    }
    benchmark::DoNotOptimize(root);
  }
  common::ThreadPool::configure_global(0);
  std::printf("\n");
  merkle.print();

  (void)run_verify_engine_section(doc, /*smoke=*/false);

  doc.add_table("kernels", kernels);
  doc.add_table("mining", mining);
  doc.add_table("merkle", merkle);
  doc.write("BENCH_micro_crypto.json");
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* smoke_env = std::getenv("BTCFAST_VERIFY_SMOKE");
      smoke_env != nullptr && smoke_env[0] == '1') {
    // tier1 --verify-smoke: skip google-benchmark and the hashing
    // section; run just the verify gates and signal via exit code.
    bench::JsonDoc doc;
    doc.set("experiment", "micro_crypto_verify_smoke");
    return run_verify_engine_section(doc, /*smoke=*/true) ? 0 : 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_hashing_engine_section();
  return 0;
}
