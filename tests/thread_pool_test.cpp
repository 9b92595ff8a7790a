// Thread pool and batch verification: deterministic output ordering for
// every thread count, exception propagation, a TSan-friendly smoke test,
// and the 1-vs-N integration guarantee (identical merchant decisions).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "btcfast/orchestrator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/batch_verify.h"
#include "crypto/ecdsa.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/sigcache.h"

namespace btcfast {
namespace {

TEST(ThreadPool, InlinePoolRunsAtSubmit) {
  common::ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  int x = 0;
  auto fut = pool.submit([&] { return ++x; });
  // Inline mode executes before submit returns.
  EXPECT_EQ(x, 1);
  EXPECT_EQ(fut.get(), 1);
}

TEST(ThreadPool, SubmitReturnsValues) {
  common::ThreadPool pool(3);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 50; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 50; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    common::ThreadPool pool(threads);
    auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW((void)fut.get(), std::runtime_error);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    common::ThreadPool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> counts(kN);
    pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    common::ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t i) {
                                     ran.fetch_add(1);
                                     if (i == 13) throw std::runtime_error("bad index");
                                   }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1);
  }
}

TEST(ThreadPool, ParallelForZeroAndOneItems) {
  common::ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.parallel_for(0, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

// TSan-friendly smoke: a stream of tiny tasks touching shared atomics —
// run under -DBTCFAST_SANITIZE=thread this exercises queue handoff,
// condition-variable wakeups, and joined shutdown.
TEST(ThreadPool, ConcurrencySmoke) {
  common::ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  constexpr std::uint64_t kTasks = 2000;
  std::vector<std::future<void>> futs;
  futs.reserve(kTasks);
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

// --- fan_out --------------------------------------------------------------

// Pool sizes the fan-out tests walk: inline, one worker, and a worker per
// allowed CPU.
std::vector<std::size_t> fan_out_pool_sizes() {
  return {0, 1, 2, common::ThreadPool::hardware_workers()};
}

TEST(ThreadPool, FanOutRunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : fan_out_pool_sizes()) {
    common::ThreadPool pool(threads);
    for (const std::size_t n : {0, 1, 2, 7, 64}) {
      std::vector<std::atomic<int>> counts(n);
      auto fan = pool.fan_out(n, [&](std::size_t i) { counts[i].fetch_add(1); });
      fan.wait_all();
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(counts[i].load(), 1) << "index " << i << " n " << n << " threads " << threads;
      }
    }
  }
}

TEST(ThreadPool, FanOutWaitReturnsOnlyAfterTheIndexFinished) {
  for (const std::size_t threads : fan_out_pool_sizes()) {
    common::ThreadPool pool(threads);
    constexpr std::size_t kN = 24;
    // Waited out of order, so some waits find their index claimed by a
    // helper and still running.
    std::vector<std::size_t> order(kN);
    for (std::size_t i = 0; i < kN; ++i) order[i] = (i * 7) % kN;
    std::vector<std::atomic<bool>> finished(kN);
    auto fan = pool.fan_out(kN, [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200 + 50 * (i % 3)));
      finished[i].store(true);
    });
    for (const std::size_t i : order) {
      fan.wait(i);
      ASSERT_TRUE(finished[i].load()) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, FanOutCallerRunsUnclaimedIndices) {
  const std::size_t threads = std::max<std::size_t>(2, common::ThreadPool::hardware_workers());
  common::ThreadPool pool(threads);
  // Park every worker behind a task that waits for the release, so the
  // fan-out's helpers sit unscheduled in their mailboxes.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::vector<std::future<void>> parked;
  for (std::size_t w = 0; w < threads; ++w) parked.push_back(pool.submit([released] { released.wait(); }));
  constexpr std::size_t kN = 8;
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(kN);
  {
    auto fan = pool.fan_out(kN, [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    fan.wait(kN - 1);  // every index is unclaimed: the caller runs them all, in order
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(ran_on[i], caller) << "index " << i;
  }
  release.set_value();
  for (auto& p : parked) p.get();
}

TEST(ThreadPool, FanOutRethrowsTheFirstExceptionAfterEveryHelperFinished) {
  for (const std::size_t threads : fan_out_pool_sizes()) {
    common::ThreadPool pool(threads);
    constexpr std::size_t kN = 64;
    std::atomic<int> in_flight{0};
    std::atomic<int> started{0};
    auto fan = pool.fan_out(kN, [&](std::size_t i) {
      started.fetch_add(1);
      in_flight.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      in_flight.fetch_sub(1);
      if (i == 5) throw std::runtime_error("index 5");
    });
    try {
      fan.wait_all();
      FAIL() << "no exception, threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 5");
      EXPECT_EQ(in_flight.load(), 0) << "threads " << threads;
    }
    // Nothing is claimed after the throw: the count stays put.
    const int after = started.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(started.load(), after) << "threads " << threads;
    EXPECT_LT(after, static_cast<int>(kN)) << "threads " << threads;
    EXPECT_THROW(fan.wait(kN - 1), std::runtime_error);  // an unrun index rethrows too
  }
}

TEST(ThreadPool, FanOutOnAnInlinePoolIsAPlainLoop) {
  common::ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  auto fan = pool.fan_out(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_TRUE(order.empty());  // nothing runs before the first wait
  fan.wait(2);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  fan.wait(1);  // already finished: runs nothing
  fan.wait_all();
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, AbandonedFanOutWaitsForItsRunningIndices) {
  common::ThreadPool pool(common::ThreadPool::hardware_workers());
  std::atomic<int> in_flight{0};
  {
    auto fan = pool.fan_out(32, [&](std::size_t) {
      in_flight.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      in_flight.fetch_sub(1);
    });
    fan.wait(0);
  }  // destroyed without wait_all
  EXPECT_EQ(in_flight.load(), 0);
}

// --- batch_verify -------------------------------------------------------

std::vector<crypto::SigCheckJob> make_jobs(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<crypto::SigCheckJob> jobs;
  for (int i = 0; i < n; ++i) {
    const auto key = *crypto::PrivateKey::from_scalar(crypto::U256(seed * 1000 + i + 1));
    const auto msg = rng.bytes<48>();
    crypto::SigCheckJob job;
    job.digest = crypto::sha256({msg.data(), msg.size()});
    job.pubkey = crypto::PublicKey::derive(key).serialize();
    job.sig = crypto::ecdsa_sign(key, job.digest).serialize();
    if (i % 3 == 2) job.sig[7] ^= 0x20;  // every third job is corrupted
    jobs.push_back(job);
  }
  return jobs;
}

TEST(BatchVerify, ResultsAreInputOrderedForEveryThreadCount) {
  const auto jobs = make_jobs(24, 42);
  std::vector<std::uint8_t> reference;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    common::ThreadPool pool(threads);
    crypto::SigCache cache;  // fresh cache per run: no cross-run warm-up
    const auto results = crypto::batch_verify(pool, jobs, &cache);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(results[i], i % 3 == 2 ? 0 : 1) << "job " << i << " threads " << threads;
    }
    if (reference.empty()) {
      reference = results;
    } else {
      EXPECT_EQ(results, reference) << "threads " << threads;
    }
  }
}

TEST(BatchVerify, OnlyValidJobsEnterTheCache) {
  const auto jobs = make_jobs(12, 7);
  common::ThreadPool pool(2);
  crypto::SigCache cache;
  (void)crypto::batch_verify(pool, jobs, &cache);
  std::size_t valid = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) valid += i % 3 != 2;
  EXPECT_EQ(cache.size(), valid);
  // Second pass is pure hits for the valid jobs, repeated misses for the rest.
  cache.reset_stats();
  (void)crypto::batch_verify(pool, jobs, &cache);
  EXPECT_EQ(cache.stats().hits, valid);
  EXPECT_EQ(cache.stats().misses, jobs.size() - valid);
}

TEST(BatchVerify, NullCacheAndEmptyBatch) {
  common::ThreadPool pool(2);
  EXPECT_TRUE(crypto::batch_verify(pool, {}, nullptr).empty());
  const auto jobs = make_jobs(6, 3);
  const auto results = crypto::batch_verify(pool, jobs, nullptr);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(results[i], i % 3 == 2 ? 0 : 1);
}

// Repeat-payer batches: 4 distinct keys spread across n jobs, so the
// precomp path (group-by-pubkey, shared per-key tables) is exercised.
std::vector<crypto::SigCheckJob> make_repeat_key_jobs(int n, std::uint64_t key_seed,
                                                      std::uint64_t msg_seed) {
  Rng rng(msg_seed);
  std::vector<crypto::PrivateKey> keys;
  for (int k = 0; k < 4; ++k) {
    keys.push_back(*crypto::PrivateKey::from_scalar(crypto::U256(key_seed * 100 + k + 1)));
  }
  std::vector<crypto::SigCheckJob> jobs;
  for (int i = 0; i < n; ++i) {
    const auto& key = keys[i % keys.size()];
    const auto msg = rng.bytes<48>();
    crypto::SigCheckJob job;
    job.digest = crypto::sha256({msg.data(), msg.size()});
    job.pubkey = crypto::PublicKey::derive(key).serialize();
    job.sig = crypto::ecdsa_sign(key, job.digest).serialize();
    if (i % 3 == 2) job.sig[7] ^= 0x20;
    jobs.push_back(job);
  }
  return jobs;
}

TEST(BatchVerify, PrecompCacheMatchesColdResultsAndWarmsUp) {
  const auto jobs = make_repeat_key_jobs(24, 9, 9);
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    common::ThreadPool pool(threads);
    crypto::SigCache cold_cache;
    const auto reference = crypto::batch_verify(pool, jobs, &cold_cache);

    crypto::SigCache cache;
    crypto::PubkeyPrecompCache pre;
    const auto first = crypto::batch_verify(pool, jobs, &cache, &pre);
    EXPECT_EQ(first, reference) << "threads " << threads;
    // Each distinct key had a valid signature, so the batch notes every
    // key once; a second batch notes them again, which builds tables.
    crypto::SigCache cache2;
    const auto fresh = make_repeat_key_jobs(24, 9, 1009);
    (void)crypto::batch_verify(pool, fresh, &cache2, &pre);
    EXPECT_EQ(pre.stats().insertions, 4u) << "threads " << threads;
    // Third batch of new messages rides the warm tables and must agree
    // with a precomp-free run bit for bit.
    const auto third = make_repeat_key_jobs(24, 9, 2009);
    crypto::SigCache cache3;
    pre.reset_stats();
    const auto warm = crypto::batch_verify(pool, third, &cache3, &pre);
    crypto::SigCache cache4;
    const auto cold = crypto::batch_verify(pool, third, &cache4);
    EXPECT_EQ(warm, cold) << "threads " << threads;
    EXPECT_EQ(pre.stats().hits, 4u) << "threads " << threads;
  }
}

// --- batch equations: R-parity hints ------------------------------------

// The same jobs with every hint dropped: batch_verify then runs one GLV
// chain per signature, the reference the batch equations must match.
std::vector<crypto::SigCheckJob> without_hints(std::vector<crypto::SigCheckJob> jobs) {
  for (auto& j : jobs) j.r_parity = crypto::kNoRParity;
  return jobs;
}

// A random mix over `key_count` keys: valid hinted jobs, bad s, wrong
// digest, wrong parity bit, missing hint, unparseable key, an r no curve
// point has (the lift fails), and duplicates of earlier jobs. Duplicates
// are also returned in `warm` so a caller can make them cache hits.
std::vector<crypto::SigCheckJob> make_mixed_jobs(std::size_t n, std::size_t key_count,
                                                 std::uint64_t seed,
                                                 std::vector<crypto::SigCheckJob>* warm) {
  Rng rng(seed);
  std::vector<crypto::PrivateKey> keys;
  for (std::size_t k = 0; k < key_count; ++k) {
    keys.push_back(*crypto::PrivateKey::from_scalar(crypto::U256(seed * 7919 + k + 1)));
  }
  std::vector<crypto::SigCheckJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t kind = rng.below(20);
    if (kind == 0 && !jobs.empty()) {  // duplicate of an earlier job
      jobs.push_back(jobs[rng.below(jobs.size())]);
      if (warm != nullptr) warm->push_back(jobs.back());
      continue;
    }
    const auto& key = keys[rng.below(keys.size())];
    const auto msg = rng.bytes<32>();
    crypto::SigCheckJob job;
    job.digest = crypto::sha256({msg.data(), msg.size()});
    job.pubkey = crypto::PublicKey::derive(key).serialize();
    bool odd = false;
    job.sig = crypto::ecdsa_sign(key, job.digest, &odd).serialize();
    job.r_parity = odd ? 1 : 0;
    switch (kind) {
      case 1: job.sig[40] ^= 0x04; break;                      // bad s
      case 2: job.digest[5] ^= 0x80; break;                    // wrong digest
      case 3: job.r_parity ^= 1; break;                        // wrong parity bit
      case 4: job.r_parity = crypto::kNoRParity; break;        // missing hint
      case 5: job.pubkey[0] = 0x05; break;                     // unparseable key
      case 6: {                                                // lift fails
        crypto::U256 r = crypto::U256::from_be_bytes({job.sig.data(), 32});
        while (crypto::secp::lift_x(r, false)) r = crypto::secp::nadd(r, crypto::U256::one());
        const auto rb = r.to_be_bytes();
        std::copy(rb.begin(), rb.end(), job.sig.begin());
        break;
      }
      default: break;
    }
    jobs.push_back(job);
  }
  return jobs;
}

// Verdicts and final SigCache contents of one configuration, hinted vs
// the per-signature reference, each from its own fresh caches.
void expect_batch_matches_reference(common::ThreadPool& pool,
                                    const std::vector<crypto::SigCheckJob>& jobs,
                                    const std::vector<crypto::SigCheckJob>& warm,
                                    bool with_precomp, const std::string& what) {
  const auto reference_jobs = without_hints(jobs);
  crypto::SigCache cache[2];
  crypto::PubkeyPrecompCache pre[2];
  std::vector<std::uint8_t> out[2];
  for (int side = 0; side < 2; ++side) {
    const auto& js = side == 0 ? reference_jobs : jobs;
    crypto::PubkeyPrecompCache* p = with_precomp ? &pre[side] : nullptr;
    (void)crypto::batch_verify(pool, warm, &cache[side], p);
    if (with_precomp) {  // two more passes make the repeat keys resident
      (void)crypto::batch_verify(pool, js, nullptr, p);
      (void)crypto::batch_verify(pool, js, nullptr, p);
    }
    out[side] = crypto::batch_verify(pool, js, &cache[side], p);
  }
  ASSERT_EQ(out[1].size(), jobs.size()) << what;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& j = jobs[i];
    const auto pub = crypto::PublicKey::parse({j.pubkey.data(), j.pubkey.size()});
    const auto sig = crypto::Signature::parse({j.sig.data(), j.sig.size()});
    const bool valid = pub && sig && crypto::ecdsa_verify(*pub, j.digest, *sig);
    ASSERT_EQ(out[0][i], valid ? 1 : 0) << what << " job " << i;
    ASSERT_EQ(out[1][i], out[0][i]) << what << " job " << i;
    const auto key = crypto::SigCache::make_key(j.digest, {j.pubkey.data(), j.pubkey.size()},
                                                {j.sig.data(), j.sig.size()});
    ASSERT_EQ(cache[1].contains(key), cache[0].contains(key)) << what << " job " << i;
  }
  EXPECT_EQ(cache[1].size(), cache[0].size()) << what;
}

TEST(BatchVerifyEquation, RandomMixesMatchThePerSignaturePath) {
  const std::size_t sizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 257, 400};
  for (const std::size_t n : sizes) {
    for (const std::size_t key_count : {std::size_t{4}, std::max<std::size_t>(1, n / 2)}) {
      std::vector<crypto::SigCheckJob> warm;
      const auto jobs = make_mixed_jobs(n, key_count, n * 31 + key_count, &warm);
      for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
        common::ThreadPool pool(threads);
        for (const bool with_precomp : {false, true}) {
          expect_batch_matches_reference(
              pool, jobs, warm, with_precomp,
              "n " + std::to_string(n) + " keys " + std::to_string(key_count) + " threads " +
                  std::to_string(threads) + (with_precomp ? " precomp" : ""));
        }
      }
    }
  }
}

TEST(BatchVerifyEquation, SignReportsTheParityOfTheEffectiveNonce) {
  // R = u1·G + u2·Q must be the point r lifts to with the reported
  // parity, for signatures low-s left alone and ones it negated.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto key = *crypto::PrivateKey::from_scalar(crypto::U256(i * 104729 + 3));
    const auto digest = crypto::sha256(as_bytes("parity " + std::to_string(i)));
    bool odd = false;
    const auto sig = crypto::ecdsa_sign(key, digest, &odd);
    EXPECT_EQ(crypto::ecdsa_sign(key, digest), sig);  // the out-parameter changes nothing
    const crypto::U256 w = crypto::secp::ninv(sig.s);
    const crypto::U256 z =
        crypto::secp::nreduce(crypto::U256::from_be_bytes({digest.data(), digest.size()}));
    const auto r = crypto::secp::to_affine(crypto::secp::double_scalar_mul(
        crypto::secp::nmul(z, w), crypto::secp::nmul(sig.r, w),
        crypto::PublicKey::derive(key).point()));
    const auto lifted = crypto::secp::lift_x(sig.r, odd);
    ASSERT_TRUE(lifted.has_value());
    EXPECT_EQ(*lifted, r) << "signature " << i;
  }
}

TEST(BatchVerifyEquation, ValidTermsSumToTheIdentityAndOneBadTermDoesNot) {
  // Three keys, three signatures each: one key with resident wide
  // tables, two with per-batch shared-frame tables.
  namespace secp = crypto::secp;
  std::vector<crypto::PrivateKey> keys;
  for (std::uint64_t k = 0; k < 3; ++k) {
    keys.push_back(*crypto::PrivateKey::from_scalar(crypto::U256(k * 65537 + 11)));
  }
  const auto pre = secp::build_pubkey_precomp(crypto::PublicKey::derive(keys[0]).point());
  secp::PointTables tables[2];
  for (int t = 0; t < 2; ++t) {
    secp::build_point_tables(crypto::PublicKey::derive(keys[1 + t]).point(), tables[t]);
  }
  const auto build = [&](std::vector<secp::BatchKeyTerm>& terms,
                         std::vector<secp::BatchNonceTerm>& nonces, crypto::U256& g) {
    terms = {{crypto::U256::zero(), &pre, nullptr},
             {crypto::U256::zero(), nullptr, &tables[0]},
             {crypto::U256::zero(), nullptr, &tables[1]}};
    nonces.clear();
    g = crypto::U256::zero();
    for (std::uint64_t i = 0; i < 9; ++i) {
      const auto digest = crypto::sha256(as_bytes("equation " + std::to_string(i)));
      bool odd = false;
      const auto sig = crypto::ecdsa_sign(keys[i % 3], digest, &odd);
      const crypto::U256 w = secp::ninv(sig.s);
      const crypto::U256 z =
          secp::nreduce(crypto::U256::from_be_bytes({digest.data(), digest.size()}));
      const crypto::U256 a(i * 0x9e3779b97f4a7c15ULL + 1);
      g = secp::nadd(g, secp::nmul(a, secp::nmul(z, w)));
      terms[i % 3].c = secp::nadd(terms[i % 3].c, secp::nmul(a, secp::nmul(sig.r, w)));
      nonces.push_back({a, *secp::lift_x(sig.r, odd)});
    }
  };
  std::vector<secp::BatchKeyTerm> terms;
  std::vector<secp::BatchNonceTerm> nonces;
  crypto::U256 g;
  build(terms, nonces, g);
  EXPECT_TRUE(secp::batch_sum_is_identity(g, terms, nonces));
  // The cold tables are now true affine (z = 1) and still verify.
  EXPECT_EQ(tables[0].z, crypto::U256::one());
  build(terms, nonces, g);
  EXPECT_TRUE(secp::batch_sum_is_identity(g, terms, nonces));
  // −R in place of R: a wrong parity bit breaks the sum.
  build(terms, nonces, g);
  nonces[4].r.y = secp::fneg(nonces[4].r.y);
  EXPECT_FALSE(secp::batch_sum_is_identity(g, terms, nonces));
  // A wrong coefficient on one key's side breaks it too.
  build(terms, nonces, g);
  terms[2].c = secp::nadd(terms[2].c, crypto::U256::one());
  EXPECT_FALSE(secp::batch_sum_is_identity(g, terms, nonces));
}

// --- 1-vs-N integration: identical merchant outcomes --------------------

std::vector<core::AcceptDecision> run_batch_intake(std::size_t threads) {
  core::DeploymentConfig cfg;
  cfg.seed = 77;
  cfg.funded_coins = 6;
  cfg.verify_threads = threads;
  core::Deployment dep(cfg);
  crypto::SigCache::global().clear();  // each run starts cold

  const auto now = static_cast<std::uint64_t>(dep.simulator().now());
  const auto coins =
      sim::find_spendable(dep.customer_node().chain(), dep.customer().btc_identity().script);
  std::vector<core::Invoice> invoices;
  std::vector<core::FastPayPackage> pkgs;
  for (std::size_t i = 0; i < 6 && i < coins.size(); ++i) {
    invoices.push_back(dep.merchant().make_invoice(2 * btc::kCoin, cfg.compensation, now,
                                                   60ULL * 60 * 1000));
    auto pkg = dep.customer().create_fastpay(invoices.back(), coins[i].first,
                                             coins[i].second.out.value, now, cfg.binding_ttl_ms);
    if (i == 2) pkg.binding.customer_sig[9] ^= 0x01;  // one package must be rejected
    pkgs.push_back(std::move(pkg));
  }
  auto decisions = dep.merchant().evaluate_fastpay_batch(pkgs, invoices, now);
  common::ThreadPool::configure_global(0);
  return decisions;
}

TEST(BatchVerifyIntegration, MerchantDecisionsIdenticalAtOneAndNThreads) {
  const auto inline_run = run_batch_intake(0);
  ASSERT_FALSE(inline_run.empty());
  int rejected = 0;
  for (const auto& d : inline_run) rejected += !d.accepted;
  EXPECT_EQ(rejected, 1);  // exactly the corrupted binding
  EXPECT_FALSE(inline_run[2].accepted);
  // 1 and 4 workers, plus the Deployment default (one per hardware
  // thread but the caller's).
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, common::ThreadPool::hardware_workers()}) {
    const auto pooled_run = run_batch_intake(threads);
    ASSERT_EQ(inline_run.size(), pooled_run.size()) << "threads " << threads;
    for (std::size_t i = 0; i < inline_run.size(); ++i) {
      EXPECT_EQ(inline_run[i].accepted, pooled_run[i].accepted)
          << "package " << i << " threads " << threads;
      EXPECT_EQ(inline_run[i].reason, pooled_run[i].reason)
          << "package " << i << " threads " << threads;
      EXPECT_EQ(inline_run[i].code, pooled_run[i].code)
          << "package " << i << " threads " << threads;
    }
  }
}

// One worker per allowed CPU: the caller's CPU has a worker too, but
// parallel_for never wakes it (the caller drains on that CPU itself).
TEST(ThreadPool, HardwareWorkersLeaveTheCallersThread) {
  const auto allowed = common::ThreadPool::allowed_cpus();
  const std::size_t expected =
      allowed.empty() ? std::max(1u, std::thread::hardware_concurrency()) : allowed.size();
  EXPECT_EQ(common::ThreadPool::hardware_workers(), expected);
  // A Deployment sizes the global pool from it by default.
  EXPECT_EQ(core::DeploymentConfig{}.verify_threads, common::ThreadPool::hardware_workers());
}

#if defined(__linux__)

// Pins the calling thread for one scope and restores its mask on exit,
// so later tests still read the full affinity mask.
class PinCaller {
 public:
  explicit PinCaller(int cpu) {
    CPU_ZERO(&saved_);
    restore_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pinned_ = sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  ~PinCaller() {
    if (restore_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinCaller(const PinCaller&) = delete;
  PinCaller& operator=(const PinCaller&) = delete;
  [[nodiscard]] bool pinned() const noexcept { return pinned_; }

 private:
  cpu_set_t saved_;
  bool restore_ = false;
  bool pinned_ = false;
};

struct Ran {
  std::thread::id thread;
  int cpu = -1;
};

TEST(ThreadPool, EveryWorkerRunsOnItsOwnCpu) {
  const auto allowed = common::ThreadPool::allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  common::ThreadPool pool(common::ThreadPool::hardware_workers());
  EXPECT_EQ(pool.worker_cpus(), allowed);  // one worker per allowed CPU, in order
  // submit() deals tasks to the workers in turn: one task per worker.
  std::vector<std::future<Ran>> futs;
  for (std::size_t i = 0; i < pool.thread_count(); ++i) {
    futs.push_back(pool.submit([] { return Ran{std::this_thread::get_id(), sched_getcpu()}; }));
  }
  std::vector<std::thread::id> threads;
  std::vector<int> cpus;
  for (auto& f : futs) {
    const Ran r = f.get();
    threads.push_back(r.thread);
    cpus.push_back(r.cpu);
  }
  EXPECT_EQ(cpus, allowed);
  std::sort(threads.begin(), threads.end());
  EXPECT_EQ(std::unique(threads.begin(), threads.end()), threads.end());  // distinct workers
}

TEST(ThreadPool, ParallelForSkipsTheWorkerOnTheCallersCpu) {
  const auto allowed = common::ThreadPool::allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  common::ThreadPool pool(allowed.size());
  // Items sleep so helpers get to claim some while the caller is busy: a
  // helper woken on the caller's CPU would then run items there.
  constexpr std::size_t kN = 256;
  for (const int cpu : allowed) {
    PinCaller pin(cpu);
    ASSERT_TRUE(pin.pinned()) << "cpu " << cpu;
    const auto caller = std::this_thread::get_id();
    std::vector<std::atomic<int>> counts(kN);
    std::vector<Ran> ran(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
      counts[i].fetch_add(1);
      ran[i] = Ran{std::this_thread::get_id(), sched_getcpu()};
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[i].load(), 1) << "index " << i << " caller cpu " << cpu;
      // Pinned threads report their own CPU, so only the caller may run
      // items on the caller's CPU.
      if (ran[i].thread != caller) {
        EXPECT_NE(ran[i].cpu, cpu) << "index " << i << " ran on the caller's worker";
      } else {
        EXPECT_EQ(ran[i].cpu, cpu);
      }
    }
  }
}

TEST(ThreadPool, FanOutSkipsTheWorkerOnTheCallersCpu) {
  const auto allowed = common::ThreadPool::allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  common::ThreadPool pool(allowed.size());
  constexpr std::size_t kN = 64;
  for (const int cpu : allowed) {
    PinCaller pin(cpu);
    ASSERT_TRUE(pin.pinned()) << "cpu " << cpu;
    const auto caller = std::this_thread::get_id();
    std::vector<Ran> ran(kN);
    auto fan = pool.fan_out(kN, [&](std::size_t i) {
      ran[i] = Ran{std::this_thread::get_id(), sched_getcpu()};
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    fan.wait_all();
    for (std::size_t i = 0; i < kN; ++i) {
      if (ran[i].thread != caller) {
        EXPECT_NE(ran[i].cpu, cpu) << "index " << i << " ran on the caller's worker";
      } else {
        EXPECT_EQ(ran[i].cpu, cpu);
      }
    }
  }
}

TEST(ThreadPool, UnpinnableWorkersStillCoverEveryIndex) {
  const auto allowed = common::ThreadPool::allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  // -1 and a CPU outside the mask both fail to pin; CPU_SETSIZE - 1 is
  // outside it on any host this runs on.
  common::ThreadPool pool(std::vector<int>{-1, CPU_SETSIZE - 1, -1});
  EXPECT_EQ(pool.worker_cpus(), (std::vector<int>{-1, -1, -1}));
  constexpr std::size_t kN = 1000;
  for (const int cpu : allowed) {
    PinCaller pin(cpu);
    ASSERT_TRUE(pin.pinned()) << "cpu " << cpu;
    std::vector<std::atomic<int>> counts(kN);
    pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[i].load(), 1) << "index " << i << " caller cpu " << cpu;
    }
  }
}

#endif  // __linux__

}  // namespace
}  // namespace btcfast
