// Thread-safety hammer tests for the shared structures on the hot
// serving path: Transaction::txid() memoization (striped mutexes over a
// process-global memo), the 64-shard signature cache, the gateway's
// sharded reservation ledger, and the TCP front end under real loopback
// client churn while a monitor renders the stats document. These are the
// tests the TSan preset exists for — each spins N threads against one
// shared object and asserts the results stay consistent.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "btc/transaction.h"
#include "btcfast/customer.h"
#include "btcfast/orchestrator.h"
#include "common/thread_pool.h"
#include "crypto/batch_verify.h"
#include "crypto/ecdsa.h"
#include "crypto/sha256.h"
#include "crypto/sigcache.h"
#include "gateway/pipeline.h"
#include "gateway/reservation_ledger.h"
#include "gateway/wire.h"
#include "net/frame_assembler.h"
#include "net/server.h"
#include "replication/failover.h"
#include "replication/follower.h"
#include "stats_doc.h"

namespace btcfast {
namespace {

constexpr unsigned kThreads = 8;
constexpr int kItersPerThread = 400;

btc::Transaction make_tx(std::uint64_t salt) {
  btc::Transaction tx;
  btc::TxIn in;
  in.prevout.index = static_cast<std::uint32_t>(salt);
  in.sequence = static_cast<std::uint32_t>(salt * 2654435761u);
  tx.inputs.push_back(in);
  btc::TxOut out;
  out.value = static_cast<btc::Amount>(1000 + salt);
  tx.outputs.push_back(out);
  return tx;
}

// N threads calling txid() on the SAME const transaction: every result
// must be identical and the memo must not race (TSan validates the
// striped-mutex protocol; the assertions validate the value).
TEST(ConcurrencyTest, SharedTxidMemoization) {
  const btc::Transaction tx = make_tx(42);
  const btc::Txid expected = tx.txid();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        if (tx.txid() != expected) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// N threads each computing txids of their own distinct transactions —
// exercises concurrent memo *insertion* (different stripes and same
// stripe) rather than concurrent hits.
TEST(ConcurrencyTest, DistinctTxidMemoization) {
  std::vector<std::vector<btc::Transaction>> per_thread(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kItersPerThread; ++i) {
      per_thread[t].push_back(make_tx(t * 100'000ULL + static_cast<std::uint64_t>(i)));
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (auto& tx : per_thread[t]) {
        const btc::Txid first = tx.txid();
        const btc::Txid second = tx.txid();  // memo hit
        if (first != second || first.is_zero()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Concurrent insert + contains + clear on one SigCache: shards must not
// race, a contained key must never appear that was not inserted, and
// stats counters must add up.
TEST(ConcurrencyTest, SigCacheHammer) {
  // Cap well above the insert volume: 1<<16 over 64 shards = 1024 per
  // shard vs ~50 expected occupancy, so eviction never fires and every
  // inserted key must remain resident.
  crypto::SigCache cache(1 << 16);

  auto key_for = [](unsigned thread, int i) {
    crypto::Sha256Digest digest{};
    digest[0] = static_cast<std::uint8_t>(thread);
    digest[1] = static_cast<std::uint8_t>(i & 0xff);
    digest[2] = static_cast<std::uint8_t>((i >> 8) & 0xff);
    const ByteArray<33> pubkey{};
    const ByteArray<64> sig{};
    return crypto::SigCache::make_key(digest, {pubkey.data(), pubkey.size()},
                                      {sig.data(), sig.size()});
  };

  std::atomic<int> false_negatives{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const auto key = key_for(t, i);
        cache.insert(key);
        // Immediately after our own insert the key must be resident
        // (eviction picks entries of the same shard, but the cap is far
        // above what this test inserts).
        if (!cache.contains(key)) false_negatives.fetch_add(1, std::memory_order_relaxed);
        // Probe other threads' keys: either answer is fine; must not race.
        (void)cache.contains(key_for((t + 1) % kThreads, i));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(false_negatives.load(), 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kThreads) * kItersPerThread);
}

// ecdsa_verify_cached from many threads over a mix of valid and invalid
// signatures: cached answers must agree with cold verification.
TEST(ConcurrencyTest, CachedVerifyConsistency) {
  const auto key = crypto::PrivateKey::from_scalar(crypto::U256{0x5eed});
  ASSERT_TRUE(key.has_value());
  const auto pub = crypto::PublicKey::derive(*key);
  const auto pub_bytes = pub.serialize();

  constexpr int kMessages = 32;
  std::vector<crypto::Sha256Digest> digests;
  std::vector<ByteArray<64>> sigs;
  for (int i = 0; i < kMessages; ++i) {
    crypto::Sha256Digest d{};
    d[0] = static_cast<std::uint8_t>(i);
    digests.push_back(d);
    auto sig = crypto::ecdsa_sign(*key, d).serialize();
    if (i % 4 == 3) sig[10] ^= 0x01;  // corrupt every 4th signature
    sigs.push_back(sig);
  }

  crypto::SigCache cache(1 << 12);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < kMessages; ++i) {
          const bool ok = crypto::ecdsa_verify_cached(
              &cache, {pub_bytes.data(), pub_bytes.size()}, digests[static_cast<std::size_t>(i)],
              {sigs[static_cast<std::size_t>(i)].data(), 64});
          const bool expected = (i % 4 != 3);
          if (ok != expected) wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  // The valid triples should be serving from the cache by now.
  EXPECT_GT(cache.stats().hits, 0u);
}

// PubkeyPrecompCache under concurrent note_verified/lookup/evict churn:
// many threads verify signatures from a shared pool of keys through a
// deliberately tiny cache, so markers, table builds (outside the shard
// lock), publishes, hits, and evictions all interleave. TSan validates
// the shard protocol; the assertions validate that warm answers always
// match cold verification.
TEST(ConcurrencyTest, PubkeyPrecompCacheHammer) {
  constexpr int kKeys = 12;
  constexpr int kMessagesPerKey = 4;
  std::vector<ByteArray<33>> pubkeys;
  std::vector<std::vector<crypto::Sha256Digest>> digests(kKeys);
  std::vector<std::vector<ByteArray<64>>> sigs(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    const auto key = *crypto::PrivateKey::from_scalar(crypto::U256(0xbeef + k));
    pubkeys.push_back(crypto::PublicKey::derive(key).serialize());
    for (int m = 0; m < kMessagesPerKey; ++m) {
      crypto::Sha256Digest d{};
      d[0] = static_cast<std::uint8_t>(k);
      d[1] = static_cast<std::uint8_t>(m);
      digests[static_cast<std::size_t>(k)].push_back(d);
      auto sig = crypto::ecdsa_sign(key, d).serialize();
      if (m == kMessagesPerKey - 1) sig[11] ^= 0x02;  // one bad sig per key
      sigs[static_cast<std::size_t>(k)].push_back(sig);
    }
  }

  // Capacity far below the key count (4 entries over 16 shards): builds
  // and evictions race with lookups for the whole run. No SigCache, so
  // every call does a real verify through whichever kernel is resident.
  crypto::PubkeyPrecompCache pre(4);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 60; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const int m = static_cast<int>((t + static_cast<unsigned>(round + k)) %
                                         kMessagesPerKey);
          const auto& pk = pubkeys[static_cast<std::size_t>(k)];
          const bool ok = crypto::ecdsa_verify_cached(
              nullptr, {pk.data(), pk.size()},
              digests[static_cast<std::size_t>(k)][static_cast<std::size_t>(m)],
              {sigs[static_cast<std::size_t>(k)][static_cast<std::size_t>(m)].data(), 64}, &pre);
          const bool expected = (m != kMessagesPerKey - 1);
          if (ok != expected) wrong.fetch_add(1, std::memory_order_relaxed);
        }
        if (t == 0 && round == 30) pre.set_capacity(8);  // resize mid-flight
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const auto stats = pre.stats();
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

gateway::ReservationLedger::EscrowSnapshot ledger_snapshot(const gateway::ReservationLedger& l,
                                                           core::EscrowId id) {
  const auto snap = l.snapshot(id);
  EXPECT_TRUE(snap.has_value());
  return snap.value_or(gateway::ReservationLedger::EscrowSnapshot{});
}

// THE overcommit race the reservation ledger exists to prevent: an escrow
// whose collateral covers exactly K payments, hammered by N threads each
// trying far more than K times. Exactly K grants must win — the sum of
// reservations must never exceed the collateral, no matter how the
// threads interleave. TSan validates the stripe-lock protocol; the
// counters validate the invariant.
TEST(ConcurrencyTest, LedgerConcurrentOvercommit) {
  constexpr psc::Value kAmount = 10;
  constexpr std::uint64_t kFits = 16;  // collateral covers exactly 16 grants
  gateway::ReservationLedger ledger(4);

  core::EscrowView view;
  view.state = core::EscrowState::kActive;
  view.collateral = kAmount * kFits;
  view.unlock_time_ms = 1'000'000;
  ledger.upsert_escrow(1, view);

  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        if (ledger.try_reserve(1, kAmount, 500).has_value()) {
          wins.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wins.load(), kFits);
  EXPECT_EQ(ledger.total_granted(), kFits);
  EXPECT_EQ(ledger.total_denied(),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread - kFits);
  const auto snap = ledger_snapshot(ledger, 1);
  EXPECT_EQ(snap.local_reserved, view.collateral);
  EXPECT_EQ(snap.live_reservations, kFits);
}

// Reserve/release churn across many escrows and threads: every grant is
// released exactly once, releases can race with grants on the same
// stripe, and the ledger must drain back to zero.
TEST(ConcurrencyTest, LedgerReserveReleaseChurn) {
  constexpr std::uint64_t kEscrows = 6;
  gateway::ReservationLedger ledger(4);
  core::EscrowView view;
  view.state = core::EscrowState::kActive;
  view.collateral = 1'000'000;
  view.unlock_time_ms = 1'000'000;
  for (std::uint64_t e = 1; e <= kEscrows; ++e) ledger.upsert_escrow(e, view);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const core::EscrowId id = 1 + (t + static_cast<unsigned>(i)) % kEscrows;
        const auto rid = ledger.try_reserve(id, 7, 500);
        if (!rid.has_value() || !ledger.release(*rid)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        // A second release of the same id must stay a loud no-op even
        // while other threads mutate the stripe.
        if (rid.has_value() && ledger.release(*rid)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ledger.total_granted(), ledger.total_released());
  for (std::uint64_t e = 1; e <= kEscrows; ++e) {
    const auto snap = ledger_snapshot(ledger, e);
    EXPECT_EQ(snap.local_reserved, 0u);
    EXPECT_EQ(snap.live_reservations, 0u);
  }
}

// The two verify entries the serving path mixes, racing on shared caches:
// serve_batch's batch_verify passes (on a worker pool) and the per-request
// single checks (ecdsa_verify_cached, as crypto::verify_signature runs it)
// over the same SigCache and PubkeyPrecompCache, across a few keys and a
// mix of valid and corrupt signatures. Every caller must get the correct
// verdict for its own jobs in its own order, and exactly the valid
// triples must land in the cache.
TEST(ConcurrencyTest, BatchAndSingleVerifyShareCaches) {
  constexpr int kKeys = 3;
  constexpr int kMessages = 24;
  std::vector<crypto::SigCheckJob> jobs(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    const auto key = *crypto::PrivateKey::from_scalar(crypto::U256(0xba7c4 + i % kKeys));
    crypto::Sha256Digest d{};
    d[0] = static_cast<std::uint8_t>(i);
    d[1] = 0x77;
    auto& job = jobs[static_cast<std::size_t>(i)];
    job.digest = d;
    job.pubkey = crypto::PublicKey::derive(key).serialize();
    job.sig = crypto::ecdsa_sign(key, d).serialize();
    if (i % 3 == 2) job.sig[11] ^= 0x01;  // corrupt every 3rd signature
  }

  common::ThreadPool pool(2);
  crypto::SigCache cache(1 << 12);
  crypto::PubkeyPrecompCache pre(8);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 30; ++round) {
        // A 3-job slice at a thread-dependent offset: even threads verify
        // it as one batch, odd threads one signature at a time.
        const int base = (static_cast<int>(t) + round) % (kMessages - 3);
        const std::vector<crypto::SigCheckJob> slice(jobs.begin() + base,
                                                     jobs.begin() + base + 3);
        std::vector<std::uint8_t> verdicts;
        if (t % 2 == 0) {
          verdicts = crypto::batch_verify(pool, slice, &cache, &pre);
        } else {
          for (const auto& job : slice) {
            verdicts.push_back(crypto::ecdsa_verify_cached(&cache, {job.pubkey.data(), 33},
                                                           job.digest, {job.sig.data(), 64},
                                                           &pre));
          }
        }
        if (verdicts.size() != 3) {
          wrong.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (int j = 0; j < 3; ++j) {
          const bool expected = ((base + j) % 3 != 2);
          if ((verdicts[static_cast<std::size_t>(j)] != 0) != expected) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);

  // Exactly the valid triples are cache residents; not one corrupt one.
  for (int i = 0; i < kMessages; ++i) {
    const auto& job = jobs[static_cast<std::size_t>(i)];
    const auto k = crypto::SigCache::make_key(job.digest, {job.pubkey.data(), job.pubkey.size()},
                                              {job.sig.data(), job.sig.size()});
    EXPECT_EQ(cache.contains(k), i % 3 != 2) << "job " << i;
  }
}

// Multiple per-shard ledgers drawing from ONE shared id counter — the
// sharded gateway's setup. Grants must stay globally unique across the
// ledgers, every id must route back to its own ledger for release, and
// the affinity byte must match the escrow that granted it.
TEST(ConcurrencyTest, ShardedLedgersShareOneIdSpace) {
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kEscrows = 12;
  std::atomic<gateway::ReservationId> ids{1};
  std::vector<std::unique_ptr<gateway::ReservationLedger>> shards;
  for (std::size_t i = 0; i < kShards; ++i) {
    shards.push_back(std::make_unique<gateway::ReservationLedger>(4, &ids));
  }
  auto shard_of = [&](core::EscrowId id) -> gateway::ReservationLedger& {
    return *shards[gateway::ReservationLedger::affinity(id) % kShards];
  };

  core::EscrowView view;
  view.state = core::EscrowState::kActive;
  view.collateral = 1'000'000;
  view.unlock_time_ms = 1'000'000;
  for (std::uint64_t e = 1; e <= kEscrows; ++e) shard_of(e).upsert_escrow(e, view);

  std::vector<std::vector<gateway::ReservationId>> granted(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const core::EscrowId id = 1 + (t + static_cast<unsigned>(i)) % kEscrows;
        auto& ledger = shard_of(id);
        const auto rid = ledger.try_reserve(id, 5, 500);
        if (!rid.has_value() ||
            (*rid & 0xff) != gateway::ReservationLedger::affinity(id)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        granted[t].push_back(*rid);
        if (i % 2 == 0 && !ledger.release(*rid)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Global uniqueness across every shard's grants.
  std::set<gateway::ReservationId> seen;
  for (const auto& per_thread : granted) {
    for (const auto rid : per_thread) {
      EXPECT_TRUE(seen.insert(rid).second) << "duplicate reservation id " << rid;
    }
  }
  std::uint64_t total_granted = 0;
  for (const auto& shard : shards) total_granted += shard->total_granted();
  EXPECT_EQ(total_granted, seen.size());
}

// The TCP front end against real concurrency: the server loop on its own
// thread (gateway verify behind the default pool), N loopback client threads
// each submitting its own distinct fast-pay packages with connection
// churn — one connection per package, opened, pipelined, drained,
// closed. Afterwards the client-side view must reconcile exactly with
// the gateway's ledger: every package accepted once, every reservation
// id unique, nothing lost to a dropped connection and nothing
// double-acked.
TEST(ConcurrencyTest, NetworkLoopbackChurnHammer) {
  constexpr unsigned kClients = 6;
  constexpr std::size_t kPkgsPerClient = 4;
  constexpr std::size_t kPkgs = kClients * kPkgsPerClient;

  core::DeploymentConfig dcfg;
  dcfg.seed = 77;
  dcfg.funded_coins = kPkgs;
  dcfg.collateral = dcfg.compensation * (kPkgs + 4);  // covers every accept
  core::Deployment dep(dcfg);
  const auto now = static_cast<std::uint64_t>(dep.simulator().now());
  const auto coins = sim::find_spendable(dep.customer_node().chain(),
                                         dep.customer().btc_identity().script);
  ASSERT_GE(coins.size(), kPkgs);

  std::vector<core::Invoice> invoices;
  std::vector<core::FastPayPackage> pkgs;
  for (std::size_t i = 0; i < kPkgs; ++i) {
    invoices.push_back(dep.merchant().make_invoice(btc::kCoin, dep.config().compensation, now,
                                                   60ULL * 60 * 1000));
    pkgs.push_back(dep.customer().create_fastpay(invoices.back(), coins[i].first,
                                                 coins[i].second.out.value, now,
                                                 dep.config().binding_ttl_ms));
  }

  // serve_batch on the global pool as the Deployment sized it by default
  // (one worker per hardware thread but the caller's): the shipped
  // serving configuration, with real parallelism on any multi-core host.
  gateway::Gateway gw(dep.merchant(), common::ThreadPool::global(), {});
  for (const auto& inv : invoices) gw.register_invoice(inv);
  gw.track_escrow(dep.customer().escrow_id());

  net::GatewayHandler handler(gw);
  handler.pin_time(now);  // sim time for request semantics; real clock for sockets
  net::ServerConfig scfg;
  scfg.conn.idle_timeout_ms = 60'000;  // TSan is slow; keep timeouts out of the way
  scfg.conn.frame_timeout_ms = 30'000;
  net::TcpServer server(handler, scfg);
  ASSERT_TRUE(server.start());
  std::thread loop([&] { server.run(); });

  const auto connect_client = [&]() -> int {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{/*tv_sec=*/10, /*tv_usec=*/0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };

  // A monitor renders the whole stats document while the clients are
  // served: every owner's counters are read under live traffic.
  std::atomic<bool> clients_done{false};
  std::atomic<std::size_t> renders{0};
  std::atomic<std::size_t> bad_renders{0};
  std::thread monitor([&] {
    do {
      const std::string doc = gw.stats_json({server.stats_section()});
      const auto accepts = stats_doc::counter(doc, "", "accepts");
      const auto frames = stats_doc::counter(doc, "net", "frames_in");
      if (!accepts || *accepts > kPkgs || !frames || *frames > 2 * kPkgs) bad_renders.fetch_add(1);
      renders.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    } while (!clients_done.load(std::memory_order_acquire));
  });

  // Per-client tallies, merged after join (no cross-thread sharing).
  std::vector<std::vector<std::uint64_t>> rids(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPkgsPerClient; ++i) {
        const std::size_t p = c * kPkgsPerClient + i;
        const int fd = connect_client();
        if (fd < 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Pipeline a submit and a query on the fresh connection, then
        // drain both responses before the churn close.
        gateway::SubmitFastPayRequest req;
        req.invoice_id = invoices[p].invoice_id;
        req.package = pkgs[p];
        Bytes out = gateway::make_frame(gateway::MsgType::kSubmitFastPay, p + 1, req.serialize());
        append(out, gateway::make_frame(
                        gateway::MsgType::kQueryEscrow, 100'000 + p,
                        gateway::QueryEscrowRequest{dep.customer().escrow_id()}.serialize()));
        std::size_t off = 0;
        while (off < out.size()) {
          const ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
          if (n <= 0) break;
          off += static_cast<std::size_t>(n);
        }

        net::FrameAssembler rx;
        std::vector<Bytes> got;
        std::uint8_t buf[4096];
        while (got.size() < 2) {
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n <= 0) break;  // timeout or server-side close: counted below
          (void)rx.feed({buf, static_cast<std::size_t>(n)});
          while (auto f = rx.next_frame()) got.push_back(std::move(*f));
        }
        ::close(fd);

        if (got.size() != 2) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const auto frame = gateway::Frame::deserialize(got[0]);
        if (!frame || frame->type != gateway::MsgType::kFastPayResult ||
            frame->request_id != p + 1) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const auto resp = gateway::FastPayResultResponse::deserialize(frame->payload);
        if (!resp || !resp->accepted || resp->reservation_id == 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        rids[c].push_back(resp->reservation_id);
      }
    });
  }
  for (auto& th : clients) th.join();
  clients_done.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_GE(renders.load(), 1u);
  EXPECT_EQ(bad_renders.load(), 0u);
  // Every response was read, so each owner has counted all of its work.
  const std::string doc = gw.stats_json({server.stats_section()});
  EXPECT_EQ(stats_doc::counter(doc, "", "accepts"), kPkgs);
  EXPECT_EQ(stats_doc::counter(doc, "net", "frames_in"), 2 * kPkgs);
  server.stop();
  loop.join();

  EXPECT_EQ(failures.load(), 0);

  // No double-acks: every reservation id the clients saw is unique.
  std::set<std::uint64_t> unique;
  std::size_t acked = 0;
  for (const auto& per_client : rids) {
    for (const auto rid : per_client) {
      ++acked;
      EXPECT_TRUE(unique.insert(rid).second) << "duplicate reservation id " << rid;
    }
  }
  EXPECT_EQ(acked, kPkgs);

  // No lost reservations: the ledger carries exactly what was acked.
  EXPECT_EQ(gw.stats().accepts(), kPkgs);
  const auto snap = gw.escrow_snapshot(dep.customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->live_reservations, kPkgs);
  EXPECT_EQ(snap->local_reserved, dcfg.compensation * kPkgs);

  // The server saw one connection and two frames per package. stop() can
  // land before the last EOFs were polled, so drain those first.
  for (int i = 0; i < 100 && server.stats().conns_active > 0; ++i) (void)server.poll_once(0);
  const auto st = server.stats();
  EXPECT_EQ(st.conns_accepted, kPkgs);
  EXPECT_EQ(st.frames_in, 2 * kPkgs);
  EXPECT_EQ(st.conns_active, 0u);
}

// Replication gate under concurrent committers: N threads append to one
// primary store and call quorum_commit() for their own sequence while
// the commit tap feeds the shipper from inside the store's commit path.
// Every acked sequence must end up durably on the follower, and the
// follower must finish byte-identical to the primary.
TEST(ConcurrencyTest, ReplicationShipAckHammer) {
  const std::string primary_dir =
      "/tmp/btcfast-conc-repl-primary-" + std::to_string(::getpid());
  const std::string follower_dir =
      "/tmp/btcfast-conc-repl-follower-" + std::to_string(::getpid());
  std::filesystem::remove_all(primary_dir);
  std::filesystem::remove_all(follower_dir);

  store::StoreOptions opts;
  opts.policy = store::FsyncPolicy::kNone;
  auto primary = store::DurableStore::open(primary_dir, opts);
  ASSERT_NE(primary, nullptr);
  replication::Follower::Options fopts;
  fopts.store = opts;
  auto follower = replication::Follower::open(follower_dir, fopts);
  ASSERT_NE(follower, nullptr);
  replication::LocalFollowerLink link(follower.get());

  replication::ReplicationConfig rcfg;
  rcfg.quorum = 1;
  replication::ReplicationGroup group(rcfg);
  group.attach_primary(primary.get());
  group.add_follower(&link);

  constexpr unsigned kWriters = 6;
  constexpr unsigned kPerThread = 50;
  std::atomic<unsigned> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        store::StoreRecord rec;
        rec.kind = store::RecordKind::kReserve;
        rec.reservation_id = t * kPerThread + i + 1;
        rec.escrow_id = t;
        rec.amount = 100 + i;
        rec.expires_at_ms = 1'000'000;
        const auto seq = primary->append(rec);
        if (!seq || !primary->commit() || !group.quorum_commit(*seq, t * kPerThread + i)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(primary->last_committed_seq(), kWriters * kPerThread);
  EXPECT_EQ(group.acked_high(), kWriters * kPerThread);
  EXPECT_EQ(follower->cursor().last_seq, kWriters * kPerThread);
  EXPECT_EQ(follower->store()->image_copy().serialize(), primary->image_copy().serialize());

  group.detach_primary();
  std::filesystem::remove_all(primary_dir);
  std::filesystem::remove_all(follower_dir);
}

}  // namespace
}  // namespace btcfast
