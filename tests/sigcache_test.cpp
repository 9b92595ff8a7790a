// Signature-verification cache: hit/miss behaviour, bounded eviction,
// and — the safety property — no false positives for mutated triples.
#include <gtest/gtest.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/ecdsa.h"
#include "crypto/sha256.h"
#include "crypto/sigcache.h"

namespace btcfast::crypto {
namespace {

struct Triple {
  Sha256Digest digest{};
  ByteArray<33> pubkey{};
  ByteArray<64> sig{};
};

Triple make_valid_triple(std::uint64_t seed) {
  Rng rng(seed);
  const auto raw = rng.bytes<32>();
  U256 scalar = U256::from_be_bytes({raw.data(), raw.size()});
  if (scalar.is_zero() || scalar >= secp::order_n()) scalar = U256(seed * 2 + 1);
  const auto key = *PrivateKey::from_scalar(scalar);
  const auto msg = rng.bytes<40>();
  Triple t;
  t.digest = sha256({msg.data(), msg.size()});
  t.pubkey = PublicKey::derive(key).serialize();
  t.sig = ecdsa_sign(key, t.digest).serialize();
  return t;
}

bool check(SigCache& cache, const Triple& t) {
  return ecdsa_verify_cached(&cache, {t.pubkey.data(), t.pubkey.size()}, t.digest,
                             {t.sig.data(), t.sig.size()});
}

TEST(SigCache, MissThenHit) {
  SigCache cache;
  const auto t = make_valid_triple(1);
  EXPECT_TRUE(check(cache, t));  // miss: full verification, then insert
  EXPECT_TRUE(check(cache, t));  // hit
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SigCache, InvalidTripleNeverInserted) {
  SigCache cache;
  auto t = make_valid_triple(2);
  t.sig[10] ^= 0x01;  // corrupt the signature
  EXPECT_FALSE(check(cache, t));
  EXPECT_FALSE(check(cache, t));  // still false — nothing was cached
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(SigCache, MutatedTripleIsNotAHit) {
  SigCache cache;
  const auto t = make_valid_triple(3);
  ASSERT_TRUE(check(cache, t));

  // Any single-byte mutation of sig, pubkey, or digest must produce a
  // different cache key and therefore a miss -> fresh (failing) verify.
  auto sig_mut = t;
  sig_mut.sig[5] ^= 0x80;
  EXPECT_FALSE(check(cache, sig_mut));

  auto digest_mut = t;
  digest_mut.digest[0] ^= 0x01;
  EXPECT_FALSE(check(cache, digest_mut));

  auto pub_mut = t;
  pub_mut.pubkey[1] ^= 0x40;
  EXPECT_FALSE(check(cache, pub_mut));
}

TEST(SigCache, KeyDependsOnEveryComponent) {
  const auto t = make_valid_triple(4);
  const auto base = SigCache::make_key(t.digest, {t.pubkey.data(), t.pubkey.size()},
                                       {t.sig.data(), t.sig.size()});
  auto d2 = t.digest;
  d2[31] ^= 1;
  EXPECT_NE(base, SigCache::make_key(d2, {t.pubkey.data(), t.pubkey.size()},
                                     {t.sig.data(), t.sig.size()}));
  auto p2 = t.pubkey;
  p2[32] ^= 1;
  EXPECT_NE(base, SigCache::make_key(t.digest, {p2.data(), p2.size()},
                                     {t.sig.data(), t.sig.size()}));
  auto s2 = t.sig;
  s2[63] ^= 1;
  EXPECT_NE(base,
            SigCache::make_key(t.digest, {t.pubkey.data(), t.pubkey.size()}, {s2.data(), s2.size()}));
}

TEST(SigCache, BoundedEviction) {
  // Tiny cache (rounded up to one entry per shard = 16): inserting many
  // keys must evict, never grow past the bound.
  SigCache cache(1);
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    SigCache::Key key = rng.bytes<32>();
    cache.insert(key);
    EXPECT_LE(cache.size(), cache.max_entries());
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.size(), cache.max_entries());
}

TEST(SigCache, EvictionKeepsRecentInsertFindable) {
  SigCache cache(16);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    SigCache::Key key = rng.bytes<32>();
    cache.insert(key);
    EXPECT_TRUE(cache.contains(key));  // the just-inserted key always resides
  }
}

TEST(SigCache, NullCacheDegradesToPlainVerify) {
  const auto t = make_valid_triple(5);
  EXPECT_TRUE(ecdsa_verify_cached(nullptr, {t.pubkey.data(), t.pubkey.size()}, t.digest,
                                  {t.sig.data(), t.sig.size()}));
  auto bad = t;
  bad.sig[0] ^= 1;
  EXPECT_FALSE(ecdsa_verify_cached(nullptr, {bad.pubkey.data(), bad.pubkey.size()}, bad.digest,
                                   {bad.sig.data(), bad.sig.size()}));
}

TEST(SigCache, VerifySignatureUsesBothGlobalCaches) {
  // The production entry consults the global SigCache, then the global
  // precomp tables: a key's second valid sighting builds its tables, the
  // third verifies from them, and a repeated triple is a SigCache hit.
  SigCache::global().clear();
  PubkeyPrecompCache::global().set_capacity(PubkeyPrecompCache::kDefaultMaxEntries);
  PubkeyPrecompCache::global().clear();
  const auto key = *PrivateKey::from_scalar(U256{0x51a9});
  const auto pub = PublicKey::derive(key).serialize();
  auto verify = [&](std::uint8_t msg, bool corrupt) {
    Sha256Digest d{};
    d[0] = msg;
    auto sig = ecdsa_sign(key, d).serialize();
    if (corrupt) sig[5] ^= 0x01;
    return verify_signature({pub.data(), pub.size()}, d, {sig.data(), sig.size()});
  };
  const auto sig0 = SigCache::global().stats();
  const auto pre0 = PubkeyPrecompCache::global().stats();
  EXPECT_TRUE(verify(1, false));
  EXPECT_TRUE(verify(2, false));
  EXPECT_EQ(PubkeyPrecompCache::global().stats().insertions - pre0.insertions, 1u);
  EXPECT_TRUE(verify(3, false));
  EXPECT_EQ(PubkeyPrecompCache::global().stats().hits - pre0.hits, 1u);
  EXPECT_TRUE(verify(3, false));
  EXPECT_EQ(SigCache::global().stats().hits - sig0.hits, 1u);
  EXPECT_FALSE(verify(4, true));  // warm tables still reject a bad signature
  EXPECT_EQ(SigCache::global().stats().insertions - sig0.insertions, 3u);
}

TEST(SigCache, RejectsMalformedSizes) {
  SigCache cache;
  const auto t = make_valid_triple(7);
  EXPECT_FALSE(ecdsa_verify_cached(&cache, {t.pubkey.data(), 32}, t.digest,
                                   {t.sig.data(), t.sig.size()}));
  EXPECT_FALSE(
      ecdsa_verify_cached(&cache, {t.pubkey.data(), t.pubkey.size()}, t.digest, {t.sig.data(), 63}));
}

TEST(SigCache, ClearDropsEntriesButKeepsStats) {
  SigCache cache;
  const auto t = make_valid_triple(8);
  ASSERT_TRUE(check(cache, t));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_TRUE(check(cache, t));  // re-verifies and re-inserts
  EXPECT_EQ(cache.stats().insertions, 2u);
}

// --- PubkeyPrecompCache: recurrence-gated builds, warm-path soundness,
// bounded eviction, disable knob. ---

/// Distinct valid triples for ONE key (a repeat payer).
Triple make_triple_for_key(const PrivateKey& key, std::uint64_t msg_seed) {
  Rng rng(msg_seed);
  const auto msg = rng.bytes<40>();
  Triple t;
  t.digest = sha256({msg.data(), msg.size()});
  t.pubkey = PublicKey::derive(key).serialize();
  t.sig = ecdsa_sign(key, t.digest).serialize();
  return t;
}

bool check_pre(SigCache* cache, PubkeyPrecompCache& pre, const Triple& t) {
  return ecdsa_verify_cached(cache, {t.pubkey.data(), t.pubkey.size()}, t.digest,
                             {t.sig.data(), t.sig.size()}, &pre);
}

TEST(PubkeyPrecompCache, TwoTouchBuildThenWarmHits) {
  PubkeyPrecompCache pre;
  const auto key = *PrivateKey::from_scalar(U256(0x5151));
  const auto pk = PublicKey::derive(key).serialize();

  // First verified sighting: marker only, no tables yet.
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 1)));
  EXPECT_EQ(pre.lookup(pk), nullptr);
  EXPECT_EQ(pre.stats().insertions, 0u);

  // Second: tables built and published.
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 2)));
  EXPECT_NE(pre.lookup(pk), nullptr);
  EXPECT_EQ(pre.stats().insertions, 1u);

  // Third: served warm, and the warm kernel agrees with the cold one.
  pre.reset_stats();
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 3)));
  EXPECT_EQ(pre.stats().hits, 1u);
  EXPECT_EQ(pre.stats().misses, 0u);
}

// The cold shape of the fast-pay front end: back-to-back random
// permutations of 4x more keys than a default cache holds, each key
// looked up and (on a miss) noted the way a batch-verify pass does. A key
// recurs only after ~2048 others, so a table built for it is evicted
// before it is read: the cache should build almost nothing.
TEST(PubkeyPrecompCache, ColdStreamBuildsAlmostNothing) {
  constexpr std::size_t kKeys = 2048;
  constexpr int kPermutations = 8;
  // Tables the two-touch policy (build on every second sighting whose
  // marker survived) published on this exact stream.
  constexpr std::uint64_t kTwoTouchInsertions = 1142;
  std::vector<PubkeyPrecompCache::Key> keys;
  std::vector<secp::AffinePoint> points;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const auto pub = PublicKey::derive(*PrivateKey::from_scalar(U256(0x10000 + k)));
    keys.push_back(pub.serialize());
    points.push_back(pub.point());
  }
  PubkeyPrecompCache pre;
  ASSERT_EQ(pre.max_entries(), PubkeyPrecompCache::kDefaultMaxEntries);
  Rng rng(2048);
  std::vector<std::size_t> order(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) order[i] = i;
  for (int p = 0; p < kPermutations; ++p) {
    for (std::size_t i = kKeys - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
    for (const std::size_t k : order) {
      if (pre.lookup(keys[k]) == nullptr) pre.note_verified(keys[k], points[k]);
    }
  }
  const auto st = pre.stats();
  std::printf("cold stream: %llu insertions, %llu hits (two-touch: %llu insertions)\n",
              static_cast<unsigned long long>(st.insertions),
              static_cast<unsigned long long>(st.hits),
              static_cast<unsigned long long>(kTwoTouchInsertions));
  EXPECT_LE(st.insertions * 10, kTwoTouchInsertions);
}

// The hot shape: a handful of returning keys sighted round-robin. Each is
// built by its third sighting at the latest and hits on every later one.
TEST(PubkeyPrecompCache, RoundRobinKeysBuildByThirdSighting) {
  constexpr int kKeys = 4;
  PubkeyPrecompCache pre;
  std::vector<PrivateKey> keys;
  for (int k = 0; k < kKeys; ++k) keys.push_back(*PrivateKey::from_scalar(U256(0x6100 + k)));
  std::uint64_t msg = 100;
  for (int round = 0; round < 3; ++round) {
    for (const auto& key : keys) {
      EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, ++msg)));
    }
  }
  for (const auto& key : keys) {
    EXPECT_NE(pre.lookup(PublicKey::derive(key).serialize()), nullptr);
  }
  EXPECT_LE(pre.stats().insertions, static_cast<std::uint64_t>(kKeys));
  pre.reset_stats();
  for (int round = 0; round < 5; ++round) {
    for (const auto& key : keys) {
      EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, ++msg)));
    }
  }
  EXPECT_EQ(pre.stats().hits, 5u * kKeys);
  EXPECT_EQ(pre.stats().misses, 0u);
  EXPECT_EQ(pre.stats().insertions, 0u);
}

TEST(PubkeyPrecompCache, WarmPathStillRejectsInvalidSignatures) {
  PubkeyPrecompCache pre;
  const auto key = *PrivateKey::from_scalar(U256(0x7272));
  // Warm the key, then corrupt a fresh signature: the wide-table kernel
  // must reject exactly like the cold path.
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 10)));
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 11)));
  auto bad = make_triple_for_key(key, 12);
  bad.sig[9] ^= 0x04;
  EXPECT_FALSE(check_pre(nullptr, pre, bad));
  auto bad_digest = make_triple_for_key(key, 13);
  bad_digest.digest[3] ^= 0x40;
  EXPECT_FALSE(check_pre(nullptr, pre, bad_digest));
}

TEST(PubkeyPrecompCache, InvalidVerifiesAreNeverNoted) {
  PubkeyPrecompCache pre;
  const auto key = *PrivateKey::from_scalar(U256(0x9393));
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto bad = make_triple_for_key(key, 20 + i);
    bad.sig[1] ^= 0x10;
    EXPECT_FALSE(check_pre(nullptr, pre, bad));
  }
  EXPECT_EQ(pre.size(), 0u);  // not even a marker
}

TEST(PubkeyPrecompCache, BoundedEviction) {
  PubkeyPrecompCache pre(8);  // tiny: forces displacement
  for (std::uint64_t k = 1; k <= 64; ++k) {
    const auto key = *PrivateKey::from_scalar(U256(k * 7 + 1));
    // Two touches so some keys get real tables, not just markers.
    EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, k * 2)));
    EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, k * 2 + 1)));
    EXPECT_LE(pre.size(), 16u);  // per-shard cap rounds 8 up across 16 shards
  }
  EXPECT_GT(pre.stats().evictions, 0u);
}

TEST(PubkeyPrecompCache, ZeroCapacityDisables) {
  PubkeyPrecompCache pre(0);
  const auto key = *PrivateKey::from_scalar(U256(0xabcd));
  const auto pk = PublicKey::derive(key).serialize();
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 30)));
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 31)));
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 32)));
  EXPECT_EQ(pre.lookup(pk), nullptr);
  EXPECT_EQ(pre.size(), 0u);
  const auto st = pre.stats();
  EXPECT_EQ(st.hits + st.misses + st.insertions + st.evictions, 0u);

  // Re-enabling via set_capacity brings the machinery back.
  pre.set_capacity(64);
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 33)));
  EXPECT_TRUE(check_pre(nullptr, pre, make_triple_for_key(key, 34)));
  EXPECT_NE(pre.lookup(pk), nullptr);
}

TEST(PubkeyPrecompCache, SigCacheAndPrecompCompose) {
  SigCache cache;
  PubkeyPrecompCache pre;
  const auto key = *PrivateKey::from_scalar(U256(0x4242));
  const auto t1 = make_triple_for_key(key, 40);
  const auto t2 = make_triple_for_key(key, 41);
  // Two distinct messages: both verify cold-ish, second touch builds.
  EXPECT_TRUE(check_pre(&cache, pre, t1));
  EXPECT_TRUE(check_pre(&cache, pre, t2));
  // Replay of t1 is a SigCache hit — the precomp cache is not consulted.
  pre.reset_stats();
  EXPECT_TRUE(check_pre(&cache, pre, t1));
  EXPECT_EQ(pre.stats().hits + pre.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // A third fresh message rides the warm precomp path and lands in the
  // SigCache too.
  const auto t3 = make_triple_for_key(key, 42);
  EXPECT_TRUE(check_pre(&cache, pre, t3));
  EXPECT_EQ(pre.stats().hits, 1u);
  EXPECT_TRUE(check_pre(&cache, pre, t3));  // now a SigCache hit
}

}  // namespace
}  // namespace btcfast::crypto
