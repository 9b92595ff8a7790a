// Signature-verification cache (Bitcoin-Core style). A successful ECDSA
// verification inserts sha256(digest || pubkey33 || sig64) into a
// sharded, bounded set; a later check of the identical triple is a hash
// lookup instead of a ~100µs curve computation. Only *valid* triples are
// ever inserted, so a hit can never turn an invalid signature valid —
// mutating any byte of the signature, key, or message changes the key.
//
// The dominant consumer pattern: the merchant verifies a payment package
// at intake, then PayJudger re-validates the same binding when a dispute
// or reservation touches the contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "crypto/ecdsa.h"
#include "crypto/sha256.h"

namespace btcfast::crypto {

class SigCache {
 public:
  using Key = ByteArray<32>;

  /// `max_entries` bounds the total entry count across all shards
  /// (rounded up to a multiple of the shard count).
  explicit SigCache(std::size_t max_entries = kDefaultMaxEntries);

  static constexpr std::size_t kDefaultMaxEntries = 1 << 16;

  /// Cache key for a verification triple.
  [[nodiscard]] static Key make_key(const Sha256Digest& digest, ByteSpan pubkey33,
                                    ByteSpan sig64) noexcept;

  /// True iff the triple was previously inserted (i.e. verified valid).
  [[nodiscard]] bool contains(const Key& key) const;
  /// Record a verified-valid triple; evicts a pseudo-random resident
  /// entry of the same shard when the shard is full.
  void insert(const Key& key);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const noexcept { return max_entries_; }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const noexcept;
  void reset_stats() noexcept;
  /// Drop every entry (stats untouched). For benches that need cold runs.
  void clear();

  /// Process-wide cache shared by the merchant fast path, the btc script
  /// verifier, and the PSC host's ecdsa precompile.
  [[nodiscard]] static SigCache& global();

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h;
      static_assert(sizeof(h) <= 32);
      __builtin_memcpy(&h, k.data(), sizeof(h));
      return h;
    }
  };

  struct alignas(64) Shard {  // one cache line per shard: no false sharing
    mutable std::mutex mutex;
    std::unordered_set<Key, KeyHash> entries;
  };

  // 64 shards: at 8 intake threads the birthday collision probability on
  // a shard mutex per concurrent lookup pair stays ~10% (vs ~50% with the
  // original 16), and the E7 warm path is lookup-dominated. Each shard is
  // padded below so two shard mutexes never share a cache line.
  static constexpr std::size_t kShardBits = 6;
  static constexpr std::size_t kShardCount = 1 << kShardBits;

  [[nodiscard]] Shard& shard_for(const Key& key) const noexcept;

  std::size_t max_entries_;
  std::size_t per_shard_cap_;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Per-pubkey GLV precomp table cache (sibling of SigCache, keyed by the
/// 33-byte compressed pubkey). Escrow-bound customers are repeat payers:
/// once a key's wide wNAF-8 tables are resident, a verify against that
/// key skips point decompression and the per-call table build entirely
/// and runs the half-length GLV chain over the wider window.
///
/// Entries are ~18 KiB, so the cache is deliberately small (default 512
/// keys ≈ 9 MiB) and builds lazily, only for a key that recurs faster
/// than its shard turns over. A table costs ~125 µs to build and saves
/// ~18 µs per warm hit, so it pays for itself only after ~7 hits. Each
/// new key entering a full shard evicts a random resident, so a resident
/// lasts about one shard capacity of arrivals, and a key that recurs
/// after g arrivals is hit about capacity / g times before it goes. A
/// key is therefore built only when it recurs within capacity / 8
/// arrivals of its shard (kBuildGapDivisor). Its first sighting leaves
/// a marker stamped with the shard's arrival count; a later sighting
/// within the gap builds, an older one only re-stamps the marker. A
/// one-shot payer, or a cold stream that cycles through more keys than
/// the cache holds, never pays a build; a handful of returning keys is
/// built by its second or third sighting. Values are shared_ptr so a
/// reader keeps its tables alive across a concurrent eviction.
class PubkeyPrecompCache {
 public:
  using Key = ByteArray<33>;

  /// `max_entries` bounds resident keys across all shards (markers for
  /// once-seen keys count too). 0 disables the cache entirely.
  explicit PubkeyPrecompCache(std::size_t max_entries = kDefaultMaxEntries);

  static constexpr std::size_t kDefaultMaxEntries = 512;

  /// Tables for the key, or null when absent / not yet built / disabled.
  [[nodiscard]] std::shared_ptr<const secp::PubkeyPrecomp> lookup(const Key& key);

  /// Report a *successful* verification against `point` (the decompressed
  /// key): the first sighting drops a marker; a sighting within the build
  /// gap of the marker's last one builds and publishes the wide tables
  /// (the build runs outside the shard lock), a later one re-stamps the
  /// marker. Only-valid keys get this far, so the cache can never hold
  /// tables for a point that was not on the curve.
  void note_verified(const Key& key, const secp::AffinePoint& point);

  /// Re-bound the cache; trims overflowing shards immediately. 0 disables
  /// (and clears).
  void set_capacity(std::size_t max_entries);
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const;

  struct Stats {
    std::uint64_t hits = 0;        // lookup returned built tables
    std::uint64_t misses = 0;      // lookup found nothing usable
    std::uint64_t insertions = 0;  // table builds published
    std::uint64_t evictions = 0;   // resident keys displaced (markers too)
  };
  [[nodiscard]] Stats stats() const noexcept;
  void reset_stats() noexcept;
  void clear();

  /// Process-wide cache behind verify_signature and the gateway's batch
  /// pass. It starts disabled (capacity 0) and a gateway sizes it
  /// (GatewayConfig::pubkey_precomp_max): only a serving front end sees
  /// repeat payers. Elsewhere (block and mempool validation, dispute
  /// replay) a one-shot payer's binding and input signatures are two
  /// back-to-back sightings of one key, which the admission gate would
  /// build ~18 KiB of tables for that nothing reads again.
  [[nodiscard]] static PubkeyPrecompCache& global();

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h;
      static_assert(sizeof(h) <= 32);
      __builtin_memcpy(&h, k.data() + 1, sizeof(h));  // x-coordinate bytes: uniform
      return h;
    }
  };

  struct Entry {
    std::shared_ptr<const secp::PubkeyPrecomp> tables;  // null = marker
    std::uint64_t seen_at = 0;  // the shard's arrivals at the last sighting
  };

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, Entry, KeyHash> entries;
    std::uint64_t arrivals = 0;  // keys that entered as a new marker
  };

  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShardCount = 1 << kShardBits;
  /// Build only for a key that recurs within per_shard_cap / this many
  /// arrivals in its shard: it then expects ~8 warm hits, enough to repay
  /// the build (see the class comment).
  static constexpr std::size_t kBuildGapDivisor = 8;

  [[nodiscard]] Shard& shard_for(const Key& key) const noexcept;
  [[nodiscard]] std::size_t per_shard_cap() const noexcept;
  /// Evict one pseudo-random resident to make room; caller holds the lock.
  void evict_one(Shard& s, const Key& incoming);

  std::atomic<std::size_t> max_entries_;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Cache-aware ECDSA verification over raw wire encodings. On a SigCache
/// hit the pubkey is never even decompressed; on a miss, resident precomp
/// tables (if `precomp` is non-null) still skip decompression *and* the
/// per-call table build; the slow path verifies cold and, if valid,
/// inserts into both caches. Null caches degrade to plain parse + verify.
[[nodiscard]] bool ecdsa_verify_cached(SigCache* cache, ByteSpan pubkey33,
                                       const Sha256Digest& digest, ByteSpan sig64,
                                       PubkeyPrecompCache* precomp = nullptr) noexcept;

/// The one production single-signature check: ecdsa_verify_cached over
/// the process-wide SigCache and PubkeyPrecompCache. Script inputs, the
/// merchant's binding check and the PSC host's ecdsa precompile all
/// verify here, so a triple or key warmed by any of them (or by a
/// batch_verify pass over the same caches) is warm for all of them.
[[nodiscard]] bool verify_signature(ByteSpan pubkey33, const Sha256Digest& digest,
                                    ByteSpan sig64) noexcept;

}  // namespace btcfast::crypto
