#include "crypto/sigcache.h"

namespace btcfast::crypto {

SigCache::SigCache(std::size_t max_entries)
    : max_entries_(max_entries < kShardCount ? kShardCount : max_entries),
      per_shard_cap_((max_entries_ + kShardCount - 1) / kShardCount),
      shards_(kShardCount) {}

SigCache::Key SigCache::make_key(const Sha256Digest& digest, ByteSpan pubkey33,
                                 ByteSpan sig64) noexcept {
  // Domain-separated so the key space can't collide with bare digests.
  ByteArray<8 + 32 + 33 + 64> buf{};
  const char tag[8] = {'s', 'i', 'g', 'c', 'a', 'c', 'h', 'e'};
  std::size_t off = 0;
  for (char c : tag) buf[off++] = static_cast<std::uint8_t>(c);
  for (auto b : digest) buf[off++] = b;
  for (std::size_t i = 0; i < pubkey33.size() && i < 33; ++i) buf[off + i] = pubkey33[i];
  off += 33;
  for (std::size_t i = 0; i < sig64.size() && i < 64; ++i) buf[off + i] = sig64[i];
  return sha256({buf.data(), buf.size()});
}

SigCache::Shard& SigCache::shard_for(const Key& key) const noexcept {
  // Byte 8 is independent of the bytes KeyHash consumes for bucketing.
  return shards_[key[8] & (kShardCount - 1)];
}

bool SigCache::contains(const Key& key) const {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const bool hit = s.entries.find(key) != s.entries.end();
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void SigCache::insert(const Key& key) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.entries.size() >= per_shard_cap_) {
    // Evict the first resident of a pseudo-random bucket derived from the
    // incoming key — O(1), no recency bookkeeping, and deterministic for
    // a fixed insertion sequence.
    const std::size_t buckets = s.entries.bucket_count();
    std::size_t b;
    __builtin_memcpy(&b, key.data() + 16, sizeof(b));
    for (std::size_t probe = 0; probe < buckets; ++probe) {
      const std::size_t bucket = (b + probe) % buckets;
      if (s.entries.bucket_size(bucket) > 0) {
        s.entries.erase(*s.entries.begin(bucket));
        evictions_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  if (s.entries.insert(key).second) insertions_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t SigCache::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    n += s.entries.size();
  }
  return n;
}

SigCache::Stats SigCache::stats() const noexcept {
  return Stats{hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
               insertions_.load(std::memory_order_relaxed),
               evictions_.load(std::memory_order_relaxed)};
}

void SigCache::reset_stats() noexcept {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

void SigCache::clear() {
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.entries.clear();
  }
}

SigCache& SigCache::global() {
  static SigCache cache;
  return cache;
}

PubkeyPrecompCache::PubkeyPrecompCache(std::size_t max_entries)
    : max_entries_(max_entries), shards_(kShardCount) {}

PubkeyPrecompCache::Shard& PubkeyPrecompCache::shard_for(const Key& key) const noexcept {
  // Byte 9 is independent of the x-coordinate bytes KeyHash consumes.
  return shards_[key[9] & (kShardCount - 1)];
}

std::size_t PubkeyPrecompCache::per_shard_cap() const noexcept {
  const std::size_t max = max_entries_.load(std::memory_order_relaxed);
  const std::size_t cap = (max + kShardCount - 1) / kShardCount;
  return cap == 0 ? 0 : (cap < 1 ? 1 : cap);
}

void PubkeyPrecompCache::evict_one(Shard& s, const Key& incoming) {
  // Same O(1) pseudo-random-bucket scheme as SigCache: no recency
  // bookkeeping, deterministic for a fixed insertion sequence.
  const std::size_t buckets = s.entries.bucket_count();
  std::size_t b;
  __builtin_memcpy(&b, incoming.data() + 16, sizeof(b));
  for (std::size_t probe = 0; probe < buckets; ++probe) {
    const std::size_t bucket = (b + probe) % buckets;
    if (s.entries.bucket_size(bucket) > 0) {
      s.entries.erase(s.entries.begin(bucket)->first);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

std::shared_ptr<const secp::PubkeyPrecomp> PubkeyPrecompCache::lookup(const Key& key) {
  if (max_entries_.load(std::memory_order_relaxed) == 0) return nullptr;
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.entries.find(key);
  if (it != s.entries.end() && it->second.tables != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second.tables;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void PubkeyPrecompCache::note_verified(const Key& key, const secp::AffinePoint& point) {
  if (max_entries_.load(std::memory_order_relaxed) == 0) return;
  Shard& s = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.entries.find(key);
    if (it == s.entries.end()) {
      // First sighting: marker only — a one-shot payer never pays a build.
      if (s.entries.size() >= per_shard_cap()) evict_one(s, key);
      s.entries.emplace(key, Entry{nullptr, ++s.arrivals});
      return;
    }
    if (it->second.tables != nullptr) return;  // tables already published
    // A key that did not recur within the gap would be evicted before its
    // tables repaid the build: re-stamp the marker and wait.
    const std::uint64_t gap = s.arrivals - it->second.seen_at;
    it->second.seen_at = s.arrivals;
    if (gap > per_shard_cap() / kBuildGapDivisor) return;
  }
  // Build the ~18 KiB tables outside the shard lock so concurrent lookups
  // of other keys don't stall behind ~100 µs of point arithmetic. A
  // racing builder does redundant work but publishes an identical value,
  // so last-write-wins is harmless.
  auto built = std::make_shared<const secp::PubkeyPrecomp>(secp::build_pubkey_precomp(point));
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.entries.find(key);
  if (it == s.entries.end()) return;  // evicted while building: drop the work
  if (it->second.tables == nullptr) {
    it->second.tables = std::move(built);
    insertions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PubkeyPrecompCache::set_capacity(std::size_t max_entries) {
  max_entries_.store(max_entries, std::memory_order_relaxed);
  if (max_entries == 0) {
    clear();
    return;
  }
  const std::size_t cap = per_shard_cap();
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    while (s.entries.size() > cap) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      s.entries.erase(s.entries.begin());
    }
  }
}

std::size_t PubkeyPrecompCache::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    n += s.entries.size();
  }
  return n;
}

PubkeyPrecompCache::Stats PubkeyPrecompCache::stats() const noexcept {
  return Stats{hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
               insertions_.load(std::memory_order_relaxed),
               evictions_.load(std::memory_order_relaxed)};
}

void PubkeyPrecompCache::reset_stats() noexcept {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

void PubkeyPrecompCache::clear() {
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.entries.clear();
  }
}

PubkeyPrecompCache& PubkeyPrecompCache::global() {
  // Starts disabled: see the header.
  static PubkeyPrecompCache cache(0);
  return cache;
}

bool ecdsa_verify_cached(SigCache* cache, ByteSpan pubkey33, const Sha256Digest& digest,
                         ByteSpan sig64, PubkeyPrecompCache* precomp) noexcept {
  if (pubkey33.size() != 33 || sig64.size() != 64) return false;
  SigCache::Key key{};
  if (cache != nullptr) {
    key = SigCache::make_key(digest, pubkey33, sig64);
    if (cache->contains(key)) return true;
  }
  const PubkeyPrecompCache::Key pk = to_array<33>(pubkey33);
  const auto pre = precomp != nullptr ? precomp->lookup(pk) : nullptr;
  const auto sig = Signature::parse(sig64);
  if (!sig) return false;
  std::optional<PublicKey> pub;
  if (pre != nullptr) {
    // Warm repeat-payer path: no decompression, no table build.
    if (!ecdsa_verify_precomp(digest, *sig, *pre)) return false;
  } else {
    pub = PublicKey::parse(pubkey33);
    if (!pub || !ecdsa_verify(*pub, digest, *sig)) return false;
  }
  if (cache != nullptr) cache->insert(key);
  if (precomp != nullptr && pub) precomp->note_verified(pk, pub->point());
  return true;
}

bool verify_signature(ByteSpan pubkey33, const Sha256Digest& digest, ByteSpan sig64) noexcept {
  return ecdsa_verify_cached(&SigCache::global(), pubkey33, digest, sig64,
                             &PubkeyPrecompCache::global());
}

}  // namespace btcfast::crypto
