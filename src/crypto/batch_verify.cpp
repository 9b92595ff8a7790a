#include "crypto/batch_verify.h"

#include <cstring>
#include <memory>
#include <optional>
#include <unordered_map>

#include "crypto/secp256k1.h"

namespace btcfast::crypto {
namespace {

enum class JobState : std::uint8_t {
  kPending,     // needs a curve computation
  kCacheHit,    // sigcache said valid
  kRejected,    // malformed encoding or bad pubkey group
};

/// Per-distinct-pubkey work unit for a batch.
struct KeyGroup {
  ByteArray<33> keybytes{};
  std::shared_ptr<const secp::PubkeyPrecomp> pre;  // warm: cached wide tables
  secp::PointTables tables;                        // cold: per-batch tables
  std::optional<PublicKey> pub;                    // cold: decompressed point
  bool bad = false;                                // pubkey failed to decompress
  bool any_valid = false;                          // drives note_verified
};

struct PubkeyBytesHash {
  std::size_t operator()(const ByteArray<33>& k) const noexcept {
    std::size_t h;
    std::memcpy(&h, k.data() + 1, sizeof(h));
    return h;
  }
};

}  // namespace

std::vector<std::uint8_t> batch_verify(common::ThreadPool& pool,
                                       const std::vector<SigCheckJob>& jobs, SigCache* cache,
                                       PubkeyPrecompCache* precomp) {
  const std::size_t n = jobs.size();
  std::vector<std::uint8_t> results(n, 0);
  if (n == 0) return results;

  std::vector<SigCache::Key> keys(n);
  std::vector<Signature> sigs(n);
  std::vector<JobState> state(n, JobState::kPending);

  // Pass 1 (parallel): sigcache probe + signature range checks.
  pool.parallel_for(n, [&](std::size_t i) {
    const SigCheckJob& j = jobs[i];
    if (cache != nullptr) {
      keys[i] = SigCache::make_key(j.digest, {j.pubkey.data(), j.pubkey.size()},
                                   {j.sig.data(), j.sig.size()});
      if (cache->contains(keys[i])) {
        state[i] = JobState::kCacheHit;
        results[i] = 1;
        return;
      }
    }
    const auto sig = Signature::parse({j.sig.data(), j.sig.size()});
    if (!sig) {
      state[i] = JobState::kRejected;
      return;
    }
    sigs[i] = *sig;
  });

  // Group the surviving jobs by pubkey (serial; batches are small). The
  // groups are counted first and allocated once: a KeyGroup carries its
  // ~2 KiB of cold tables inline, so growing the vector would copy them.
  std::unordered_map<ByteArray<33>, std::uint32_t, PubkeyBytesHash> group_of;
  group_of.reserve(n);
  std::vector<std::size_t> first_job;  // per group: the job that opened it
  std::vector<std::uint32_t> job_group(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] != JobState::kPending) continue;
    const auto [it, fresh] =
        group_of.emplace(jobs[i].pubkey, static_cast<std::uint32_t>(first_job.size()));
    if (fresh) first_job.push_back(i);
    job_group[i] = it->second;
  }
  std::vector<KeyGroup> groups(first_job.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    groups[gi].keybytes = jobs[first_job[gi]].pubkey;
  }

  // Probe the precomp cache once per distinct key (serial: stat counts
  // stay per-key-per-batch, not per-job).
  if (precomp != nullptr) {
    for (auto& g : groups) g.pre = precomp->lookup(g.keybytes);
  }

  // Pass 2 (parallel over distinct keys): decompress + build the shared
  // projective-frame GLV tables for every key the precomp cache missed.
  // build_point_tables is inversion-free (co-Z ladder), so nothing here
  // needs the Montgomery batching — that is saved for the scalar side.
  pool.parallel_for(groups.size(), [&](std::size_t gi) {
    KeyGroup& g = groups[gi];
    if (g.pre != nullptr) return;
    g.pub = PublicKey::parse({g.keybytes.data(), g.keybytes.size()});
    if (!g.pub) {
      g.bad = true;
      return;
    }
    secp::build_point_tables(g.pub->point(), g.tables);
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == JobState::kPending && groups[job_group[i]].bad) {
      state[i] = JobState::kRejected;
    }
  }

  // Pass 3 (serial): ONE Montgomery-trick inversion for every pending
  // job's s — w_i = s_i⁻¹ mod n via prefix products and a single ninv,
  // instead of one ~8 µs binary-GCD inversion per signature.
  std::vector<std::size_t> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == JobState::kPending) pending.push_back(i);
  }
  std::vector<U256> w(pending.size());
  if (!pending.empty()) {
    U256 acc = U256::one();
    for (std::size_t k = 0; k < pending.size(); ++k) {
      w[k] = acc;  // product of s_0..s_{k-1}
      acc = secp::nmul(acc, sigs[pending[k]].s);
    }
    U256 inv = secp::ninv(acc);
    for (std::size_t k = pending.size(); k-- > 0;) {
      const U256 wk = secp::nmul(inv, w[k]);
      inv = secp::nmul(inv, sigs[pending[k]].s);
      w[k] = wk;
    }
  }

  // Pass 4 (parallel): the GLV chains — wide cached tables when warm,
  // the per-batch shared-frame tables when cold.
  pool.parallel_for(pending.size(), [&](std::size_t k) {
    const std::size_t i = pending[k];
    const KeyGroup& g = groups[job_group[i]];
    const bool ok = g.pre != nullptr
                        ? ecdsa_verify_prepared(jobs[i].digest, sigs[i], w[k], *g.pre)
                        : ecdsa_verify_prepared(jobs[i].digest, sigs[i], w[k], g.tables);
    results[i] = ok ? 1 : 0;
  });

  // Pass 5 (serial): publish cache state for the verified-valid jobs.
  for (const std::size_t i : pending) {
    if (results[i] == 0) continue;
    if (cache != nullptr) cache->insert(keys[i]);
    groups[job_group[i]].any_valid = true;
  }
  if (precomp != nullptr) {
    for (const auto& g : groups) {
      if (g.any_valid && g.pre == nullptr && g.pub) {
        precomp->note_verified(g.keybytes, g.pub->point());
      }
    }
  }
  return results;
}

}  // namespace btcfast::crypto
