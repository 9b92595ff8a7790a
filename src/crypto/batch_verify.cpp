#include "crypto/batch_verify.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
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

/// The batch coefficients' secret: 32 bytes from the OS, drawn once per
/// process. A submitter who cannot read it cannot predict a coefficient,
/// so cannot craft invalid signatures whose errors cancel.
const ByteArray<32>& coefficient_secret() {
  static const ByteArray<32> secret = [] {
    std::random_device os;
    ByteArray<32> s{};
    for (std::size_t i = 0; i < s.size(); i += 4) {
      const std::uint32_t v = os();
      std::memcpy(s.data() + i, &v, 4);
    }
    return s;
  }();
  return secret;
}

/// A sub-batch's coefficient seed: the secret hashed with every job the
/// sub-batch holds, hints included.
Sha256Digest coefficient_seed(const std::vector<SigCheckJob>& jobs,
                              const std::vector<std::size_t>& pending,
                              const std::vector<std::size_t>& members) {
  Sha256 h;
  const auto& secret = coefficient_secret();
  h.update({secret.data(), secret.size()});
  for (const std::size_t k : members) {
    const SigCheckJob& j = jobs[pending[k]];
    h.update({j.digest.data(), j.digest.size()});
    h.update({j.pubkey.data(), j.pubkey.size()});
    h.update({j.sig.data(), j.sig.size()});
    h.update({&j.r_parity, 1});
  }
  return h.finalize();
}

/// The n-th coefficient of a sub-batch: 128 bits of SHA-256(seed ‖ n),
/// forced odd so it is never 0.
U256 coefficient(const Sha256Digest& seed, std::uint64_t n) {
  std::uint8_t buf[40];
  std::memcpy(buf, seed.data(), 32);
  for (int b = 0; b < 8; ++b) buf[32 + b] = static_cast<std::uint8_t>(n >> (8 * b));
  const Sha256Digest d = sha256({buf, sizeof(buf)});
  U256 a;
  std::memcpy(&a.w[0], d.data(), 8);
  std::memcpy(&a.w[1], d.data() + 8, 8);
  a.w[0] |= 1;
  return a;
}

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

  // Pass 4 (parallel): the curve work. `chain` is the per-signature
  // check — a GLV chain against the wide cached tables when warm, the
  // per-batch shared-frame tables when cold.
  const auto chain = [&](std::size_t k) {
    const std::size_t i = pending[k];
    const KeyGroup& g = groups[job_group[i]];
    const bool ok = g.pre != nullptr
                        ? ecdsa_verify_prepared(jobs[i].digest, sigs[i], w[k], *g.pre)
                        : ecdsa_verify_prepared(jobs[i].digest, sigs[i], w[k], g.tables);
    results[i] = ok ? 1 : 0;
  };
  std::size_t hinted = 0;
  for (const std::size_t i : pending) hinted += jobs[i].r_parity <= 1;
  const std::size_t subs = std::max<std::size_t>(1, pool.thread_count());
  if (hinted < subs * kMinBatchEquationJobs) {
    pool.parallel_for(pending.size(), chain);
  } else {
    // One sub-batch per pool CPU. A key's jobs all go to one sub-batch
    // (its table serves one equation), the lightest so far; an unhinted
    // job weighs two, as its chain costs about two equation terms.
    std::vector<std::vector<std::size_t>> of_group(groups.size());
    for (std::size_t k = 0; k < pending.size(); ++k) of_group[job_group[pending[k]]].push_back(k);
    std::vector<std::vector<std::size_t>> members(subs);
    std::vector<std::size_t> load(subs, 0);
    for (const auto& ks : of_group) {
      if (ks.empty()) continue;
      const std::size_t sb =
          static_cast<std::size_t>(std::min_element(load.begin(), load.end()) - load.begin());
      for (const std::size_t k : ks) {
        members[sb].push_back(k);
        load[sb] += jobs[pending[k]].r_parity <= 1 ? 1 : 2;
      }
    }
    pool.parallel_for(subs, [&](std::size_t sb) {
      const std::vector<std::size_t>& mine = members[sb];
      const Sha256Digest seed = coefficient_seed(jobs, pending, mine);
      U256 gsum = U256::zero();
      std::vector<secp::BatchKeyTerm> keyterms;
      std::vector<secp::BatchNonceTerm> nonces;
      std::vector<std::size_t> in_equation;
      std::uint32_t last_group = ~std::uint32_t{0};
      for (std::size_t t = 0; t < mine.size(); ++t) {
        const std::size_t k = mine[t];
        const std::size_t i = pending[k];
        const std::uint8_t hint = jobs[i].r_parity;
        // Missing hints and r values no curve point has take the
        // per-signature check. An R with x ≥ n (it lifts from r + n) lifts
        // to a wrong point, fails the equation and is checked below.
        const auto r = hint <= 1 ? secp::lift_x(sigs[i].r, hint == 1) : std::nullopt;
        if (!r) {
          chain(k);
          continue;
        }
        KeyGroup& g = groups[job_group[i]];
        if (job_group[i] != last_group) {  // a key's jobs are contiguous in `mine`
          last_group = job_group[i];
          keyterms.push_back({U256::zero(), g.pre.get(), g.pre != nullptr ? nullptr : &g.tables});
        }
        const U256 a = coefficient(seed, t);
        const U256 z = secp::nreduce(U256::from_be_bytes({jobs[i].digest.data(), 32}));
        gsum = secp::nadd(gsum, secp::nmul(a, secp::nmul(z, w[k])));
        keyterms.back().c =
            secp::nadd(keyterms.back().c, secp::nmul(a, secp::nmul(sigs[i].r, w[k])));
        nonces.push_back({a, *r});
        in_equation.push_back(k);
      }
      if (in_equation.empty()) return;
      if (secp::batch_sum_is_identity(gsum, keyterms, nonces)) {
        for (const std::size_t k : in_equation) results[pending[k]] = 1;
      } else {
        for (const std::size_t k : in_equation) chain(k);
      }
    });
  }

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
