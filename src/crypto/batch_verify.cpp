#include "crypto/batch_verify.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <unordered_map>

#include "crypto/secp256k1.h"

namespace btcfast::crypto {
namespace {

enum class JobState : std::uint8_t {
  kPending,     // needs a curve computation
  kCacheHit,    // sigcache said valid
  kRejected,    // malformed signature encoding
};

/// Per-distinct-pubkey state of a pass. A cold key's point and tables are
/// built once, by the first chunk that needs them, and only read after.
struct KeyGroup {
  ByteArray<33> keybytes{};
  std::shared_ptr<const secp::PubkeyPrecomp> pre;  // warm: cached wide tables
  std::once_flag built;                            // cold: guards the three below
  secp::PointTables tables;                        // cold: per-pass tables
  std::optional<PublicKey> pub;                    // cold: decompressed point
  bool bad = false;                                // pubkey failed to decompress
  bool any_valid = false;                          // owner only: drives note_verified
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

/// A chunk's coefficient seed: the secret hashed with every job the
/// chunk checks, hints included.
Sha256Digest coefficient_seed(const std::vector<SigCheckJob>& jobs,
                              const std::vector<std::size_t>& members) {
  Sha256 h;
  const auto& secret = coefficient_secret();
  h.update({secret.data(), secret.size()});
  for (const std::size_t i : members) {
    const SigCheckJob& j = jobs[i];
    h.update({j.digest.data(), j.digest.size()});
    h.update({j.pubkey.data(), j.pubkey.size()});
    h.update({j.sig.data(), j.sig.size()});
    h.update({&j.r_parity, 1});
  }
  return h.finalize();
}

/// The n-th coefficient of a chunk: 128 bits of SHA-256(seed ‖ n),
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

struct VerifyPass::State {
  State(const std::vector<SigCheckJob>& j, SigCache* c, PubkeyPrecompCache* p)
      : jobs(j), cache(c), precomp(p) {}

  const std::vector<SigCheckJob>& jobs;
  SigCache* cache;
  PubkeyPrecompCache* precomp;
  std::size_t chunk = 1;  ///< jobs per chunk
  std::size_t chunks = 0;
  std::vector<std::uint8_t> results;
  std::vector<SigCache::Key> keys;
  std::vector<Signature> sigs;
  std::vector<JobState> state;
  std::vector<std::uint32_t> job_group;
  std::vector<KeyGroup> groups;
};

VerifyPass::VerifyPass(common::ThreadPool& pool, const std::vector<SigCheckJob>& jobs,
                       SigCache* cache, PubkeyPrecompCache* precomp)
    : s_(std::make_unique<State>(jobs, cache, precomp)) {
  State& s = *s_;
  const std::size_t n = jobs.size();
  s.results.assign(n, 0);
  if (n == 0) return;
  // Fixed-size chunks once the pass fills two and one per pool CPU; a
  // smaller pass is cut into one piece per CPU instead, so it still
  // spreads over the whole pool.
  const std::size_t cpus = std::max<std::size_t>(1, pool.thread_count());
  s.chunk = n >= std::max<std::size_t>(2, cpus) * kVerifyChunkJobs ? kVerifyChunkJobs
                                                                   : (n + cpus - 1) / cpus;
  s.chunks = (n + s.chunk - 1) / s.chunk;
  s.keys.resize(n);
  s.sigs.resize(n);
  s.state.assign(n, JobState::kPending);

  // Sigcache probe + signature range checks, on the pool. Every probe
  // precedes every insert, so a pass's hits do not depend on how its
  // chunks interleave with the owner's publishes.
  pool.parallel_for(n, [&](std::size_t i) {
    const SigCheckJob& j = jobs[i];
    if (cache != nullptr) {
      s.keys[i] = SigCache::make_key(j.digest, {j.pubkey.data(), j.pubkey.size()},
                                     {j.sig.data(), j.sig.size()});
      if (cache->contains(s.keys[i])) {
        s.state[i] = JobState::kCacheHit;
        s.results[i] = 1;
        return;
      }
    }
    const auto sig = Signature::parse({j.sig.data(), j.sig.size()});
    if (!sig) {
      s.state[i] = JobState::kRejected;
      return;
    }
    s.sigs[i] = *sig;
  });

  // Group the surviving jobs by pubkey (serial; windows are small). The
  // groups are counted first and allocated once: a KeyGroup carries its
  // cold tables inline and a once_flag, so it never moves.
  std::unordered_map<ByteArray<33>, std::uint32_t, PubkeyBytesHash> group_of;
  group_of.reserve(n);
  std::vector<std::size_t> first_job;  // per group: the job that opened it
  s.job_group.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (s.state[i] != JobState::kPending) continue;
    const auto [it, fresh] =
        group_of.emplace(jobs[i].pubkey, static_cast<std::uint32_t>(first_job.size()));
    if (fresh) first_job.push_back(i);
    s.job_group[i] = it->second;
  }
  s.groups = std::vector<KeyGroup>(first_job.size());
  for (std::size_t gi = 0; gi < s.groups.size(); ++gi) {
    s.groups[gi].keybytes = jobs[first_job[gi]].pubkey;
  }

  // Probe the precomp cache once per distinct key (serial: stat counts
  // stay per-key-per-pass, not per-job).
  if (precomp != nullptr) {
    for (auto& g : s.groups) g.pre = precomp->lookup(g.keybytes);
  }
}

VerifyPass::~VerifyPass() = default;

std::size_t VerifyPass::chunk_count() const noexcept { return s_->chunks; }

std::size_t VerifyPass::chunk_of(std::size_t job) const noexcept { return job / s_->chunk; }

const std::vector<std::uint8_t>& VerifyPass::results() const noexcept { return s_->results; }

void VerifyPass::run_chunk(std::size_t c) {
  State& s = *s_;
  const std::vector<SigCheckJob>& jobs = s.jobs;
  const std::size_t begin = c * s.chunk;
  const std::size_t end = std::min(begin + s.chunk, jobs.size());

  // Cold keys: decompress and build the shared-frame GLV tables, once per
  // key per pass (a key's jobs may sit in several chunks). Inversion-free
  // (co-Z ladder), so the Montgomery batching is saved for the scalars.
  std::vector<std::size_t> pending;  // this chunk's jobs that need curve work
  pending.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    if (s.state[i] != JobState::kPending) continue;
    KeyGroup& g = s.groups[s.job_group[i]];
    if (g.pre == nullptr) {
      std::call_once(g.built, [&g] {
        g.pub = PublicKey::parse({g.keybytes.data(), g.keybytes.size()});
        if (g.pub) {
          secp::build_point_tables(g.pub->point(), g.tables);
        } else {
          g.bad = true;
        }
      });
      if (g.bad) continue;  // verdict stays 0
    }
    pending.push_back(i);
  }
  if (pending.empty()) return;

  // ONE Montgomery-trick inversion for the chunk's s values — w = s⁻¹ mod
  // n via prefix products and a single ninv, instead of one ~8 µs
  // binary-GCD inversion per signature.
  std::vector<U256> w(pending.size());
  U256 acc = U256::one();
  for (std::size_t t = 0; t < pending.size(); ++t) {
    w[t] = acc;  // product of s_0..s_{t-1}
    acc = secp::nmul(acc, s.sigs[pending[t]].s);
  }
  U256 inv = secp::ninv(acc);
  for (std::size_t t = pending.size(); t-- > 0;) {
    const U256 wt = secp::nmul(inv, w[t]);
    inv = secp::nmul(inv, s.sigs[pending[t]].s);
    w[t] = wt;
  }

  // `chain` is the per-signature check — a GLV chain against the wide
  // cached tables when warm, the per-pass shared-frame tables when cold.
  const auto chain = [&](std::size_t t) {
    const std::size_t i = pending[t];
    const KeyGroup& g = s.groups[s.job_group[i]];
    const bool ok = g.pre != nullptr
                        ? ecdsa_verify_prepared(jobs[i].digest, s.sigs[i], w[t], *g.pre)
                        : ecdsa_verify_prepared(jobs[i].digest, s.sigs[i], w[t], g.tables);
    s.results[i] = ok ? 1 : 0;
  };
  std::size_t hinted = 0;
  for (const std::size_t i : pending) hinted += jobs[i].r_parity <= 1;
  if (hinted < kMinBatchEquationJobs) {
    for (std::size_t t = 0; t < pending.size(); ++t) chain(t);
    return;
  }

  // One equation over the chunk's hinted jobs. batch_sum_is_identity
  // normalizes a cold key's tables in place, so each key term gets this
  // chunk's own copy: other chunks may be reading the shared tables.
  const Sha256Digest seed = coefficient_seed(jobs, pending);
  U256 gsum = U256::zero();
  std::vector<secp::BatchKeyTerm> keyterms;
  std::vector<std::uint32_t> term_group;  // the key group of each term
  std::vector<secp::PointTables> cold_copies;
  cold_copies.reserve(pending.size());
  std::vector<secp::BatchNonceTerm> nonces;
  std::vector<std::size_t> in_equation;  // positions in `pending`
  for (std::size_t t = 0; t < pending.size(); ++t) {
    const std::size_t i = pending[t];
    const std::uint8_t hint = jobs[i].r_parity;
    // Missing hints and r values no curve point has take the
    // per-signature check. An R with x ≥ n (it lifts from r + n) lifts
    // to a wrong point, fails the equation and is checked below.
    const auto r = hint <= 1 ? secp::lift_x(s.sigs[i].r, hint == 1) : std::nullopt;
    if (!r) {
      chain(t);
      continue;
    }
    const std::uint32_t gi = s.job_group[i];
    std::size_t term = std::find(term_group.begin(), term_group.end(), gi) - term_group.begin();
    if (term == term_group.size()) {
      const KeyGroup& g = s.groups[gi];
      secp::PointTables* tables = nullptr;
      if (g.pre == nullptr) tables = &cold_copies.emplace_back(g.tables);
      keyterms.push_back({U256::zero(), g.pre.get(), tables});
      term_group.push_back(gi);
    }
    const U256 a = coefficient(seed, t);
    const U256 z = secp::nreduce(U256::from_be_bytes({jobs[i].digest.data(), 32}));
    gsum = secp::nadd(gsum, secp::nmul(a, secp::nmul(z, w[t])));
    keyterms[term].c = secp::nadd(keyterms[term].c, secp::nmul(a, secp::nmul(s.sigs[i].r, w[t])));
    nonces.push_back({a, *r});
    in_equation.push_back(t);
  }
  if (in_equation.empty()) return;
  if (secp::batch_sum_is_identity(gsum, keyterms, nonces)) {
    for (const std::size_t t : in_equation) s.results[pending[t]] = 1;
  } else {
    for (const std::size_t t : in_equation) chain(t);
  }
}

void VerifyPass::publish(std::size_t c) {
  State& s = *s_;
  const std::size_t begin = c * s.chunk;
  const std::size_t end = std::min(begin + s.chunk, s.jobs.size());
  for (std::size_t i = begin; i < end; ++i) {
    if (s.state[i] != JobState::kPending || s.results[i] == 0) continue;
    if (s.cache != nullptr) s.cache->insert(s.keys[i]);
    KeyGroup& g = s.groups[s.job_group[i]];
    if (g.any_valid) continue;
    g.any_valid = true;
    if (s.precomp != nullptr && g.pre == nullptr && g.pub) {
      s.precomp->note_verified(g.keybytes, g.pub->point());
    }
  }
}

std::vector<std::uint8_t> batch_verify(common::ThreadPool& pool,
                                       const std::vector<SigCheckJob>& jobs, SigCache* cache,
                                       PubkeyPrecompCache* precomp) {
  VerifyPass pass(pool, jobs, cache, precomp);
  pool.parallel_for(pass.chunk_count(), [&pass](std::size_t c) { pass.run_chunk(c); });
  for (std::size_t c = 0; c < pass.chunk_count(); ++c) pass.publish(c);
  return pass.results();
}

}  // namespace btcfast::crypto
