// Batch signature verification: fan independent ECDSA checks across a
// thread pool with deterministic, input-ordered results. Used by the
// merchant to warm the signature cache over a whole intake batch, and
// by benches to measure the parallel crypto ceiling.
//
// The batch is verified in stages rather than job-by-job: signature
// cache probes and parses fan out first, the surviving jobs are grouped
// by pubkey (escrow traffic repeats payers, so a batch usually holds
// far fewer distinct keys than jobs), per-key GLV tables are built (or
// fetched from the PubkeyPrecompCache) once per key, all the per-job
// mod-n scalar inversions collapse into ONE Montgomery-trick inversion,
// and finally the curve work fans back out.
//
// That last stage checks a pass's signatures as randomized batch
// equations when the jobs carry R-parity hints: the keys are split into
// one sub-batch per pool CPU, and each sub-batch tests
//   Σ a_i·(u1_i·G + u2_i·Q_i − R_i) = O
// with secret 128-bit a_i over one shared doubling chain. A sub-batch
// whose equation fails re-checks its jobs one GLV chain each, so every
// verdict equals the per-signature path's; a wrong or missing hint only
// costs time. Small passes keep one chain per signature throughout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "crypto/sigcache.h"

namespace btcfast::crypto {

/// SigCheckJob::r_parity of a job that carries no hint.
inline constexpr std::uint8_t kNoRParity = 0xFF;

/// One independent verification: raw wire encodings, so a cache hit
/// avoids even the point decompression.
struct SigCheckJob {
  Sha256Digest digest{};
  ByteArray<33> pubkey{};
  ByteArray<64> sig{};
  /// The y parity (0 or 1) of the signature's effective R, as ecdsa_sign
  /// reports it, or kNoRParity. Only a speed hint: jobs without one are
  /// checked one chain each.
  std::uint8_t r_parity = kNoRParity;
};

/// Hinted jobs per pool CPU below which a pass keeps one GLV chain per
/// signature. An equation's fixed cost (its doubling chain, its G term
/// and a field inversion) needs a few jobs to pay off, and a pass too
/// small to give every CPU an equation would lose the per-signature
/// path's parallelism: a lone submit's 2 jobs run as 2 chains on 2 CPUs.
/// Set from bench_micro_crypto's cut-over rows.
inline constexpr std::size_t kMinBatchEquationJobs = 4;

/// Verify every job, fanning across `pool` (inline when the pool has no
/// workers). `results[i]` is 1 iff `jobs[i]` verifies — ordering matches
/// the input regardless of thread count. Verified-valid jobs are
/// inserted into `cache` when non-null; distinct verified keys are
/// reported to `precomp` when non-null (and resident precomp tables
/// skip decompression and table building for their jobs).
[[nodiscard]] std::vector<std::uint8_t> batch_verify(common::ThreadPool& pool,
                                                     const std::vector<SigCheckJob>& jobs,
                                                     SigCache* cache,
                                                     PubkeyPrecompCache* precomp = nullptr);

}  // namespace btcfast::crypto
