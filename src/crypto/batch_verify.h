// Batch signature verification: fan independent ECDSA checks across a
// thread pool with deterministic, input-ordered results. Used by the
// gateway to verify a serving window's signatures, by the merchant to
// warm the signature cache over a whole intake batch, and by benches to
// measure the parallel crypto ceiling.
//
// A pass runs in three parts. The window-wide prologue probes the
// signature cache and parses every signature (on the pool), groups the
// surviving jobs by pubkey (escrow traffic repeats payers, so a window
// usually holds far fewer distinct keys than jobs) and looks each key up
// in the PubkeyPrecompCache once. The curve work then runs per chunk: a
// chunk is kVerifyChunkJobs consecutive jobs, and any thread may run any
// chunk. It builds the GLV tables of the cold keys it needs (once per
// key per pass), inverts its jobs' s values with ONE Montgomery-trick
// inversion, and checks its hinted signatures as one randomized batch
// equation
//   Σ a_i·(u1_i·G + u2_i·Q_i − R_i) = O
// with secret 128-bit a_i over one shared doubling chain. A chunk whose
// equation fails re-checks its jobs one GLV chain each, so every verdict
// equals the per-signature path's; a wrong or missing hint only costs
// time, at most one chunk's equation per bad bit. Last, the owner
// publishes each chunk, in chunk order, on its own thread: SigCache
// inserts and precomp notes happen in job order at every pool size.
//
// batch_verify() runs a pass to completion. The gateway interleaves one
// with its decisions: it decides a frame as soon as the chunks holding
// its jobs are published, while the pool works on later chunks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// Hinted jobs a chunk needs before it checks them as one equation; a
/// chunk with fewer runs one GLV chain per signature. An equation's
/// fixed cost (its doubling chain, its G term and a field inversion)
/// needs a few jobs to pay off. Set from bench_micro_crypto's cut-over
/// rows.
inline constexpr std::size_t kMinBatchEquationJobs = 4;

/// Jobs per chunk: 16 submit frames of binding-plus-one-input packages.
/// Smaller chunks let a serving window's first decisions start sooner
/// and spread its tail more evenly over the pool; each chunk pays one
/// equation's fixed cost. Set from bench_micro_crypto's chunk rows, cold
/// keys on the inline pool: the smallest power of two whose equation
/// costs within 5% per signature of the 48-job row's (16 jobs cost ~8%
/// more).
/// A pass too small to fill two chunks and one chunk per pool CPU is
/// cut instead into one piece per CPU, as a single pass always was: a
/// lone submit's 2 jobs still run as 2 chains on 2 CPUs.
inline constexpr std::size_t kVerifyChunkJobs = 32;

/// One pass over a window of jobs, in stages its owner can interleave
/// with other work. The constructor runs the prologue on `pool`. Then
/// every chunk must run once (run_chunk, on any thread; distinct chunks
/// may run concurrently) and be published, in chunk order, by the owner.
/// `jobs` and the caches must outlive the pass.
class VerifyPass {
 public:
  VerifyPass(common::ThreadPool& pool, const std::vector<SigCheckJob>& jobs, SigCache* cache,
             PubkeyPrecompCache* precomp);
  ~VerifyPass();
  VerifyPass(const VerifyPass&) = delete;
  VerifyPass& operator=(const VerifyPass&) = delete;

  [[nodiscard]] std::size_t chunk_count() const noexcept;
  /// The chunk holding job `job`.
  [[nodiscard]] std::size_t chunk_of(std::size_t job) const noexcept;

  /// Verify one chunk's jobs.
  void run_chunk(std::size_t c);
  /// Make chunk `c`'s verdicts visible to the owner and publish its cache
  /// state: valid jobs enter the SigCache, and a cold key's first valid
  /// job notes the key to the precomp cache. Call after run_chunk(c) has
  /// finished, on the owner's thread, for c = 0, 1, ... in order.
  void publish(std::size_t c);

  /// `results()[i]` is 1 iff jobs[i] verifies; final once its chunk is
  /// published.
  [[nodiscard]] const std::vector<std::uint8_t>& results() const noexcept;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// Verify every job, fanning across `pool` (inline when the pool has no
/// workers): a VerifyPass run to completion. `results[i]` is 1 iff
/// `jobs[i]` verifies — ordering matches the input regardless of thread
/// count. Verified-valid jobs are inserted into `cache` when non-null;
/// distinct verified keys are reported to `precomp` when non-null (and
/// resident precomp tables skip decompression and table building for
/// their jobs).
[[nodiscard]] std::vector<std::uint8_t> batch_verify(common::ThreadPool& pool,
                                                     const std::vector<SigCheckJob>& jobs,
                                                     SigCache* cache,
                                                     PubkeyPrecompCache* precomp = nullptr);

}  // namespace btcfast::crypto
