// The gateway request pipeline: the concurrent front door in front of
// MerchantService, sharded by escrow affinity. Stages per SubmitFastPay
// frame:
//
//   admission (shed when > max_inflight in flight, typed RetryAfter)
//     -> decode (total, fuzz-hardened wire decoders)
//     -> route (escrow affinity byte -> owning shard: its ledger
//        stripes, commit queue, receipt cache and stats are private, so
//        traffic on unrelated escrows never contends)
//     -> evaluate (MerchantService::check_terms — const, reentrant:
//        invoice, amount, escrow health and coverage, no crypto)
//     -> verify (MerchantService::verify_payment — binding + input
//        signatures through crypto::verify_signature: SigCache, then the
//        per-pubkey precomp cache, then a cold GLV verify, on the serving
//        thread itself; inside serve_batch, the verdicts of the batch's
//        verify pass, whose chunks the pool checks while earlier frames
//        are decided)
//     -> reserve (ReservationLedger::try_reserve on the shard's ledger,
//        keyed by the payment's txid — the per-escrow serialization
//        point; two racing fast-pays cannot overcommit one escrow, and
//        two copies of one payment cannot both hold; then a slot in the
//        merchant's bounded book)
//     -> wal (the accept's one record appended: the hold plus the package
//        bytes and invoice the merchant disputes with; one commit +
//        quorum round covers the whole batch — a serve() is a batch of
//        one)
//     -> respond (+ queue the accept on the shard for epoch flush)
//
// Reservation ids draw from one gateway-wide counter and embed the
// escrow's geometry-independent affinity byte, so an N-shard gateway
// returns byte-identical responses to a 1-shard gateway for the same
// frame sequence.
//
// Threading contract: serve() is safe from any number of threads while
// the merchant/simulation is quiescent — the concurrent stages only READ
// node state (lazy escrow fetch, when enabled, is serialized by a
// gateway-wide fetch lock). Mutation (merchant bookkeeping, BTC
// broadcast, PSC txs) is deferred: accepted packages land in per-shard
// commit queues that the control thread drains with flush_accepted() —
// one sealed epoch applied in deterministic order. The flush writes
// nothing durable: each accept's record was committed before its
// response, so a crash before the flush loses no accept a client saw.
// reconcile() (also control-thread) refreshes escrow views from the
// contract each PSC block, releases reservations for settled/judged
// payments, and expires stale ones.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btcfast/merchant.h"
#include "common/thread_pool.h"
#include "crypto/sigcache.h"
#include "gateway/reservation_ledger.h"
#include "gateway/stats.h"
#include "gateway/wire.h"
#include "store/recovery.h"

namespace btcfast::gateway {

struct GatewayConfig {
  /// Admission bound: requests beyond this many concurrently in flight
  /// are shed with kRetryAfter instead of queueing unboundedly.
  std::size_t max_inflight = 256;
  /// Hint returned in RetryAfter responses.
  std::uint64_t retry_after_ms = 50;
  /// Bound on the best-effort receipt cache behind GetReceipt: oldest
  /// receipts are evicted first once the cache is full (request ids are
  /// client-chosen, so an unbounded map would let an untrusted client
  /// exhaust gateway memory). The budget is split evenly across shards
  /// (at least 1 per shard). 0 disables receipts entirely.
  std::size_t max_receipts = 4096;
  /// Fetch untracked escrows from the PSC chain on demand. Safe under
  /// concurrent serve(): the chain view call is serialized by a
  /// gateway-wide fetch lock, so only the first request for an unknown
  /// escrow pays it. Concurrent deployments that want zero locking on
  /// the hot path still pre-register via track_escrow.
  bool lazy_escrow_fetch = false;
  /// Escrow-affinity pipeline shards (clamped to [1, 64]). Each shard
  /// owns its ledger stripes, commit queue, receipt cache and stats;
  /// responses are byte-identical for any value.
  std::size_t shards = 8;
  /// Bound on the process-wide per-pubkey GLV precomp table cache
  /// (entries are ~18 KiB, so the default 512 keys is ~9 MiB). Applied
  /// to crypto::PubkeyPrecompCache::global() at construction (the global
  /// cache is off until then); 0 disables precomp caching entirely
  /// (verifies still run the GLV fast path, just with per-call tables).
  std::size_t pubkey_precomp_max = crypto::PubkeyPrecompCache::kDefaultMaxEntries;
};

/// Counters of serve_batch's verify pass: one crypto::VerifyPass per
/// call over the signature jobs of every submit frame in it (relaxed;
/// for stats and benches).
class VerifyPassStats {
 public:
  void on_pass(std::size_t jobs) noexcept {
    batches_.fetch_add(1, std::memory_order_relaxed);
    jobs_.fetch_add(jobs, std::memory_order_relaxed);
  }
  /// Non-empty verify passes run.
  [[nodiscard]] std::uint64_t batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Signature jobs verified across those passes.
  [[nodiscard]] std::uint64_t coalesced_jobs() const noexcept {
    return jobs_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> jobs_{0};
};

class Gateway {
 public:
  Gateway(core::MerchantService& merchant, common::ThreadPool& pool, GatewayConfig config);

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Attach a durable store: from here on every accept — its
  /// reservation, package and invoice, in one record — is WAL-committed
  /// before its response leaves serve() or serve_batch(). Recovery
  /// (restore_from) rebuilds both the ledger and the merchant book from
  /// those records. Pass nullptr to detach. The store outlives the
  /// gateway's use of it (not owned).
  void attach_store(store::DurableStore* store);

  /// Attach a replication commit gate (store::CommitGate, implemented by
  /// replication::ReplicationGroup): after the local WAL commit, an
  /// accept is acked only once the gate confirms a quorum of followers
  /// durably hold its record. Pass nullptr to detach. No-op without an
  /// attached store.
  void attach_commit_gate(store::CommitGate* gate) noexcept { gate_ = gate; }

  /// Rebuild gateway state from a recovered image (fresh gateway,
  /// control thread): reservations back into the owning shard's ledger,
  /// accepted payments back into the merchant book in reservation-id
  /// (grant) order, each handed to the merchant's BTC node in case it was
  /// never broadcast. Reservation ids are geometry-independent, so
  /// the shard/stripe counts need not match the writer's. Returns false
  /// if any entry fails to decode or re-install — recovery then must not
  /// be trusted.
  [[nodiscard]] bool restore_from(const store::StateImage& image);

  /// Make an invoice resolvable by SubmitFastPay frames.
  void register_invoice(const core::Invoice& invoice);

  /// Snapshot an escrow's contract state into the ledger (control thread).
  void track_escrow(EscrowId id);

  /// Serve one encoded frame, returning the encoded response frame.
  /// Thread-safe; synchronous. `now_ms` is simulation/wall time supplied
  /// by the caller so the gateway stays clockless and deterministic.
  /// Signatures are checked through the cached verify path on the
  /// calling thread; the decision and its commit are serve_batch's, for
  /// a batch of one.
  [[nodiscard]] Bytes serve(ByteSpan frame_bytes, std::uint64_t now_ms);

  /// Bulk intake. Phase 1 decodes every frame once (submit payloads and
  /// their signature checks, MerchantService::collect_sig_checks, on the
  /// pool) and starts one crypto::VerifyPass over every check. Phase 2
  /// overlaps the pass with the decisions: the pool verifies the pass's
  /// chunks while this thread decides the frames in order, each as soon
  /// as the chunks holding its checks are published (a wait for a chunk
  /// runs unclaimed chunks here), reading each signature's verdict from
  /// the pass instead of checking it again. Stage::kVerifyPass times the
  /// decode, the prologue and those waits (one sample per submit frame,
  /// each an even share). The batch is the durability boundary:
  /// each accept's reserve record is appended as it is decided, then one
  /// WAL commit and one quorum commit cover the whole batch before any
  /// response is returned, and receipts are published only then. If
  /// either fails, every accept of the batch is undone (hold released,
  /// release record logged, nothing queued) and answered kOverloaded.
  /// Otherwise responses are index-aligned and identical to a serve()
  /// loop over the same frames — for any pool size.
  [[nodiscard]] std::vector<Bytes> serve_batch(const std::vector<Bytes>& frames,
                                               std::uint64_t now_ms);

  /// Drain every shard's commit queue as one epoch (control thread
  /// only): seal the queues, then apply merchant bookkeeping + BTC
  /// broadcast deterministically (shard order, then queue order). It
  /// touches neither the store nor the gate: every accept it applies was
  /// durable, at quorum, before its response. Returns the PSC
  /// transactions the caller must submit (reserved mode). `now_ms` is
  /// unused.
  [[nodiscard]] std::vector<psc::PscTx> flush_accepted(std::uint64_t now_ms = 0);

  /// Control-thread sync point, run on each new PSC block: refresh every
  /// tracked escrow view from the contract, release reservations whose
  /// payments settled or were judged, and expire overdue reservations.
  void reconcile(std::uint64_t now_ms);

  /// Aggregated counters across the admission front and every shard
  /// (relaxed snapshot; safe during concurrent serve).
  [[nodiscard]] GatewayStats stats() const;
  /// The stats document, read from every owner at this moment: stats(),
  /// then the attached store's section (when one is attached), the
  /// crypto caches' section and `extra` (e.g. TcpServer::stats_section,
  /// ReplicationGroup::stats_section). Safe during concurrent serve.
  [[nodiscard]] std::string stats_json(const std::vector<StatsSection>& extra = {}) const;
  /// One shard's private counters (i < shard_count()).
  [[nodiscard]] const GatewayStats& shard_stats(std::size_t i) const;
  void reset_stats();

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t shard_index(EscrowId id) const noexcept {
    return ReservationLedger::affinity(id) % shards_.size();
  }

  /// Ledger views, routed to the owning shard.
  [[nodiscard]] std::optional<ReservationLedger::EscrowSnapshot> escrow_snapshot(
      EscrowId id) const;
  [[nodiscard]] std::uint64_t reservations_granted() const noexcept;
  [[nodiscard]] std::uint64_t reservations_denied() const noexcept;
  [[nodiscard]] std::uint64_t reservations_released() const noexcept;
  [[nodiscard]] std::uint64_t reservations_expired() const noexcept;

  [[nodiscard]] std::size_t commit_queue_depth() const;
  /// serve_batch's verify-pass counters.
  [[nodiscard]] const VerifyPassStats& batcher() const noexcept { return verify_pass_; }

 private:
  struct Accepted {
    core::FastPayPackage package;
    core::Invoice invoice;
    std::uint64_t now_ms = 0;
    ReservationId reservation_id = 0;
  };

  /// A frame decoded once. serve() fills it as it goes; serve_batch
  /// decodes every frame up front and records where each submit's
  /// signature checks sit in the batch's verify pass.
  struct Decoded {
    std::optional<Frame> frame;
    bool payload_decoded = false;  ///< `submit` is final (set or known bad)
    std::optional<SubmitFastPayRequest> submit;
    core::SigJobIndex sigs;
  };

  /// One batch's durability state (serve() is a batch of one), passed
  /// down the call chain — serving is reentrant, so it never lives in a
  /// member: the accepts decided so far, each with its reserve record
  /// appended but not yet committed; the receipts of every decision, in
  /// order, published at the commit; and the highest WAL sequence used.
  struct BatchCommit {
    struct Pending {
      std::size_t slot = 0;  ///< index of the frame (and its response)
      std::uint64_t request_id = 0;
      std::size_t receipt = 0;  ///< index into `receipts`
      std::size_t shard = 0;
      std::chrono::steady_clock::time_point start;  ///< handle_submit entry
      std::uint64_t wal_us = 0;                     ///< this accept's append
      Accepted accepted;
    };
    std::size_t slot = 0;  ///< frame being decided
    std::vector<Pending> accepts;
    std::vector<std::pair<std::uint64_t, ReceiptInfoResponse>> receipts;
    std::uint64_t last_seq = 0;
  };

  /// Everything one escrow-affinity shard owns. Requests for different
  /// shards share nothing on the hot path except the global verify
  /// caches (sharded), the in-flight counter and the reservation-id
  /// counter (atomic).
  struct Shard {
    explicit Shard(std::atomic<ReservationId>& ids)
        : ledger(ReservationLedger::kDefaultStripes, &ids) {}

    ReservationLedger ledger;
    GatewayStats stats;

    std::mutex commit_mu;
    std::vector<Accepted> commit_queue;

    mutable std::mutex receipts_mu;
    std::unordered_map<std::uint64_t, ReceiptInfoResponse> receipts;
    std::deque<std::uint64_t> receipt_order;  ///< FIFO eviction order
  };

  [[nodiscard]] Shard& shard_for(EscrowId id) noexcept { return *shards_[shard_index(id)]; }
  [[nodiscard]] const Shard& shard_for(EscrowId id) const noexcept {
    return *shards_[shard_index(id)];
  }
  /// Receipts route by request id (GetReceipt carries nothing else).
  [[nodiscard]] Shard& receipt_shard(std::uint64_t request_id) noexcept {
    return *shards_[static_cast<std::size_t>((request_id * 0x9e3779b97f4a7c15ull) >> 56) %
                    shards_.size()];
  }

  /// Decide one frame that may be decoded already (`pre`), reading a
  /// submit's signature verdicts from a batch verify pass (`pass`, null
  /// to verify on this thread). An accept's response is left empty for
  /// commit_batch to fill.
  [[nodiscard]] Bytes serve_one(ByteSpan frame_bytes, Decoded* pre,
                                const core::PassVerdicts* pass, std::uint64_t now_ms,
                                BatchCommit& batch);
  [[nodiscard]] Bytes handle_submit(Decoded& d, const core::PassVerdicts* pass,
                                    std::uint64_t now_ms, BatchCommit& batch);
  /// Commit a batch's appended records (WAL, then quorum if it holds an
  /// accept), publish its receipts, then answer its accepts: accepted,
  /// or all undone and kOverloaded. Returns false on undo.
  bool commit_batch(BatchCommit& batch, std::vector<Bytes>& out, std::uint64_t now_ms);
  [[nodiscard]] Bytes handle_query_escrow(const Frame& frame, std::uint64_t now_ms);
  [[nodiscard]] Bytes handle_get_receipt(const Frame& frame, const BatchCommit& batch);
  [[nodiscard]] std::optional<EscrowView> escrow_for(EscrowId id);
  void record_receipt(BatchCommit& batch, std::uint64_t request_id, bool accepted,
                      RejectReason code, std::uint64_t now_ms);
  void publish_receipts(const BatchCommit& batch);

  core::MerchantService& merchant_;
  common::ThreadPool& pool_;
  GatewayConfig config_;
  store::DurableStore* store_ = nullptr;
  store::CommitGate* gate_ = nullptr;

  /// One id space shared by every shard's ledger: grants are globally
  /// unique and independent of shard count.
  std::atomic<ReservationId> reservation_ids_{1};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t receipt_cap_ = 0;  ///< per-shard receipt budget

  /// Admission-front counters: sheds, top-level malformed frames, and
  /// the live queue depth (work that hasn't been routed to a shard yet).
  GatewayStats front_stats_;
  VerifyPassStats verify_pass_;

  std::atomic<std::size_t> inflight_{0};
  /// Accepts queued across all shards but not yet applied; bounds the
  /// merchant book (active + queued <= max_pending_payments) without a
  /// cross-shard lock.
  std::atomic<std::size_t> queued_accepts_{0};

  mutable std::shared_mutex invoices_mu_;
  std::unordered_map<std::uint64_t, core::Invoice> invoices_;

  /// Serializes lazy escrow fetches: PscChain::view_call is not safe
  /// against concurrent callers, so the first request for an unknown
  /// escrow takes this lock, re-checks the ledger, then fetches.
  std::mutex lazy_fetch_mu_;

  /// Escrows to refresh on reconcile. Guarded because lazy fetch inserts
  /// from serve threads; control-thread paths take the same lock.
  mutable std::mutex tracked_mu_;
  std::unordered_set<EscrowId> tracked_;
};

}  // namespace btcfast::gateway
