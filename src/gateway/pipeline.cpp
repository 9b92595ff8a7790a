#include "gateway/pipeline.h"

#include <algorithm>
#include <chrono>

#include "crypto/batch_verify.h"
#include "crypto/sigcache.h"

namespace btcfast::gateway {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count());
}

std::uint64_t between_us(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

constexpr const char* kDuplicateReason = "payment already holds a live reservation";

/// Pull the request_id out of a frame header without copying the payload,
/// so the shed path can echo it at near-zero cost. Returns 0 when the
/// header itself is malformed.
std::uint64_t peek_request_id(ByteSpan data) {
  Reader r(data);
  auto magic = r.u32le();
  auto type = r.u8();
  auto rid = r.u64le();
  if (!magic || !type || !rid || *magic != kWireMagic) return 0;
  return *rid;
}

/// RAII in-flight accounting: admission decisions and queue-depth stats
/// stay correct on every exit path, including exceptions.
struct InflightGuard {
  std::atomic<std::size_t>& counter;
  GatewayStats& stats;
  std::size_t depth;

  InflightGuard(std::atomic<std::size_t>& c, GatewayStats& s) : counter(c), stats(s) {
    depth = counter.fetch_add(1, std::memory_order_relaxed) + 1;
    stats.queue_enter();
  }
  ~InflightGuard() {
    counter.fetch_sub(1, std::memory_order_relaxed);
    stats.queue_exit();
  }
};

}  // namespace

Gateway::Gateway(core::MerchantService& merchant, common::ThreadPool& pool, GatewayConfig config)
    : merchant_(merchant), pool_(pool), config_(config) {
  crypto::PubkeyPrecompCache::global().set_capacity(config_.pubkey_precomp_max);
  const std::size_t n = std::clamp<std::size_t>(config_.shards, 1, 64);
  config_.shards = n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(reservation_ids_));
  }
  receipt_cap_ =
      config_.max_receipts == 0 ? 0 : std::max<std::size_t>(1, config_.max_receipts / n);
}

void Gateway::attach_store(store::DurableStore* store) { store_ = store; }

bool Gateway::restore_from(const store::StateImage& image) {
  bool ok = true;
  for (const auto& r : image.reservations) {
    btc::Txid txid;
    txid.bytes = r.txid;
    if (!shard_for(r.escrow_id)
             .ledger.restore_reservation(r.id, r.escrow_id, r.amount, r.expires_at_ms, txid)) {
      ok = false;
    }
    std::lock_guard lock(tracked_mu_);
    tracked_.insert(r.escrow_id);
  }
  // Book the accepts in grant order, which reservation ids follow: the
  // image's own order depends on whether it came from a snapshot (sorted)
  // or from replay (a removal moves the last entry into the hole).
  std::vector<const store::AcceptedImage*> accepted;
  accepted.reserve(image.accepted.size());
  for (const auto& a : image.accepted) accepted.push_back(&a);
  std::sort(accepted.begin(), accepted.end(), [](const auto* a, const auto* b) {
    return a->reservation_id < b->reservation_id;
  });
  for (const auto* a : accepted) {
    const auto pkg = core::FastPayPackage::deserialize(a->package);
    const auto inv = core::Invoice::deserialize(a->invoice);
    if (!pkg || !inv) {
      ok = false;
      continue;
    }
    merchant_.restore_pending(*pkg, *inv, a->accepted_at_ms);
    std::lock_guard lock(tracked_mu_);
    tracked_.insert(pkg->binding.binding.escrow_id);
  }
  // Restored ledger entries carry a placeholder view until refreshed;
  // pull authoritative contract state now so try_reserve sees reality.
  std::vector<EscrowId> ids;
  {
    std::lock_guard lock(tracked_mu_);
    ids.assign(tracked_.begin(), tracked_.end());
  }
  for (const EscrowId id : ids) {
    if (const auto view = merchant_.escrow_view(id)) shard_for(id).ledger.upsert_escrow(id, *view);
  }
  return ok;
}

void Gateway::register_invoice(const core::Invoice& invoice) {
  std::unique_lock lock(invoices_mu_);
  invoices_[invoice.invoice_id] = invoice;
}

void Gateway::track_escrow(EscrowId id) {
  {
    std::lock_guard lock(tracked_mu_);
    tracked_.insert(id);
  }
  if (const auto view = merchant_.escrow_view(id)) {
    shard_for(id).ledger.upsert_escrow(id, *view);
  }
}

std::optional<EscrowView> Gateway::escrow_for(EscrowId id) {
  Shard& sh = shard_for(id);
  if (const auto snap = sh.ledger.snapshot(id)) return snap->view;
  if (!config_.lazy_escrow_fetch) return std::nullopt;
  // The chain view call is not reentrant, so lazy fetches serialize on a
  // gateway-wide lock; re-check the ledger first so only the one thread
  // that actually fetched pays the contract call.
  std::lock_guard fetch_lock(lazy_fetch_mu_);
  if (const auto snap = sh.ledger.snapshot(id)) return snap->view;
  const auto view = merchant_.escrow_view(id);
  if (!view) return std::nullopt;
  {
    std::lock_guard lock(tracked_mu_);
    tracked_.insert(id);
  }
  sh.ledger.upsert_escrow(id, *view);
  return view;
}

void Gateway::record_receipt(BatchCommit& batch, std::uint64_t request_id, bool accepted,
                             RejectReason code, std::uint64_t now_ms) {
  if (receipt_cap_ == 0) return;
  ReceiptInfoResponse r;
  r.found = true;
  r.accepted = accepted;
  r.code = code;
  r.decided_at_ms = now_ms;
  batch.receipts.emplace_back(request_id, r);
}

void Gateway::publish_receipts(const BatchCommit& batch) {
  for (const auto& [request_id, r] : batch.receipts) {
    Shard& sh = receipt_shard(request_id);
    std::lock_guard lock(sh.receipts_mu);
    // Receipts are best-effort: request ids are client-chosen, so each
    // shard's cache is a bounded FIFO — oldest decisions fall out first,
    // never the map growing with attacker-supplied fresh ids.
    const bool inserted = sh.receipts.insert_or_assign(request_id, r).second;
    if (inserted) {
      sh.receipt_order.push_back(request_id);
      while (sh.receipts.size() > receipt_cap_) {
        sh.receipts.erase(sh.receipt_order.front());
        sh.receipt_order.pop_front();
      }
    }
  }
}

Bytes Gateway::serve(ByteSpan frame_bytes, std::uint64_t now_ms) {
  // A batch of one: the same decision and durability path as serve_batch.
  BatchCommit batch;
  std::vector<Bytes> out(1);
  out[0] = serve_one(frame_bytes, nullptr, nullptr, now_ms, batch);
  (void)commit_batch(batch, out, now_ms);
  return std::move(out[0]);
}

Bytes Gateway::serve_one(ByteSpan frame_bytes, Decoded* pre, const core::PassVerdicts* pass,
                         std::uint64_t now_ms, BatchCommit& batch) {
  const auto start = Clock::now();
  InflightGuard guard(inflight_, front_stats_);

  // Admission before any parsing: when the gateway is saturated, the
  // cheapest honest answer is "come back later" — unbounded queueing
  // just converts overload into latency for everyone.
  if (guard.depth > config_.max_inflight) {
    front_stats_.on_shed();
    RetryAfterResponse shed;
    shed.retry_after_ms = config_.retry_after_ms;
    shed.queue_depth = guard.depth;
    return make_frame(MsgType::kRetryAfter, peek_request_id(frame_bytes), shed.serialize());
  }

  Decoded local;
  Decoded& d = pre != nullptr ? *pre : local;
  if (pre == nullptr) local.frame = Frame::deserialize(frame_bytes);
  if (!d.frame) {
    front_stats_.on_reject(RejectReason::kMalformedFrame, elapsed_us(start));
    ErrorResponse err;
    err.code = RejectReason::kMalformedFrame;
    err.message = "undecodable frame";
    return make_frame(MsgType::kError, peek_request_id(frame_bytes), err.serialize());
  }

  switch (d.frame->type) {
    case MsgType::kSubmitFastPay:
      // handle_submit (or, for an accept, commit_batch) records the
      // counters and the latency of the full span once the response exists.
      return handle_submit(d, pass, now_ms, batch);
    case MsgType::kQueryEscrow:
      return handle_query_escrow(*d.frame, now_ms);
    case MsgType::kGetReceipt:
      return handle_get_receipt(*d.frame, batch);
    default: {
      ErrorResponse err;
      err.code = RejectReason::kMalformedFrame;
      err.message = "unexpected message type";
      front_stats_.on_reject(RejectReason::kMalformedFrame, elapsed_us(start));
      return make_frame(MsgType::kError, d.frame->request_id, err.serialize());
    }
  }
}

Bytes Gateway::handle_submit(Decoded& d, const core::PassVerdicts* pass, std::uint64_t now_ms,
                             BatchCommit& batch) {
  const auto start = Clock::now();
  const Frame& frame = *d.frame;
  if (!d.payload_decoded) {
    d.submit = SubmitFastPayRequest::deserialize(frame.payload);
    d.payload_decoded = true;
  }
  auto& req = d.submit;
  if (!req) {
    // No escrow id to route by — the malformed reject is front-door work.
    record_receipt(batch, frame.request_id, false, RejectReason::kMalformedFrame, now_ms);
    front_stats_.on_reject(RejectReason::kMalformedFrame, elapsed_us(start));
    FastPayResultResponse resp;
    resp.accepted = false;
    resp.code = RejectReason::kMalformedFrame;
    resp.reason = "undecodable SubmitFastPay payload";
    return make_frame(MsgType::kFastPayResult, frame.request_id, resp.serialize());
  }

  const core::PaymentBinding& b = req->package.binding.binding;
  Shard& sh = shard_for(b.escrow_id);
  auto stage_start = start;
  auto mark = [&](Stage stage) {
    const auto now = Clock::now();
    sh.stats.on_stage(stage, between_us(stage_start, now));
    stage_start = now;
  };
  mark(Stage::kDecode);

  auto reject = [&](RejectReason code, std::string reason) -> Bytes {
    stage_start = Clock::now();
    // A duplicate refusal records nothing: a replayed frame carries the
    // original's request id, whose decision must stay readable.
    if (code != RejectReason::kDuplicatePayment) {
      record_receipt(batch, frame.request_id, false, code, now_ms);
    }
    FastPayResultResponse resp;
    resp.accepted = false;
    resp.code = code;
    resp.reason = std::move(reason);
    Bytes out = make_frame(MsgType::kFastPayResult, frame.request_id, resp.serialize());
    mark(Stage::kRespond);
    sh.stats.on_reject(code, elapsed_us(start));
    return out;
  };

  std::optional<core::Invoice> invoice;
  {
    std::shared_lock lock(invoices_mu_);
    if (auto it = invoices_.find(req->invoice_id); it != invoices_.end()) {
      invoice = it->second;
    }
  }
  if (!invoice) {
    return reject(RejectReason::kUnknownInvoice, "invoice not registered");
  }

  // A replay of a package that already holds a live reservation is
  // refused before any further work; try_reserve re-checks under the
  // ledger lock for replays that race the original.
  if (sh.ledger.holds(b.escrow_id, b.btc_txid)) {
    return reject(RejectReason::kDuplicatePayment, kDuplicateReason);
  }

  const auto escrow = escrow_for(b.escrow_id);
  psc::Value outstanding = 0;
  if (const auto snap = sh.ledger.snapshot(b.escrow_id)) outstanding = snap->local_reserved;

  // Stage: evaluate. Const and read-only — many threads run this
  // concurrently; terms and coverage only, no signature work.
  stage_start = Clock::now();
  const auto terms = merchant_.check_terms(req->package, *invoice, now_ms, escrow, outstanding);
  mark(Stage::kEvaluate);
  if (!terms.accepted) {
    return reject(terms.code, terms.reason);
  }

  // Stage: verify. Inside serve_batch every signature was checked by the
  // batch's verify pass and its verdict is read back here; a lone serve()
  // checks each one through the cached verify path (SigCache, then
  // precomp tables, then cold GLV) on this thread.
  const auto verdict = merchant_.verify_payment(req->package, *escrow, pass);
  mark(Stage::kVerify);
  if (!verdict.accepted) {
    return reject(verdict.code, verdict.reason);
  }

  // Stage: reserve. The per-escrow serialization point — the shard's
  // ledger decides atomically whether this payment still fits the
  // escrow's collateral (and the merchant's exposure cap) given every
  // concurrent winner. The hold lasts until the binding's own expiry:
  // the merchant is exposed for as long as the binding is disputable, so
  // releasing any earlier would undercount exposure and let later
  // payments overcommit. The hold is keyed by the payment's txid, so a
  // replay of an accepted frame gets no second one.
  RejectReason deny = RejectReason::kNone;
  const auto rid = sh.ledger.try_reserve(b.escrow_id, b.compensation, b.expiry_ms,
                                         merchant_.config().per_escrow_exposure_cap, &deny,
                                         b.btc_txid);
  mark(Stage::kReserve);
  if (deny == RejectReason::kDuplicatePayment) {
    return reject(deny, kDuplicateReason);
  }
  if (!rid) {
    return reject(deny, std::string("reservation denied: ") + core::describe(deny));
  }

  // Book claim. The merchant's book is bounded by claiming a slot on
  // the queued-accepts counter before anything is logged —
  // racing accepts across shards cannot overshoot max_pending_payments,
  // no cross-shard lock is taken, and a refusal writes nothing.
  const std::size_t limit = merchant_.config().max_pending_payments;
  const std::size_t claimed = queued_accepts_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (limit > 0 && merchant_.active_pending_count() + claimed > limit) {
    queued_accepts_.fetch_sub(1, std::memory_order_acq_rel);
    (void)sh.ledger.release(*rid);
    return reject(RejectReason::kPendingLimit, "merchant pending-payment limit reached");
  }

  // Stage: durability. The accept's one record — the hold and the
  // evidence the merchant disputes with: the package as the frame carried
  // it and the invoice — hits the WAL before the accept response exists,
  // so a crash after the commit recovers both the collateral hold and the
  // book entry. The record is only appended here; commit_batch commits
  // and quorum-gates the whole batch before any of its responses is built.
  std::uint64_t wal_us = 0;
  if (store_ != nullptr) {
    store::StoreRecord rec;
    rec.kind = store::RecordKind::kReserve;
    rec.reservation_id = *rid;
    rec.escrow_id = b.escrow_id;
    rec.amount = b.compensation;
    rec.expires_at_ms = b.expiry_ms;
    rec.txid = b.btc_txid.bytes;
    rec.accepted_at_ms = now_ms;
    rec.package = std::move(req->package_bytes);
    rec.invoice = invoice->serialize();
    const auto seq = store_->append(std::move(rec));
    if (!seq) {
      queued_accepts_.fetch_sub(1, std::memory_order_acq_rel);
      (void)sh.ledger.release(*rid);
      return reject(RejectReason::kOverloaded, "durable store commit failed");
    }
    batch.last_seq = std::max(batch.last_seq, *seq);
    wal_us = between_us(stage_start, Clock::now());
    stage_start = Clock::now();
  }

  Accepted a;
  a.package = std::move(req->package);
  a.invoice = *invoice;
  a.now_ms = now_ms;
  a.reservation_id = *rid;
  // The accept is decided. Its receipt is staged with the batch (a
  // GetReceipt later in the batch must see it, as it would after a
  // serve()); the queue push and the response wait for the commit.
  mark(Stage::kCommit);
  BatchCommit::Pending p;
  p.slot = batch.slot;
  p.request_id = frame.request_id;
  p.receipt = batch.receipts.size();
  record_receipt(batch, frame.request_id, true, RejectReason::kNone, now_ms);
  p.shard = shard_index(a.package.binding.binding.escrow_id);
  p.start = start;
  p.wal_us = wal_us;
  p.accepted = std::move(a);
  batch.accepts.push_back(std::move(p));
  return {};
}

Bytes Gateway::handle_query_escrow(const Frame& frame, std::uint64_t now_ms) {
  (void)now_ms;
  const auto req = QueryEscrowRequest::deserialize(frame.payload);
  if (!req) {
    ErrorResponse err;
    err.code = RejectReason::kMalformedFrame;
    err.message = "undecodable QueryEscrow payload";
    return make_frame(MsgType::kError, frame.request_id, err.serialize());
  }
  EscrowInfoResponse resp;
  (void)escrow_for(req->escrow_id);  // lazy mode: pull into the ledger
  if (const auto snap = shard_for(req->escrow_id).ledger.snapshot(req->escrow_id)) {
    resp.found = true;
    resp.state = static_cast<std::uint64_t>(snap->view.state);
    resp.collateral = snap->view.collateral;
    resp.reserved = snap->view.reserved + snap->local_reserved;
    resp.unlock_time_ms = snap->view.unlock_time_ms;
  }
  return make_frame(MsgType::kEscrowInfo, frame.request_id, resp.serialize());
}

Bytes Gateway::handle_get_receipt(const Frame& frame, const BatchCommit& batch) {
  const auto req = GetReceiptRequest::deserialize(frame.payload);
  if (!req) {
    ErrorResponse err;
    err.code = RejectReason::kMalformedFrame;
    err.message = "undecodable GetReceipt payload";
    return make_frame(MsgType::kError, frame.request_id, err.serialize());
  }
  ReceiptInfoResponse resp;  // found=false default
  // A decision earlier in this batch is not published until its commit;
  // it answers first, as it would after a serve() of that frame.
  const auto staged = std::find_if(batch.receipts.rbegin(), batch.receipts.rend(),
                                   [&](const auto& r) { return r.first == req->request_id; });
  if (staged != batch.receipts.rend()) {
    resp = staged->second;
  } else {
    Shard& sh = receipt_shard(req->request_id);
    std::lock_guard lock(sh.receipts_mu);
    if (auto it = sh.receipts.find(req->request_id); it != sh.receipts.end()) {
      resp = it->second;
    }
  }
  return make_frame(MsgType::kReceiptInfo, frame.request_id, resp.serialize());
}

std::vector<Bytes> Gateway::serve_batch(const std::vector<Bytes>& frames, std::uint64_t now_ms) {
  // Phase 1 (parallel): decode every frame once and collect the
  // signature checks the decisions below will need, in frame order.
  const auto pass_start = Clock::now();
  const std::size_t n = frames.size();
  std::vector<Decoded> decoded(n);
  std::vector<std::size_t> submit_frames;
  for (std::size_t i = 0; i < n; ++i) {
    decoded[i].frame = Frame::deserialize(frames[i]);
    if (decoded[i].frame && decoded[i].frame->type == MsgType::kSubmitFastPay) {
      submit_frames.push_back(i);
    }
  }
  // Only submits carry real decode and sighash work, so only they fan
  // out (a batch with one submit stays on this thread).
  std::vector<std::vector<crypto::SigCheckJob>> frame_jobs(n);
  pool_.parallel_for(submit_frames.size(), [&](std::size_t k) {
    const std::size_t i = submit_frames[k];
    Decoded& d = decoded[i];
    d.submit = SubmitFastPayRequest::deserialize(d.frame->payload);
    d.payload_decoded = true;
    if (!d.submit) return;
    const auto& pkg = d.submit->package;
    merchant_.collect_sig_checks(pkg, escrow_for(pkg.binding.binding.escrow_id), frame_jobs[i],
                                 &d.sigs);
  });
  std::vector<crypto::SigCheckJob> jobs;
  std::vector<std::size_t> jobs_end(n, 0);  // per frame: one past its last job, 0 if none
  std::uint64_t submits = 0;
  for (const std::size_t i : submit_frames) {
    if (!decoded[i].submit) continue;
    ++submits;
    const std::size_t base = jobs.size();
    core::SigJobIndex& at = decoded[i].sigs;
    if (at.binding != core::SigJobIndex::kNone) at.binding += base;
    for (auto& j : at.inputs) {
      if (j != core::SigJobIndex::kNone) j += base;
    }
    jobs.insert(jobs.end(), frame_jobs[i].begin(), frame_jobs[i].end());
    if (jobs.size() > base) jobs_end[i] = jobs.size();
  }

  // Phase 2: the verify pass's chunks run on the pool while this thread
  // decides the frames in input order — the same responses as a plain
  // serve() loop. A frame is decided once every chunk holding its jobs is
  // published (waiting for a chunk runs unclaimed ones here), and reads
  // each signature's verdict from the pass. Publishing in chunk order on
  // this thread keeps the verify caches the same at every pool size. The
  // time spent before the first decision and in these waits is the
  // kVerifyPass stage, split evenly across the submit frames.
  crypto::VerifyPass pass(pool_, jobs, &crypto::SigCache::global(),
                          &crypto::PubkeyPrecompCache::global());
  if (!jobs.empty()) verify_pass_.on_pass(jobs.size());
  auto chunks = pool_.fan_out(pass.chunk_count(), [&pass](std::size_t c) { pass.run_chunk(c); });
  std::size_t published = 0;
  const auto publish_through = [&](std::size_t need) {
    for (; published < need; ++published) {
      chunks.wait(published);
      pass.publish(published);
    }
  };
  std::uint64_t pass_us = elapsed_us(pass_start);

  // Accepts only append their WAL records; the batch commits once.
  BatchCommit batch;
  std::vector<Bytes> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (jobs_end[i] != 0 && published <= pass.chunk_of(jobs_end[i] - 1)) {
      const auto wait_start = Clock::now();
      publish_through(pass.chunk_of(jobs_end[i] - 1) + 1);
      pass_us += elapsed_us(wait_start);
    }
    batch.slot = i;
    const core::PassVerdicts verdicts{jobs, pass.results(), decoded[i].sigs};
    out[i] = serve_one(frames[i], &decoded[i], &verdicts, now_ms, batch);
  }
  publish_through(pass.chunk_count());  // every job belongs to a frame: nothing is left
  if (submits > 0) {
    const std::uint64_t share_us = (pass_us + submits / 2) / submits;
    for (std::uint64_t i = 0; i < submits; ++i) front_stats_.on_stage(Stage::kVerifyPass, share_us);
  }

  if (!commit_batch(batch, out, now_ms)) {
    // The undone accepts were visible to reads earlier in this batch
    // (their receipts, their escrow's reserved total). Answer the reads
    // again so no response shows an accept that did not survive.
    for (std::size_t i = 0; i < n; ++i) {
      const Decoded& d = decoded[i];
      if (d.frame &&
          (d.frame->type == MsgType::kQueryEscrow || d.frame->type == MsgType::kGetReceipt)) {
        out[i] = serve(frames[i], now_ms);
      }
    }
  }
  return out;
}

bool Gateway::commit_batch(BatchCommit& batch, std::vector<Bytes>& out, std::uint64_t now_ms) {
  // One group commit and one quorum round for every accept of the batch
  // (only accepts append records, so a batch with a record holds one).
  const auto t0 = Clock::now();
  bool committed = true;
  bool quorum = true;
  if (store_ != nullptr && batch.last_seq != 0) {
    committed = store_->commit();
    quorum = committed && (gate_ == nullptr || gate_->quorum_commit(batch.last_seq, now_ms));
  }
  if (!quorum) {
    const char* why = committed ? "replication quorum unreachable" : "durable store commit failed";
    // Undo every accept: hold released, book slot returned. After a
    // quorum failure the local log stays consistent — each reserve is
    // followed by a rejected-release, and both ship once followers
    // return (a failed local commit logs nothing more).
    for (auto& p : batch.accepts) {
      Shard& sh = *shards_[p.shard];
      const ReservationId rid = p.accepted.reservation_id;
      (void)sh.ledger.release(rid);
      queued_accepts_.fetch_sub(1, std::memory_order_acq_rel);
      if (committed) {
        store::StoreRecord rel;
        rel.kind = store::RecordKind::kRelease;
        rel.reservation_id = rid;
        rel.cause = store::ReleaseCause::kRejected;
        (void)store_->append(rel);
      }
      if (p.receipt < batch.receipts.size()) {
        batch.receipts[p.receipt].second.accepted = false;
        batch.receipts[p.receipt].second.code = RejectReason::kOverloaded;
      }
      FastPayResultResponse resp;
      resp.accepted = false;
      resp.code = RejectReason::kOverloaded;
      resp.reason = why;
      out[p.slot] = make_frame(MsgType::kFastPayResult, p.request_id, resp.serialize());
      sh.stats.on_reject(RejectReason::kOverloaded, elapsed_us(p.start));
    }
    if (committed) (void)store_->commit();
    publish_receipts(batch);
    return false;
  }
  const std::uint64_t commit_us = elapsed_us(t0);
  const std::size_t count = batch.accepts.size();
  publish_receipts(batch);
  for (auto& p : batch.accepts) {
    Shard& sh = *shards_[p.shard];
    const ReservationId rid = p.accepted.reservation_id;
    if (store_ != nullptr) {
      sh.stats.on_stage(Stage::kWal, p.wal_us + (commit_us + count / 2) / count);
    }
    {
      std::lock_guard lock(sh.commit_mu);
      sh.commit_queue.push_back(std::move(p.accepted));
    }
    const auto t = Clock::now();
    FastPayResultResponse resp;
    resp.accepted = true;
    resp.code = RejectReason::kNone;
    resp.reservation_id = rid;
    out[p.slot] = make_frame(MsgType::kFastPayResult, p.request_id, resp.serialize());
    sh.stats.on_stage(Stage::kRespond, elapsed_us(t));
    sh.stats.on_accept(elapsed_us(p.start));
  }
  return true;
}

std::vector<psc::PscTx> Gateway::flush_accepted(std::uint64_t /*now_ms*/) {
  // Seal the epoch: swap out every shard's queue. Items accepted after
  // this point land in the next epoch. Every accept in it is already
  // durable — its one WAL record was committed and quorum-gated before
  // its response — so the flush only applies.
  std::vector<std::vector<Accepted>> epoch(shards_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard lock(shards_[i]->commit_mu);
    epoch[i].swap(shards_[i]->commit_queue);
    total += epoch[i].size();
  }
  if (total > 0) queued_accepts_.fetch_sub(total, std::memory_order_acq_rel);

  // Apply merchant bookkeeping deterministically: shard order, then
  // queue order. The merchant book and BTC broadcast are not
  // thread-safe, and a parallel apply would make broadcast order depend
  // on scheduling — this stays the control thread's job by design.
  std::vector<psc::PscTx> actions;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (auto& a : epoch[i]) {
      auto txs = merchant_.accept_payment(std::move(a.package), std::move(a.invoice), a.now_ms);
      for (auto& tx : txs) actions.push_back(std::move(tx));
    }
  }
  return actions;
}

void Gateway::reconcile(std::uint64_t now_ms) {
  // Refresh every tracked escrow from authoritative contract state. A
  // reorg that shrank collateral, a judged dispute, a topped-up escrow —
  // all become visible to try_reserve here.
  std::vector<EscrowId> ids;
  {
    std::lock_guard lock(tracked_mu_);
    ids.assign(tracked_.begin(), tracked_.end());
  }
  for (const EscrowId id : ids) {
    if (const auto view = merchant_.escrow_view(id)) shard_for(id).ledger.upsert_escrow(id, *view);
  }

  // Release reservations whose payments resolved (settled on BTC or
  // judged on PSC) — the merchant book is the source of truth, and each
  // hold is keyed by its payment's txid.
  bool logged = false;
  auto log_release = [&](ReservationId rid, store::ReleaseCause cause) {
    if (store_ == nullptr) return;
    store::StoreRecord rec;
    rec.kind = store::RecordKind::kRelease;
    rec.reservation_id = rid;
    rec.cause = cause;
    (void)store_->append(rec);
    logged = true;
  };
  for (const auto& p : merchant_.pending()) {
    if (!p.settled && !p.judged) continue;
    const core::PaymentBinding& b = p.package.binding.binding;
    if (const auto rid = shard_for(b.escrow_id).ledger.release_payment(b.escrow_id, b.btc_txid)) {
      log_release(*rid, store::ReleaseCause::kResolved);
    }
  }

  // Drop reservations past their deadline: the binding can no longer be
  // disputed, so the collateral hold serves nobody.
  std::vector<ReservationId> expired;
  for (auto& shard : shards_) (void)shard->ledger.expire_due(now_ms, &expired);
  for (const ReservationId rid : expired) log_release(rid, store::ReleaseCause::kExpired);
  if (logged) (void)store_->commit();
}

GatewayStats Gateway::stats() const {
  GatewayStats out(front_stats_);
  for (const auto& shard : shards_) out.accumulate(shard->stats);
  return out;
}

std::string Gateway::stats_json(const std::vector<StatsSection>& extra) const {
  std::vector<StatsSection> sections;
  if (store_ != nullptr) {
    sections.push_back({"store",
                        {{"wal_appends", store_->wal_appends()},
                         {"fsyncs", store_->wal_syncs()},
                         {"recovery_replayed_records", store_->recovery().replayed_records},
                         {"snapshot_bytes", store_->snapshot_bytes()}},
                        {}});
  }
  // The crypto caches are process-wide: their counters show verify-cache
  // efficacy next to the serving counters.
  const auto cache = [](const char* name, const auto& s) {
    return StatsSection{name,
                        {{"hits", s.hits},
                         {"misses", s.misses},
                         {"insertions", s.insertions},
                         {"evictions", s.evictions}},
                        {}};
  };
  sections.push_back({"caches",
                      {},
                      {cache("sigcache", crypto::SigCache::global().stats()),
                       cache("pubkey_precomp", crypto::PubkeyPrecompCache::global().stats())}});
  sections.insert(sections.end(), extra.begin(), extra.end());
  return stats().to_json(sections);
}

const GatewayStats& Gateway::shard_stats(std::size_t i) const {
  return shards_[i % shards_.size()]->stats;
}

void Gateway::reset_stats() {
  front_stats_.reset();
  for (auto& shard : shards_) shard->stats.reset();
}

std::optional<ReservationLedger::EscrowSnapshot> Gateway::escrow_snapshot(EscrowId id) const {
  return shard_for(id).ledger.snapshot(id);
}

std::uint64_t Gateway::reservations_granted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->ledger.total_granted();
  return n;
}

std::uint64_t Gateway::reservations_denied() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->ledger.total_denied();
  return n;
}

std::uint64_t Gateway::reservations_released() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->ledger.total_released();
  return n;
}

std::uint64_t Gateway::reservations_expired() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->ledger.total_expired();
  return n;
}

std::size_t Gateway::commit_queue_depth() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->commit_mu);
    n += shard->commit_queue.size();
  }
  return n;
}

}  // namespace btcfast::gateway
