#include "replication/failover.h"

#include <algorithm>

namespace btcfast::replication {
namespace {

LogShipper::Options shipper_options(const ReplicationConfig& config) {
  LogShipper::Options o;
  o.max_batch_records = config.max_batch_records;
  o.max_buffer_records = config.max_buffer_records;
  o.retry_backoff_ms = config.retry_backoff_ms;
  o.max_backoff_ms = config.max_backoff_ms;
  return o;
}

}  // namespace

Promotion promote_follower(Follower& follower, std::uint64_t new_epoch) {
  Promotion out;
  out.epoch = new_epoch;

  // Fence before anything else: if we crash mid-promotion, the node must
  // already be deaf to the deposed primary when it comes back.
  if (!follower.fence(new_epoch)) {
    out.error = "cannot persist fence epoch";
    return out;
  }

  const std::string dir = follower.dir();
  {
    // Close the replica's store so the reopen below replays its WAL and
    // snapshot from disk — the same recovery path a crashed primary
    // takes, which is exactly the byte-exactness claim being extended.
    auto old = follower.take_store();
    old.reset();
  }
  store::StoreOptions opts;
  opts.policy = store::FsyncPolicy::kAlways;  // promotion is rare; be durable
  store::RecoveryInfo info;
  auto promoted = store::DurableStore::open(dir, opts, &info);
  if (promoted == nullptr) {
    out.error = "promotion replay failed: " + info.error;
    return out;
  }
  out.promoted_seq = promoted->last_committed_seq();

  store::StoreRecord rec;
  rec.kind = store::RecordKind::kEpochChange;
  rec.epoch = new_epoch;
  if (!promoted->append(rec) || !promoted->sync()) {
    out.error = "cannot commit epoch-change record";
    return out;
  }
  out.store = std::move(promoted);
  return out;
}

ReplicationGroup::ReplicationGroup(ReplicationConfig config)
    : config_(config), shipper_(shipper_options(config)) {}

void ReplicationGroup::attach_primary(store::DurableStore* primary) {
  std::lock_guard lock(mu_);
  shipper_.attach_primary(primary);
}

void ReplicationGroup::detach_primary() {
  std::lock_guard lock(mu_);
  shipper_.detach_primary();
}

std::size_t ReplicationGroup::add_follower(FollowerLink* link) {
  std::lock_guard lock(mu_);
  return shipper_.add_follower(link);
}

void ReplicationGroup::remove_follower(std::size_t index) {
  std::lock_guard lock(mu_);
  shipper_.remove_follower(index);
}

bool ReplicationGroup::quorum_commit(std::uint64_t seq, std::uint64_t now_ms) {
  std::lock_guard lock(mu_);
  now_floor_ = std::max(now_floor_, now_ms);
  if (config_.quorum == 0) {
    if (!shipper_.fenced_out()) {
      // Ungated, but still stream to whatever followers exist so they
      // trail the primary closely.
      shipper_.pump(now_floor_);
      acked_high_ = std::max(acked_high_, seq);
      return true;
    }
    return false;  // a deposed primary must stop acking even ungated
  }
  for (std::size_t attempt = 0; attempt < std::max<std::size_t>(config_.quorum_attempts, 1);
       ++attempt) {
    shipper_.pump(now_floor_);
    if (shipper_.fenced_out()) break;
    if (shipper_.acked_watermark(config_.quorum) >= seq) {
      acked_high_ = std::max(acked_high_, seq);
      return true;
    }
    // Step the clock past one backoff so a momentarily-down follower is
    // retried within this call instead of failing the client.
    now_floor_ += config_.retry_backoff_ms + 1;
  }
  ++quorum_failures_;
  return false;
}

void ReplicationGroup::pump(std::uint64_t now_ms) {
  std::lock_guard lock(mu_);
  now_floor_ = std::max(now_floor_, now_ms);
  shipper_.pump(now_floor_);
}

PromotionPlan ReplicationGroup::plan_promotion() {
  std::lock_guard lock(mu_);
  PromotionPlan plan;
  auto cursors = shipper_.query_cursors();
  bool found = false;
  std::uint64_t best_epoch = 0;
  std::uint64_t best_seq = 0;
  std::uint64_t max_epoch = shipper_.epoch();
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (!cursors[i]) continue;
    const auto& c = *cursors[i];
    max_epoch = std::max(max_epoch, c.epoch);
    if (!found || c.epoch > best_epoch || (c.epoch == best_epoch && c.last_seq > best_seq)) {
      found = true;
      best_epoch = c.epoch;
      best_seq = c.last_seq;
      plan.index = i;
    }
  }
  if (!found) {
    plan.error = "no reachable follower to promote";
    return plan;
  }
  plan.new_epoch = max_epoch + 1;
  plan.promoted_seq = best_seq;
  return plan;
}

std::size_t ReplicationGroup::fence_followers(std::uint64_t epoch) {
  std::lock_guard lock(mu_);
  std::size_t fenced = 0;
  for (std::size_t i = 0; i < shipper_.slot_count(); ++i) {
    FollowerLink* link = shipper_.follower_link(i);
    if (link != nullptr && link->fence(epoch)) ++fenced;  // best effort
  }
  return fenced;
}

std::uint64_t ReplicationGroup::acked_high() const {
  std::lock_guard lock(mu_);
  return acked_high_;
}

std::uint64_t ReplicationGroup::epoch() const {
  std::lock_guard lock(mu_);
  return shipper_.epoch();
}

ReplicationStats ReplicationGroup::stats() const {
  std::lock_guard lock(mu_);
  ReplicationStats s;
  const ShipStats ship = shipper_.stats();
  s.epoch = shipper_.epoch();
  s.followers = shipper_.follower_count();
  s.quorum = config_.quorum;
  s.acked_watermark = config_.quorum > 0 ? shipper_.acked_watermark(config_.quorum) : 0;
  s.acked_high = acked_high_;
  s.batches_shipped = ship.batches_shipped;
  s.records_shipped = ship.records_shipped;
  s.ship_failures = ship.ship_failures;
  s.snapshot_installs = ship.snapshot_installs;
  s.quorum_failures = quorum_failures_;
  s.fenced_out = shipper_.fenced_out();
  return s;
}

gateway::StatsSection ReplicationGroup::stats_section() const {
  const ReplicationStats s = stats();
  return {"replication",
          {{"epoch", s.epoch},
           {"followers", s.followers},
           {"quorum", s.quorum},
           {"acked_seq", s.acked_watermark},
           {"batches_shipped", s.batches_shipped},
           {"ship_failures", s.ship_failures},
           {"snapshot_installs", s.snapshot_installs}},
          {}};
}

}  // namespace btcfast::replication
