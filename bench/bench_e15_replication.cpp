// E15 — Replication cost and failover: measures what quorum-gated
// acknowledgement charges the serving path (acks/s at quorum 0/1/2 over
// WAL-shipping followers), how fast a deposed primary's role moves (wall
// time from failover decision to the promoted store accepting its first
// quorum-gated record, with a byte-exactness audit of the promoted
// state), and how quickly a rejoining follower drains its backlog.
// Emits BENCH_e15_replication.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_table.h"
#include "replication/failover.h"
#include "replication/follower.h"
#include "replication/log_ship.h"
#include "store/recovery.h"
#include "store/snapshot.h"

using namespace btcfast;

namespace {

namespace fs = std::filesystem;

double elapsed_us(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(b - a).count();
}

std::string scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("btcfast-bench-e15-" + tag + "-" +
                      std::to_string(static_cast<unsigned long>(::getpid())));
  fs::remove_all(p);
  return p.string();
}

store::StoreRecord reserve_rec(std::uint64_t rid) {
  store::StoreRecord r;
  r.kind = store::RecordKind::kReserve;
  r.reservation_id = rid;
  r.escrow_id = 1 + (rid % 8);
  r.amount = 1'000'000;
  r.expires_at_ms = 600'000 + rid;
  r.txid[0] = static_cast<std::uint8_t>(rid);
  r.txid[1] = static_cast<std::uint8_t>(rid >> 8);
  return r;
}

store::StoreRecord release_rec(std::uint64_t rid) {
  store::StoreRecord r;
  r.kind = store::RecordKind::kRelease;
  r.reservation_id = rid;
  r.cause = store::ReleaseCause::kResolved;
  return r;
}

/// One payment's WAL footprint, E12's idiom: a reserve/release pair per
/// iteration keeps the live book tiny, so the numbers measure the log
/// and the shipping protocol, not the live book.
bool append_pair(store::DurableStore& st, std::uint64_t i, std::uint64_t* seq_out) {
  if (!st.append(reserve_rec(i))) return false;
  const auto seq = st.append(release_rec(i));
  if (!seq) return false;
  *seq_out = *seq;
  return true;
}

/// Drive the shipper to convergence: pump() is bounded per call (64
/// batches per follower), so a deep backlog needs several rounds. The
/// advancing clock steps past any retry backoff.
bool pump_until(replication::LogShipper& shipper, const replication::Follower& f,
                std::uint64_t target_seq) {
  for (std::uint64_t round = 0; round < 10'000; ++round) {
    if (f.cursor().last_seq >= target_seq) return true;
    shipper.pump(1'000'000 + round * 3'000);
  }
  return f.cursor().last_seq >= target_seq;
}

store::StoreOptions no_fsync() {
  store::StoreOptions o;
  o.policy = store::FsyncPolicy::kNone;
  return o;
}

/// Primary + N followers over in-process links, fsync-free: the bench
/// isolates replication protocol cost, not disk latency (E12 covers
/// that axis).
struct Cluster {
  std::unique_ptr<store::DurableStore> primary;
  std::vector<std::unique_ptr<replication::Follower>> followers;
  std::vector<std::unique_ptr<replication::LocalFollowerLink>> links;
  std::vector<std::string> dirs;
  std::string primary_dir;

  static Cluster make(const std::string& tag, std::size_t n_followers) {
    Cluster c;
    c.primary_dir = scratch_dir(tag + "-primary");
    c.primary = store::DurableStore::open(c.primary_dir, no_fsync());
    for (std::size_t i = 0; i < n_followers; ++i) {
      c.dirs.push_back(scratch_dir(tag + "-f" + std::to_string(i)));
      replication::Follower::Options fopts;
      fopts.store = no_fsync();
      c.followers.push_back(replication::Follower::open(c.dirs[i], fopts));
      c.links.push_back(std::make_unique<replication::LocalFollowerLink>(c.followers[i].get()));
    }
    return c;
  }

  Cluster() = default;
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;
  ~Cluster() {
    for (const auto& d : dirs) fs::remove_all(d);
    if (!primary_dir.empty()) fs::remove_all(primary_dir);
  }
};

/// Byte-exact control: replay the primary's WAL to `upto` and compare
/// against the promoted image (whose epoch the promotion itself wrote).
bool promoted_is_exact(store::DurableStore& primary, store::DurableStore& promoted,
                       std::uint64_t upto, std::uint64_t new_epoch,
                       const store::StoreRecord* post_failover_rec) {
  store::IndexedImage replay;
  const auto scan = primary.read_range(1, 1 << 22);
  if (!scan.ok() || scan.pruned) return false;
  for (const auto& wr : scan.records) {
    if (wr.seq > upto) break;
    const auto rec = store::StoreRecord::deserialize(wr.payload);
    if (!rec || !replay.apply(*rec, wr.seq)) return false;
  }
  // The promoted log continues past the carried-over prefix with the
  // kEpochChange record and any records accepted after the switch (a
  // reserve, which does not depend on the epoch).
  if (post_failover_rec != nullptr &&
      !replay.apply(*post_failover_rec, promoted.last_committed_seq())) {
    return false;
  }
  store::StateImage want = replay.image();
  want.epoch = new_epoch;
  want.last_seq = promoted.last_committed_seq();
  return promoted.image_copy().serialize() == want.serialize();
}

}  // namespace

int main() {
  // BTCFAST_E15_SMOKE=1 shrinks the run for the tier-1 smoke gate.
  const bool smoke = std::getenv("BTCFAST_E15_SMOKE") != nullptr;
  const std::uint64_t ack_records = smoke ? 2'000 : 50'000;
  const std::uint64_t backlog_records = smoke ? 2'000 : 100'000;

  std::printf("# E15 — replication: quorum ack cost and failover%s\n\n", smoke ? " (smoke)" : "");

  bench::JsonDoc doc;
  doc.set("experiment", "e15_replication");
  doc.set("smoke", smoke ? "yes" : "no");

  // -------------------------------------------- quorum ack throughput
  // One reserve/release pair per iteration, commit + quorum_commit every
  // time — the exact durability sequence the gateway's accept path pays.
  // Two followers throughout; only the required ack count varies.
  bench::Table ack_table({"quorum", "payments", "acks/s", "batches shipped", "records shipped"});
  std::uint64_t quorum_acks = 0;
  for (std::size_t quorum = 0; quorum <= 2; ++quorum) {
    Cluster c = Cluster::make("ack-q" + std::to_string(quorum), 2);
    replication::ReplicationConfig rcfg;
    rcfg.quorum = quorum;
    replication::ReplicationGroup group(rcfg);
    group.attach_primary(c.primary.get());
    for (auto& link : c.links) group.add_follower(link.get());

    std::uint64_t acks = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 1; i <= ack_records; ++i) {
      std::uint64_t seq = 0;
      if (!append_pair(*c.primary, i, &seq) || !c.primary->commit()) return 1;
      if (group.quorum_commit(seq, i)) ++acks;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double acks_s = static_cast<double>(acks) / (elapsed_us(t0, t1) / 1e6);
    const auto stats = group.stats();
    ack_table.row({bench::fmt_u(quorum), bench::fmt_u(ack_records), bench::fmt(acks_s, 0),
                   bench::fmt_u(stats.batches_shipped), bench::fmt_u(stats.records_shipped)});
    doc.set("quorum" + std::to_string(quorum) + "_acks_per_s", acks_s);
    if (quorum > 0) quorum_acks += acks;
    group.detach_primary();
  }
  ack_table.print();
  doc.set("quorum_gated_acks", quorum_acks);

  // ------------------------------------------ failover time-to-accept
  // Build a quorum-acked history, depose the primary, promote the best
  // follower and measure the wall time until the promoted store accepts
  // its first quorum-gated record from the surviving follower set.
  const std::uint64_t history = smoke ? 1'000 : 20'000;
  bool failover_exact = true;
  double failover_ms = 0;
  {
    Cluster c = Cluster::make("failover", 2);
    replication::ReplicationConfig rcfg;
    rcfg.quorum = 1;
    replication::ReplicationGroup group(rcfg);
    group.attach_primary(c.primary.get());
    for (auto& link : c.links) group.add_follower(link.get());
    for (std::uint64_t i = 1; i <= history; ++i) {
      std::uint64_t seq = 0;
      if (!append_pair(*c.primary, i, &seq) || !c.primary->commit() ||
          !group.quorum_commit(seq, i)) {
        return 1;
      }
    }
    const std::uint64_t acked_high = group.acked_high();

    const auto t0 = std::chrono::steady_clock::now();
    const auto plan = group.plan_promotion();
    if (!plan.ok()) return 1;
    group.detach_primary();
    auto promo = replication::promote_follower(*c.followers[plan.index], plan.new_epoch);
    if (!promo.ok() || promo.promoted_seq < acked_high) return 1;

    // The promoted store takes over with the surviving follower.
    replication::ReplicationGroup after(rcfg);
    after.attach_primary(promo.store.get());
    const std::size_t survivor = plan.index == 0 ? 1 : 0;
    after.add_follower(c.links[survivor].get());
    (void)after.fence_followers(after.epoch());
    const auto seq = promo.store->append(reserve_rec(history + 1));
    if (!seq || !promo.store->commit() || !after.quorum_commit(*seq, history + 1)) return 1;
    const auto t1 = std::chrono::steady_clock::now();
    failover_ms = elapsed_us(t0, t1) / 1e3;

    const auto accepted = reserve_rec(history + 1);
    failover_exact = promoted_is_exact(*c.primary, *promo.store, promo.promoted_seq,
                                       plan.new_epoch, &accepted);
    after.detach_primary();
  }
  std::printf("\n# failover: time to first quorum-gated accept = %.3f ms (exact: %s)\n",
              failover_ms, failover_exact ? "yes" : "NO");
  doc.set("failover_ms", failover_ms);
  doc.set("failover_exact", failover_exact ? "yes" : "no");
  doc.set("failover_history_payments", history);

  // --------------------------------------------------- catch-up drain
  // A follower misses `backlog_records`, rejoins, and the shipper drains
  // the delta from the primary's on-disk segments.
  double catchup_rate = 0;
  {
    Cluster c = Cluster::make("catchup", 1);
    replication::LogShipper shipper(replication::LogShipper::Options{});
    shipper.attach_primary(c.primary.get());
    shipper.add_follower(c.links[0].get());
    c.links[0]->set_down(true);
    for (std::uint64_t i = 1; i <= backlog_records / 2; ++i) {
      std::uint64_t seq = 0;
      if (!append_pair(*c.primary, i, &seq)) return 1;
      if (i % 16 == 0) (void)c.primary->commit();
    }
    (void)c.primary->commit();
    c.links[0]->set_down(false);

    const auto t0 = std::chrono::steady_clock::now();
    const bool converged = pump_until(shipper, *c.followers[0], c.primary->last_committed_seq());
    const auto t1 = std::chrono::steady_clock::now();
    if (!converged) {
      std::fprintf(stderr, "catch-up did not converge\n");
      return 1;
    }
    catchup_rate = static_cast<double>(backlog_records) / (elapsed_us(t0, t1) / 1e6);
    shipper.detach_primary();
  }
  std::printf("# catch-up: %.0f records/s over a %llu-record backlog\n", catchup_rate,
              static_cast<unsigned long long>(backlog_records));
  doc.set("catchup_records_per_s", catchup_rate);
  doc.set("catchup_backlog_records", backlog_records);

  doc.add_table("quorum_acks", ack_table);
  doc.write("BENCH_e15_replication.json");
  return failover_exact ? 0 : 1;
}
