// E12 — Durability cost and recovery scaling: measures what the durable
// state store charges the serving path (appends/s and commit latency
// under each fsync policy, and the group-commit amortization curve) and
// what a crash costs at restart (recovery time vs WAL length, with and
// without snapshot compaction bounding the replay suffix). Emits
// BENCH_e12_durability.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_table.h"
#include "store/recovery.h"

using namespace btcfast;

namespace {

namespace fs = std::filesystem;

double elapsed_us(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(b - a).count();
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size() - 1));
  return v[idx];
}

std::string scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("btcfast-bench-e12-" + tag + "-" +
                      std::to_string(static_cast<unsigned long>(::getpid())));
  fs::remove_all(p);
  return p.string();
}

/// The serving path's commonest record shape: a collateral hold.
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

const char* policy_name(store::FsyncPolicy p) {
  switch (p) {
    case store::FsyncPolicy::kAlways: return "always";
    case store::FsyncPolicy::kBatch: return "batch";
    case store::FsyncPolicy::kNone: return "none";
  }
  return "?";
}

}  // namespace

int main() {
  // BTCFAST_DURABILITY_SMOKE=1 shrinks the run for the tier-1 smoke gate.
  const bool smoke = std::getenv("BTCFAST_DURABILITY_SMOKE") != nullptr;

  // ------------------------------------------------- append throughput
  // One reserve/release pair per iteration (the image stays tiny, so
  // this measures the log, not the image), commit after every pair —
  // the ack-time durability point the gateway pays on the serving path.
  struct PolicyRun {
    store::FsyncPolicy policy;
    std::size_t pairs;
  };
  const std::vector<PolicyRun> policy_runs = {
      // fsync-per-commit is milliseconds on real disks: keep it short.
      {store::FsyncPolicy::kAlways, smoke ? std::size_t{32} : std::size_t{256}},
      {store::FsyncPolicy::kBatch, smoke ? std::size_t{512} : std::size_t{4096}},
      {store::FsyncPolicy::kNone, smoke ? std::size_t{1024} : std::size_t{16384}},
  };

  std::printf("# E12 — durable store: fsync policy cost%s\n\n", smoke ? " (smoke)" : "");

  bench::Table append_table(
      {"policy", "commits", "appends/s", "commit p50 (us)", "commit p99 (us)", "fsyncs"});
  bench::JsonDoc doc;
  doc.set("experiment", "e12_durability");
  doc.set("smoke", smoke ? "yes" : "no");

  for (const auto& run : policy_runs) {
    const std::string dir = scratch_dir(std::string("policy-") + policy_name(run.policy));
    store::StoreOptions opts;
    opts.policy = run.policy;
    opts.batch_records = 32;
    auto st = store::DurableStore::open(dir, opts);
    if (st == nullptr) {
      std::fprintf(stderr, "cannot open store in %s\n", dir.c_str());
      return 1;
    }
    std::vector<double> commit_us;
    commit_us.reserve(run.pairs);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < run.pairs; ++i) {
      (void)st->append(reserve_rec(i + 1));
      (void)st->append(release_rec(i + 1));
      const auto c0 = std::chrono::steady_clock::now();
      if (!st->commit()) {
        std::fprintf(stderr, "commit failed (policy %s)\n", policy_name(run.policy));
        return 1;
      }
      commit_us.push_back(elapsed_us(c0, std::chrono::steady_clock::now()));
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_us = elapsed_us(t0, t1);
    const double appends_s = static_cast<double>(st->wal_appends()) / (wall_us / 1e6);
    append_table.row({policy_name(run.policy), bench::fmt_u(run.pairs), bench::fmt(appends_s, 0),
                      bench::fmt(percentile(commit_us, 50), 2),
                      bench::fmt(percentile(commit_us, 99), 2), bench::fmt_u(st->wal_syncs())});
    doc.set(std::string("appends_per_s_") + policy_name(run.policy), appends_s);
    st.reset();
    fs::remove_all(dir);
  }
  append_table.print();

  // ----------------------------------------------- group-commit batching
  // kBatch amortizes one fsync across the batch: sweep the batch size at
  // a fixed record count and report per-record cost.
  const std::size_t group_records = smoke ? 1024 : 8192;
  const std::vector<std::size_t> batch_sizes = {1, 8, 32, 128};
  bench::Table group_table({"batch records", "appends/s", "fsyncs", "us/record"});
  for (const std::size_t batch : batch_sizes) {
    const std::string dir = scratch_dir("group-" + std::to_string(batch));
    store::StoreOptions opts;
    opts.policy = store::FsyncPolicy::kBatch;
    opts.batch_records = batch;
    auto st = store::DurableStore::open(dir, opts);
    if (st == nullptr) return 1;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < group_records; i += 2) {
      (void)st->append(reserve_rec(i + 1));
      (void)st->append(release_rec(i + 1));
      (void)st->commit();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_us = elapsed_us(t0, t1);
    const double appends_s = static_cast<double>(st->wal_appends()) / (wall_us / 1e6);
    group_table.row({bench::fmt_u(batch), bench::fmt(appends_s, 0), bench::fmt_u(st->wal_syncs()),
                     bench::fmt(wall_us / static_cast<double>(group_records), 3)});
    st.reset();
    fs::remove_all(dir);
  }
  std::printf("\n# group commit (batch policy, %zu records)\n", group_records);
  group_table.print();

  // ---------------------------------------------------- recovery scaling
  // Build logs of increasing length, then measure a cold open. The
  // snapshot variant compacts every 1024 records, so its replay suffix —
  // and therefore its recovery time — stays flat as the log grows.
  const std::vector<std::size_t> log_lengths =
      smoke ? std::vector<std::size_t>{256, 1024} : std::vector<std::size_t>{1024, 4096, 16384};
  bench::Table recovery_table({"records", "snapshot", "recovery (ms)", "replayed", "records/s"});
  bool recovery_ok = true;
  for (const bool with_snapshot : {false, true}) {
    for (const std::size_t len : log_lengths) {
      const std::string dir =
          scratch_dir("recover-" + std::to_string(len) + (with_snapshot ? "-snap" : "-wal"));
      store::StoreOptions opts;
      opts.policy = store::FsyncPolicy::kNone;
      opts.snapshot_every = with_snapshot ? 1024 : 0;
      {
        auto st = store::DurableStore::open(dir, opts);
        if (st == nullptr) return 1;
        for (std::uint64_t i = 0; i < len; i += 2) {
          (void)st->append(reserve_rec(i + 1));
          (void)st->append(release_rec(i + 1));
        }
        (void)st->sync();
      }
      store::RecoveryInfo info;
      const auto t0 = std::chrono::steady_clock::now();
      auto st = store::DurableStore::open(dir, opts, &info);
      const auto t1 = std::chrono::steady_clock::now();
      if (st == nullptr) {
        std::fprintf(stderr, "recovery failed: %s\n", info.error.c_str());
        return 1;
      }
      // The recovered image must be the empty book (every pair released).
      if (!st->image_copy().reservations.empty()) recovery_ok = false;
      if (with_snapshot && info.replayed_records > 1024) recovery_ok = false;
      const double ms = elapsed_us(t0, t1) / 1e3;
      const double rate = static_cast<double>(len) / (ms / 1e3);
      recovery_table.row({bench::fmt_u(len), with_snapshot ? "yes" : "no", bench::fmt(ms, 3),
                          bench::fmt_u(info.replayed_records), bench::fmt(rate, 0)});
      if (!with_snapshot && len == log_lengths.back()) {
        doc.set("recovery_ms_longest_wal", ms);
      }
      st.reset();
      fs::remove_all(dir);
    }
  }
  std::printf("\n# recovery scaling (fsync none; snapshot_every=1024 when on)\n");
  recovery_table.print();
  std::printf("\n# recovery invariant (image exact, snapshot bounds replay): %s\n",
              recovery_ok ? "yes" : "NO");

  doc.set("group_records", static_cast<std::uint64_t>(group_records));
  doc.set("recovery_ok", recovery_ok ? "yes" : "no");
  doc.add_table("append_throughput", append_table);
  doc.add_table("group_commit", group_table);
  doc.add_table("recovery_scaling", recovery_table);
  doc.write("BENCH_e12_durability.json");
  return recovery_ok ? 0 : 1;
}
