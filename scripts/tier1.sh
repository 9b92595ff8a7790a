#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite.
#
# Usage: scripts/tier1.sh [preset] [--bench-smoke] [--kernel-sanitize]
#                         [--fuzz-smoke] [--scenario-fuzz [N]] [--gateway-smoke]
#                         [--store-smoke] [--verify-smoke] [--net-smoke]
#                         [--dispute-smoke] [--replication-smoke]
#   preset             "default" (the gate), or "tsan"/"asan"/"ubsan" for a
#                      full sanitizer suite run.
#   --bench-smoke      after the tests, run every bench (one per
#                      bench/bench_*.cpp source) once (the
#                      google-benchmark suite at its minimum iteration
#                      budget, the bounded hand-timed harnesses at full
#                      length) in a scratch cwd — catches bench bit-rot
#                      without touching the curated BENCH_*.json artifacts.
#   --kernel-sanitize  additionally build the asan and ubsan trees and run
#                      the hashing-kernel + crypto tests there. Sanitizer
#                      builds pin the scalar SHA-256 fallback
#                      (BTCFAST_FORCE_SCALAR_SHA256), so this is what keeps
#                      the portable kernel honest while the default build
#                      dispatches to SHA-NI.
#   --fuzz-smoke       build the asan and ubsan trees and run the decoder
#                      fuzz tests at a fixed 10k-iteration corpus per
#                      decoder (BTCFAST_FUZZ_ITERS=2000 across the suite's
#                      5 fixed seeds) — the promoted version of the quick
#                      default-build fuzz pass.
#   --scenario-fuzz [N]
#                      run the adversarial scenario fuzzer over N seeds
#                      (default 25) in the current preset's tree. On an
#                      invariant violation the harness prints a one-line
#                      repro ("fuzz_scenario_test --replay <seed>") and a
#                      minimized event trace, and this script fails.
#   --gateway-smoke    run the gateway serving bench in its short
#                      configuration (BTCFAST_GATEWAY_SMOKE: 1 thread vs
#                      one thread per hardware thread) in a scratch cwd and
#                      assert the multi-thread run scales by at least
#                      BTCFAST_GATEWAY_SCALE_FACTOR (default half the
#                      hardware thread count) over the 1-thread run.
#                      Then build the asan and ubsan trees and run the
#                      gateway tests plus the wire-decoder fuzz corpus
#                      (BTCFAST_FUZZ_ITERS=2000) there, and build the tsan
#                      tree and run the gateway, net, concurrency, psc
#                      and thread-pool suites there (the default serving
#                      path is concurrent: a Deployment sizes the verify
#                      pool to the hardware).
#   --store-smoke      the durability gate: run the full recovery + fault
#                      suite (store_test) and the WAL/snapshot corruption
#                      fuzz corpus (BTCFAST_FUZZ_ITERS=2000) under both
#                      memory sanitizers, plus the durability bench in its
#                      short configuration (BTCFAST_DURABILITY_SMOKE) in a
#                      scratch cwd.
#   --net-smoke        the TCP front-end gate: run the network torture
#                      suite (net_test) and the frame-reassembly fuzz
#                      corpus (BTCFAST_FUZZ_ITERS=2000) under both memory
#                      sanitizers. The loopback load itself is measured
#                      by the full-stack benchmark (perfbench/).
#   --dispute-smoke    the dispute-storm gate: run the storm parity +
#                      header-index + header-sync suite (dispute_test) and
#                      the dispute fuzz corpus (BTCFAST_FUZZ_ITERS=2000)
#                      under both memory sanitizers, then the storm bench
#                      in its short configuration (BTCFAST_E14_SMOKE) in a
#                      scratch cwd, asserting disputes/s > 0, a nonzero
#                      dedup hit rate on the shared-segment workload, and
#                      byte-identical gas between the batch and naive
#                      paths.
#   --replication-smoke
#                      the replication gate: run the primary/follower +
#                      failover suite (replication_test) under
#                      both memory sanitizers, then the replication bench
#                      in its short configuration (BTCFAST_E15_SMOKE) in a
#                      scratch cwd, asserting nonzero quorum-gated acks
#                      and a byte-exact promoted image after failover.
#   --verify-smoke     the ECDSA verify-speed gate: run the hand-timed
#                      verify section of bench_micro_crypto
#                      (BTCFAST_VERIFY_SMOKE=1) in a scratch cwd and fail
#                      if the GLV cold / warm-precomp paths fall under
#                      their relative floors (1.5x / 2.0x vs the frozen
#                      shamir baseline), or if a cold serving window with
#                      R-parity hints (batch equations) is not 1.2x its
#                      unhinted per-signature pass in the same run. Set
#                      BTCFAST_VERIFY_BUDGET_US to
#                      additionally enforce an absolute cold-verify budget
#                      in microseconds; without it, the absolute check
#                      self-skips (wall-clock budgets are meaningless on
#                      an arbitrarily loaded or throttled runner).
set -euo pipefail
cd "$(dirname "$0")/.."

preset="default"
bench_smoke=0
kernel_sanitize=0
verify_smoke=0
net_smoke=0
dispute_smoke=0
fuzz_smoke=0
gateway_smoke=0
store_smoke=0
replication_smoke=0
scenario_fuzz=0
scenario_seeds=25
expect_seed_count=0
for arg in "$@"; do
  if [[ "$expect_seed_count" == 1 ]]; then
    expect_seed_count=0
    if [[ "$arg" =~ ^[0-9]+$ ]]; then
      scenario_seeds="$arg"
      continue
    fi
  fi
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    --kernel-sanitize) kernel_sanitize=1 ;;
    --fuzz-smoke) fuzz_smoke=1 ;;
    --gateway-smoke) gateway_smoke=1 ;;
    --store-smoke) store_smoke=1 ;;
    --verify-smoke) verify_smoke=1 ;;
    --net-smoke) net_smoke=1 ;;
    --dispute-smoke) dispute_smoke=1 ;;
    --replication-smoke) replication_smoke=1 ;;
    --scenario-fuzz) scenario_fuzz=1; expect_seed_count=1 ;;
    *) preset="$arg" ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$jobs"
ctest --preset "$preset" -j "$jobs"

bindir="build"
case "$preset" in
  tsan) bindir="build-tsan" ;;
  asan) bindir="build-asan" ;;
  ubsan) bindir="build-ubsan" ;;
esac

if [[ "$bench_smoke" == 1 ]]; then
  echo "== bench smoke (${bindir}) =="
  # Run from a scratch directory: benches write BENCH_*.json into their
  # cwd, and the smoke run must not clobber the curated artifacts at the
  # repo root with noisy throwaway numbers.
  smoke_dir="$bindir/bench-smoke"
  mkdir -p "$smoke_dir"
  repo_root="$PWD"
  # The bench list comes from the sources (one target per
  # bench/bench_*.cpp), not from the build directory: a reused tree may
  # still hold binaries of deleted benches, and a listed bench that was
  # not built is a failure, not a skip.
  for src in bench/bench_*.cpp; do
    name="$(basename "$src" .cpp)"
    bench="$bindir/bench/$name"
    if [[ ! -x "$bench" ]]; then
      echo "== bench smoke: FAILED — $name was not built ($bench missing) =="
      exit 1
    fi
    echo "-- $name"
    if [[ "$name" == "bench_micro_crypto" ]]; then
      # google-benchmark half at minimum iteration budget; the hand-timed
      # JSON half is already bounded and fast.
      (cd "$smoke_dir" && "$repo_root/$bench" --benchmark_min_time=0.001 >/dev/null)
    else
      (cd "$smoke_dir" && "$repo_root/$bench" >/dev/null)
    fi
  done
  echo "== bench smoke: all benches ran =="
fi

if [[ "$kernel_sanitize" == 1 ]]; then
  for san in asan ubsan; do
    echo "== kernel tests under $san (scalar SHA-256 pinned) =="
    cmake --preset "$san"
    cmake --build --preset "$san" -j "$jobs" \
      --target sha256_kernel_test crypto_test crypto_property_test thread_pool_test \
               sigcache_test
    for t in sha256_kernel_test crypto_test crypto_property_test thread_pool_test \
             sigcache_test; do
      "build-$san/tests/$t"
    done
  done
  echo "== kernel sanitize: clean =="
fi

if [[ "$fuzz_smoke" == 1 ]]; then
  # Promote the decoder fuzz tests from their quick default budget to a
  # fixed 10k-iteration corpus per decoder, under both memory sanitizers.
  # The iteration count is an env override so the default ctest pass stays
  # fast; seeds inside the suite are fixed, so this corpus is identical on
  # every run.
  for san in asan ubsan; do
    echo "== fuzz smoke under $san (10k iterations per decoder) =="
    cmake --preset "$san"
    cmake --build --preset "$san" -j "$jobs" --target fuzz_test
    BTCFAST_FUZZ_ITERS=2000 "build-$san/tests/fuzz_test"
  done
  echo "== fuzz smoke: clean =="
fi

if [[ "$gateway_smoke" == 1 ]]; then
  # The serving-layer gate: a short run of the concurrent gateway bench
  # (1 customer thread and one per hardware thread, shrunk payment
  # volume), then the gateway unit + pipeline tests and the wire-decoder
  # fuzz corpus under both memory sanitizers. Run from a scratch cwd for
  # the same reason as the bench smoke: keep the curated
  # BENCH_e11_gateway.json artifact intact.
  echo "== gateway smoke bench (${bindir}) =="
  cmake --build --preset "$preset" -j "$jobs" --target bench_e11_gateway
  smoke_dir="$bindir/gateway-smoke"
  mkdir -p "$smoke_dir"
  repo_root="$PWD"
  (cd "$smoke_dir" && BTCFAST_GATEWAY_SMOKE=1 "$repo_root/$bindir/bench/bench_e11_gateway")
  # Thread-scaling assertion: the smoke JSON records accepts/s at 1 thread
  # and at scale_threads = the machine's hardware thread count, which must
  # beat 1 thread by the configured factor (on a 1-thread machine both
  # runs are the same run and the ratio is 1). The default floor is half
  # the thread count, not more: on a shared 4-vCPU host each thread slows
  # as the others fill the cores, and lock-free cold verifies alone scale
  # only ~2.5x at 4 threads there.
  smoke_json="$smoke_dir/BENCH_e11_gateway.json"
  json_num() { sed -n "s/^[[:space:]]*\"$1\":[[:space:]]*\([0-9.]*\).*/\1/p" "$smoke_json" | head -n1; }
  scale_threads="$(json_num scale_threads)"
  scale_ratio="$(json_num scale_ratio)"
  if [[ -z "$scale_ratio" || -z "$scale_threads" ]]; then
    echo "== gateway scaling check: FAILED to parse $smoke_json =="
    exit 1
  fi
  scale_factor="${BTCFAST_GATEWAY_SCALE_FACTOR:-$(awk -v t="$scale_threads" 'BEGIN{print 0.5 * t}')}"
  if awk -v r="$scale_ratio" -v f="$scale_factor" 'BEGIN{exit !(r >= f)}'; then
    echo "== gateway scaling check: ${scale_threads}-thread/1-thread = ${scale_ratio}x (>= ${scale_factor}x) =="
  else
    echo "== gateway scaling check: FAILED — ${scale_threads}-thread/1-thread = ${scale_ratio}x < ${scale_factor}x =="
    echo "   (override the floor with BTCFAST_GATEWAY_SCALE_FACTOR)"
    exit 1
  fi
  for san in asan ubsan; do
    echo "== gateway tests + wire fuzz under $san =="
    cmake --preset "$san"
    cmake --build --preset "$san" -j "$jobs" --target gateway_test fuzz_test
    "build-$san/tests/gateway_test"
    BTCFAST_FUZZ_ITERS=2000 "build-$san/tests/fuzz_test" \
      --gtest_filter='*ParserFuzz*'
  done
  echo "== gateway, net, concurrency, psc and thread-pool tests under tsan =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" \
    --target gateway_test net_test concurrency_test psc_test thread_pool_test
  for t in gateway_test net_test concurrency_test psc_test thread_pool_test; do
    "build-tsan/tests/$t"
  done
  echo "== gateway smoke: clean =="
fi

if [[ "$store_smoke" == 1 ]]; then
  # The durability gate: crash-consistency and corruption handling are
  # exactly where latent memory bugs hide (torn buffers, partial reads),
  # so the whole store suite runs under both memory sanitizers — the
  # FaultFile crash-shim tests, byte-exact recovery at every crash point,
  # and the WAL/snapshot corruption fuzz corpus at its promoted budget.
  echo "== store smoke bench (${bindir}) =="
  cmake --build --preset "$preset" -j "$jobs" --target bench_e12_durability
  smoke_dir="$bindir/store-smoke"
  mkdir -p "$smoke_dir"
  repo_root="$PWD"
  (cd "$smoke_dir" && BTCFAST_DURABILITY_SMOKE=1 "$repo_root/$bindir/bench/bench_e12_durability")
  for san in asan ubsan; do
    echo "== store recovery + fault suite under $san =="
    cmake --preset "$san"
    cmake --build --preset "$san" -j "$jobs" --target store_test fuzz_test
    "build-$san/tests/store_test"
    BTCFAST_FUZZ_ITERS=2000 "build-$san/tests/fuzz_test" \
      --gtest_filter='*ParserFuzz*:*StoreFuzz*'
  done
  echo "== store smoke: clean =="
fi

if [[ "$net_smoke" == 1 ]]; then
  # The TCP front-end gate. Socket code is where lifetime bugs hide
  # (buffers freed while epoll still references the fd, short reads into
  # stale spans), so the whole torture suite plus the reassembly fuzz
  # corpus runs under both memory sanitizers.
  for san in asan ubsan; do
    echo "== net torture suite + reassembly fuzz under $san =="
    cmake --preset "$san"
    cmake --build --preset "$san" -j "$jobs" --target net_test fuzz_test
    "build-$san/tests/net_test"
    BTCFAST_FUZZ_ITERS=2000 "build-$san/tests/fuzz_test" \
      --gtest_filter='*NetFuzz*'
  done
  echo "== net smoke: clean =="
fi

if [[ "$dispute_smoke" == 1 ]]; then
  # The dispute-storm gate. The storm engine's whole value rests on a
  # byte-parity claim (batch == one-at-a-time), and the index/sync code
  # chews on adversarial evidence bytes, so the full dispute suite plus
  # the dispute fuzz corpus runs under both memory sanitizers first. Then
  # the storm bench runs short in the default tree and its smoke JSON
  # must show real throughput, real dedup, and exact gas parity.
  for san in asan ubsan; do
    echo "== dispute parity suite + dispute fuzz under $san =="
    cmake --preset "$san"
    cmake --build --preset "$san" -j "$jobs" --target dispute_test fuzz_test
    "build-$san/tests/dispute_test"
    BTCFAST_FUZZ_ITERS=2000 "build-$san/tests/fuzz_test" \
      --gtest_filter='*DisputeFuzz*'
  done
  echo "== dispute smoke bench (${bindir}) =="
  cmake --build --preset "$preset" -j "$jobs" --target bench_e14_dispute_storm
  smoke_dir="$bindir/dispute-smoke"
  mkdir -p "$smoke_dir"
  repo_root="$PWD"
  (cd "$smoke_dir" && BTCFAST_E14_SMOKE=1 "$repo_root/$bindir/bench/bench_e14_dispute_storm")
  smoke_json="$smoke_dir/BENCH_e14_dispute_storm.json"
  json_field() { sed -n "s/^[[:space:]]*\"$1\":[[:space:]]*\"\{0,1\}\([0-9.a-z]*\)\"\{0,1\}.*/\1/p" "$smoke_json" | head -n1; }
  storm_rate="$(json_field disputes_per_s_storm)"
  hit_rate="$(json_field dedup_hit_rate)"
  gas_parity="$(json_field gas_parity)"
  if [[ -z "$storm_rate" || -z "$hit_rate" || -z "$gas_parity" ]]; then
    echo "== dispute smoke: FAILED to parse $smoke_json =="
    exit 1
  elif [[ "$gas_parity" != "yes" ]]; then
    echo "== dispute smoke: FAILED — gas_parity=$gas_parity =="
    exit 1
  elif ! awk -v r="$storm_rate" 'BEGIN{exit !(r > 0)}'; then
    echo "== dispute smoke: FAILED — disputes_per_s_storm=$storm_rate =="
    exit 1
  elif ! awk -v h="$hit_rate" 'BEGIN{exit !(h > 0)}'; then
    echo "== dispute smoke: FAILED — dedup_hit_rate=$hit_rate =="
    exit 1
  else
    echo "== dispute smoke: ${storm_rate} disputes/s, dedup hit rate ${hit_rate}, gas parity exact =="
  fi
fi

if [[ "$replication_smoke" == 1 ]]; then
  # The replication gate. Promotion correctness is a byte-exactness claim
  # (the promoted image must equal a replay of the primary's acked
  # prefix), and the follower's fail-closed paths chew on adversarial
  # batch bytes, so the whole replication suite runs under both memory
  # sanitizers first. Then the bench runs short in the default tree and
  # its smoke JSON must show quorum-gated acks actually flowing and an
  # exact failover.
  for san in asan ubsan; do
    echo "== replication suite under $san =="
    cmake --preset "$san"
    cmake --build --preset "$san" -j "$jobs" --target replication_test
    "build-$san/tests/replication_test"
  done
  echo "== replication smoke bench (${bindir}) =="
  cmake --build --preset "$preset" -j "$jobs" --target bench_e15_replication
  smoke_dir="$bindir/replication-smoke"
  mkdir -p "$smoke_dir"
  repo_root="$PWD"
  (cd "$smoke_dir" && BTCFAST_E15_SMOKE=1 "$repo_root/$bindir/bench/bench_e15_replication")
  smoke_json="$smoke_dir/BENCH_e15_replication.json"
  json_field() { sed -n "s/^[[:space:]]*\"$1\":[[:space:]]*\"\{0,1\}\([0-9.a-z]*\)\"\{0,1\}.*/\1/p" "$smoke_json" | head -n1; }
  quorum_acks="$(json_field quorum_gated_acks)"
  failover_exact="$(json_field failover_exact)"
  catchup_rate="$(json_field catchup_records_per_s)"
  if [[ -z "$quorum_acks" || -z "$failover_exact" || -z "$catchup_rate" ]]; then
    echo "== replication smoke: FAILED to parse $smoke_json =="
    exit 1
  elif [[ "$failover_exact" != "yes" ]]; then
    echo "== replication smoke: FAILED — failover_exact=$failover_exact =="
    exit 1
  elif ! awk -v q="$quorum_acks" 'BEGIN{exit !(q > 0)}'; then
    echo "== replication smoke: FAILED — quorum_gated_acks=$quorum_acks =="
    exit 1
  elif ! awk -v c="$catchup_rate" 'BEGIN{exit !(c > 0)}'; then
    echo "== replication smoke: FAILED — catchup_records_per_s=$catchup_rate =="
    exit 1
  else
    echo "== replication smoke: ${quorum_acks} quorum-gated acks, failover byte-exact, catch-up ${catchup_rate} records/s =="
  fi
fi

if [[ "$verify_smoke" == 1 ]]; then
  # The verify-speed gate: the GLV + precomp verify engine must hold its
  # speedup over the frozen shamir baseline, and hinted batch equations
  # theirs over the per-signature pass. Ratios are load-resilient
  # (both sides run on the same machine in the same process), so they are
  # always enforced; the absolute microsecond budget only applies when
  # the caller pins one via BTCFAST_VERIFY_BUDGET_US.
  echo "== verify smoke (${bindir}) =="
  cmake --build --preset "$preset" -j "$jobs" --target bench_micro_crypto
  smoke_dir="$bindir/verify-smoke"
  mkdir -p "$smoke_dir"
  repo_root="$PWD"
  (cd "$smoke_dir" && BTCFAST_VERIFY_SMOKE=1 "$repo_root/$bindir/bench/bench_micro_crypto")
  echo "== verify smoke: clean =="
fi

if [[ "$scenario_fuzz" == 1 ]]; then
  echo "== scenario fuzz (${scenario_seeds} seeds, ${bindir}) =="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs" --target fuzz_scenario_test
  # On a violation the gtest batch prints the repro line + minimized trace
  # and exits nonzero, which fails the script via `set -e`.
  BTCFAST_SCENARIO_SEEDS="$scenario_seeds" \
    "$bindir/tests/fuzz_scenario_test" --gtest_filter='ScenarioFuzz.BatchSeeds'
  echo "== scenario fuzz: ${scenario_seeds} seeds clean =="
fi
