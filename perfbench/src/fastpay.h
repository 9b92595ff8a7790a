// The two fast-pay workloads over the composed stack: net TcpServer ->
// gateway serve_batch (crypto verify, btcfast evaluate, reservation
// ledger) -> store WAL (kBatch fsync) -> quorum-1 in-process follower.
#pragma once

#include <cstdint>
#include <string>

#include "util.h"
#include "workload.h"

namespace perfbench {

/// Run one fast-pay workload for `seconds` (half closed loop, half open
/// loop). `trace` adds a traced pass after the untraced one and reports
/// the per-layer metrics. WAL directories live under `work_dir`.
[[nodiscard]] RunResult run_fastpay(FastpayKind kind, std::uint64_t seed, double seconds,
                                    bool trace, const std::string& work_dir);

}  // namespace perfbench
