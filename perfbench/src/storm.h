// The dispute_storm workload: a PayJudger double-spend wave through
// dispute::StormEngine over psc/btc headers. No sockets, no gateway.
#pragma once

#include <cstdint>

#include "util.h"

namespace perfbench {

/// Judge the seeded storm repeatedly for `seconds`, each pass on a fresh
/// copy of the pre-storm chain and a fresh engine. `trace` records one
/// span per execute_batch and reports the per-layer metrics.
[[nodiscard]] RunResult run_storm(std::uint64_t seed, double seconds, bool trace);

}  // namespace perfbench
