// Seeded workload generation for the two fast-pay workloads.
//
// A seed fixes everything the benchmark feeds the program: which
// customer pays in which order, the arrival schedule of the open-loop
// phase, and therefore every byte of every request frame. The program
// side (deployment, escrows, coins, invoices) is rebuilt from the same
// seed, so frames generated against one build are valid against any
// other build of the same seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "btcfast/orchestrator.h"
#include "common/bytes.h"

namespace perfbench {

using namespace btcfast;

enum class FastpayKind { kCold, kHotMixed };

/// The shape of one fast-pay run, fixed by the workload and --seconds.
struct FastpayShape {
  FastpayKind kind = FastpayKind::kCold;
  /// Distinct customers, each with its own key and escrow.
  std::size_t customers = 0;
  /// Op groups pre-signed for the closed-loop phase (its fixed pool).
  std::size_t closed_groups = 0;
  /// Open-loop phase: offered op groups per second and phase length.
  double open_rate_per_s = 0;
  double open_seconds = 0;
  /// Frames per op group: the submit, plus QueryEscrow and GetReceipt
  /// on hot_mixed.
  [[nodiscard]] std::size_t frames_per_group() const {
    return kind == FastpayKind::kHotMixed ? 3 : 1;
  }
};

/// Everything derived from the seed before any program object exists.
struct Plan {
  FastpayShape shape;
  std::uint64_t seed = 0;
  /// customer index of every payment; closed-loop payments first.
  std::vector<std::uint32_t> payer;
  /// Open-loop due offsets from the phase start, one per open group.
  std::vector<std::uint64_t> open_due_ns;
  /// Per customer: payments it makes across both phases.
  std::vector<std::uint32_t> payments_of;

  [[nodiscard]] std::size_t groups() const { return payer.size(); }
};

[[nodiscard]] Plan make_plan(const FastpayShape& shape, std::uint64_t seed);

/// Compensation per payment and the amounts the generated coins carry.
inline constexpr psc::Value kCompensation = 1'000;
inline constexpr btc::Amount kInvoiceSat = 10'000;
inline constexpr btc::Amount kCoinSat = 100'000;
/// GetReceipt targets the submit this many groups earlier.
inline constexpr std::size_t kReceiptLag = 256;

/// The program-side world of one build: a deployment whose merchant
/// node holds one confirmed coin per payment, one funded escrow per
/// customer, and one invoice per payment.
struct World {
  std::unique_ptr<core::Deployment> dep;
  std::vector<std::unique_ptr<core::CustomerWallet>> wallets;  ///< one per customer
  std::vector<core::Invoice> invoices;                          ///< one per payment
  std::vector<btc::OutPoint> coins;                             ///< one per payment
  std::uint64_t now_ms = 0;
};

/// Build the world for `plan`; nullptr + `*error` on any failed step.
[[nodiscard]] std::unique_ptr<World> build_world(const Plan& plan, std::string* error);

/// Request ids of group g's frames: submit, then (hot_mixed) query, receipt.
[[nodiscard]] inline std::uint64_t submit_rid(const Plan& plan, std::size_t g) {
  return static_cast<std::uint64_t>(g * plan.shape.frames_per_group()) + 1;
}
[[nodiscard]] inline std::size_t receipt_target(std::size_t g) {
  return g >= kReceiptLag ? g - kReceiptLag : 0;
}

/// Encode every request frame; frames[rid - 1] is the frame with that
/// request id. Signs with the world's wallets, so it advances their
/// binding nonces.
[[nodiscard]] std::vector<Bytes> make_frames(const Plan& plan, World& world);

/// FNV-1a over the frames and the schedule (the seed test's fingerprint).
[[nodiscard]] std::uint64_t fingerprint(const Plan& plan, const std::vector<Bytes>& frames);

}  // namespace perfbench
