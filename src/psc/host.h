// The metered host interface contracts execute against. Every operation
// charges its EVM-equivalent gas before touching state, so a contract
// cannot observe or mutate anything for free.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"
#include "crypto/uint256.h"
#include "psc/address.h"
#include "psc/gas.h"
#include "psc/state.h"

namespace btcfast::psc {

/// An emitted event (EVM log analogue).
struct LogEvent {
  Address contract{};
  std::string topic;
  Bytes data;
};

/// Per-call execution context handed to a contract method.
class HostContext {
 public:
  HostContext(WorldState& state, GasMeter& meter, Address self, Address caller, Value value,
              std::uint64_t block_number, std::uint64_t block_time_ms,
              std::vector<LogEvent>& logs) noexcept
      : state_(state),
        meter_(meter),
        self_(self),
        caller_(caller),
        value_(value),
        block_number_(block_number),
        block_time_ms_(block_time_ms),
        logs_(logs) {}

  // --- environment (free, like CALLER/CALLVALUE/TIMESTAMP) ---
  [[nodiscard]] const Address& self() const noexcept { return self_; }
  [[nodiscard]] const Address& caller() const noexcept { return caller_; }
  [[nodiscard]] Value call_value() const noexcept { return value_; }
  [[nodiscard]] std::uint64_t block_number() const noexcept { return block_number_; }
  /// Simulated wall-clock milliseconds (EVM exposes seconds; ms keeps the
  /// simulator's resolution).
  [[nodiscard]] std::uint64_t block_time_ms() const noexcept { return block_time_ms_; }

  // --- metered state access ---
  [[nodiscard]] Slot sload(const Slot& key);
  void sstore(const Slot& key, const Slot& value);

  // --- metered crypto ---
  [[nodiscard]] crypto::Sha256Digest sha256(ByteSpan data);
  [[nodiscard]] crypto::Sha256Digest sha256d(ByteSpan data);
  /// ecrecover-equivalent: verify a compact secp256k1 signature.
  [[nodiscard]] bool ecdsa_verify(ByteSpan pubkey33, const crypto::Sha256Digest& digest,
                                  ByteSpan signature64);

  // --- value movement ---
  /// Pay out of the contract's balance; charges CALL-with-value gas.
  /// Returns false (no state change) if the contract balance is short.
  [[nodiscard]] bool transfer_out(const Address& to, Value amount);

  // --- events & compute ---
  void emit_log(std::string topic, Bytes data = {});
  /// Charge n abstract compute steps (loops over calldata etc.).
  void charge_compute(Gas n) { meter_.charge(n * meter_.schedule().compute_step); }
  void charge_memory(std::size_t bytes_copied) {
    meter_.charge(static_cast<Gas>(bytes_copied) * meter_.schedule().memory_byte);
  }

  [[nodiscard]] GasMeter& meter() noexcept { return meter_; }

 private:
  WorldState& state_;
  GasMeter& meter_;
  Address self_;
  Address caller_;
  Value value_;
  std::uint64_t block_number_;
  std::uint64_t block_time_ms_;
  std::vector<LogEvent>& logs_;
};

/// Contract interface. Implementations are stateless objects; all state
/// lives in WorldState storage slots, accessed through the host.
class Contract {
 public:
  virtual ~Contract() = default;

  /// Handle a method call. Returning a non-ok Status reverts the call's
  /// value transfer (the chain handles unwinding) and records the reason.
  [[nodiscard]] virtual Status call(HostContext& host, const std::string& method,
                                    ByteSpan args, Bytes* ret) = 0;
};

}  // namespace btcfast::psc
