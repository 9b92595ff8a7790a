#include "psc/host.h"

#include "crypto/ecdsa.h"
#include "crypto/sigcache.h"

namespace btcfast::psc {

Slot HostContext::sload(const Slot& key) {
  meter_.charge(meter_.schedule().sload);
  return state_.storage_load(self_, key);
}

void HostContext::sstore(const Slot& key, const Slot& value) {
  // Peek the current value to price the store (free peek mirrors the EVM,
  // which prices SSTORE by transition).
  const Slot current = state_.storage_load(self_, key);
  const bool set = current.is_zero() && !value.is_zero();
  meter_.charge(set ? meter_.schedule().sstore_set : meter_.schedule().sstore_reset);
  (void)state_.storage_store(self_, key, value);
}

crypto::Sha256Digest HostContext::sha256(ByteSpan data) {
  meter_.charge_sha256(data.size());
  return crypto::sha256(data);
}

crypto::Sha256Digest HostContext::sha256d(ByteSpan data) {
  meter_.charge_sha256(data.size());
  meter_.charge_sha256(32);
  return crypto::sha256d(data);
}

bool HostContext::ecdsa_verify(ByteSpan pubkey33, const crypto::Sha256Digest& digest,
                               ByteSpan signature64) {
  // Gas is charged before (and independently of) the signature cache, so
  // contract execution costs are identical whether the triple is cached.
  meter_.charge(meter_.schedule().ecdsa_verify);
  return crypto::verify_signature(pubkey33, digest, signature64);
}

bool HostContext::transfer_out(const Address& to, Value amount) {
  meter_.charge(meter_.schedule().value_transfer);
  if (!state_.sub_balance(self_, amount)) return false;
  state_.add_balance(to, amount);
  return true;
}

void HostContext::emit_log(std::string topic, Bytes data) {
  meter_.charge(meter_.schedule().log_base + meter_.schedule().log_topic +
                meter_.schedule().log_data_byte * static_cast<Gas>(data.size()));
  logs_.push_back(LogEvent{self_, std::move(topic), std::move(data)});
}

}  // namespace btcfast::psc
