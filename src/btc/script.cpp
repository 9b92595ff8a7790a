#include "btc/script.h"

#include "crypto/base58.h"
#include "crypto/sigcache.h"

namespace btcfast::btc {

bool pubkey_matches(const ScriptSig& sig, const ScriptPubKey& lock) noexcept {
  const auto h = crypto::hash160({sig.pubkey.data(), sig.pubkey.size()});
  return equal_bytes({h.data(), h.size()}, {lock.dest.bytes.data(), lock.dest.bytes.size()});
}

bool verify_script(const ScriptSig& sig, const ScriptPubKey& lock,
                   const crypto::Sha256Digest& sighash) noexcept {
  // 1. Pubkey must hash to the locked destination.
  if (!pubkey_matches(sig, lock)) return false;
  // 2. Signature must verify under that pubkey, through the one cached
  // verify path: a repeat check of an identical (sighash, key, sig)
  // triple skips even the pubkey decompression.
  return crypto::verify_signature({sig.pubkey.data(), sig.pubkey.size()}, sighash,
                                  {sig.signature.data(), sig.signature.size()});
}

std::string encode_address(const PubKeyHash& h) {
  return crypto::base58check_encode(0x00, {h.bytes.data(), h.bytes.size()});
}

std::optional<PubKeyHash> decode_address(const std::string& addr) {
  auto dec = crypto::base58check_decode(addr);
  if (!dec || dec->version != 0x00 || dec->payload.size() != 20) return std::nullopt;
  PubKeyHash h;
  h.bytes = to_array<20>(dec->payload);
  return h;
}

}  // namespace btcfast::btc
