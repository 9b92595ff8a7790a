// Simplified Bitcoin script: only the P2PKH pattern is modelled, which is
// all the BTCFast protocol requires. A scriptPubKey is "pay to the owner
// of this pubkey hash"; a scriptSig is (signature, compressed pubkey).
#pragma once

#include <optional>

#include "common/bytes.h"
#include "crypto/ecdsa.h"
#include "crypto/ripemd160.h"

namespace btcfast::btc {

/// 20-byte HASH160 of a compressed public key.
struct PubKeyHash {
  ByteArray<20> bytes{};

  [[nodiscard]] static PubKeyHash of(const crypto::PublicKey& key) noexcept {
    const auto ser = key.serialize();
    PubKeyHash h;
    h.bytes = crypto::hash160({ser.data(), ser.size()});
    return h;
  }

  [[nodiscard]] auto operator<=>(const PubKeyHash& o) const noexcept = default;
};

/// The locking script: pay-to-pubkey-hash.
struct ScriptPubKey {
  PubKeyHash dest{};

  [[nodiscard]] auto operator<=>(const ScriptPubKey& o) const noexcept = default;
};

/// The unlocking script: a compact signature plus the compressed pubkey.
struct ScriptSig {
  ByteArray<64> signature{};
  ByteArray<33> pubkey{};

  [[nodiscard]] bool operator==(const ScriptSig& o) const noexcept = default;
};

/// True iff `sig.pubkey` hashes to `lock.dest` (the half of
/// verify_script that needs no curve arithmetic).
[[nodiscard]] bool pubkey_matches(const ScriptSig& sig, const ScriptPubKey& lock) noexcept;

/// Checks that `sig.pubkey` hashes to `lock.dest` and that the signature
/// verifies over `sighash`.
[[nodiscard]] bool verify_script(const ScriptSig& sig, const ScriptPubKey& lock,
                                 const crypto::Sha256Digest& sighash) noexcept;

/// Base58Check P2PKH address helpers (mainnet version byte 0x00).
[[nodiscard]] std::string encode_address(const PubKeyHash& h);
[[nodiscard]] std::optional<PubKeyHash> decode_address(const std::string& addr);

}  // namespace btcfast::btc
