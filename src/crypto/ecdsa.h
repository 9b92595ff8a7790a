// ECDSA over secp256k1 with RFC-6979 deterministic nonces and Bitcoin's
// low-s normalization. Signatures use the 64-byte compact encoding
// (r || s, both 32-byte big-endian).
#pragma once

#include <optional>

#include "common/bytes.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/uint256.h"

namespace btcfast::crypto {

/// A secp256k1 private key (scalar in [1, n-1]).
class PrivateKey {
 public:
  /// Construct from a 32-byte big-endian scalar; nullopt if out of range.
  [[nodiscard]] static std::optional<PrivateKey> from_bytes(ByteSpan b) noexcept;
  /// Construct from raw scalar; nullopt if zero or >= n.
  [[nodiscard]] static std::optional<PrivateKey> from_scalar(const U256& d) noexcept;

  [[nodiscard]] const U256& scalar() const noexcept { return d_; }
  [[nodiscard]] ByteArray<32> to_bytes() const noexcept { return d_.to_be_bytes(); }

 private:
  explicit PrivateKey(const U256& d) noexcept : d_(d) {}
  U256 d_;
};

/// A secp256k1 public key (affine point, never infinity).
class PublicKey {
 public:
  /// Derive from a private key (d * G).
  [[nodiscard]] static PublicKey derive(const PrivateKey& key) noexcept;
  /// Parse a 33-byte compressed encoding.
  [[nodiscard]] static std::optional<PublicKey> parse(ByteSpan b) noexcept;

  [[nodiscard]] ByteArray<33> serialize() const noexcept { return secp::compress(point_); }
  [[nodiscard]] const secp::AffinePoint& point() const noexcept { return point_; }

  [[nodiscard]] bool operator==(const PublicKey& o) const noexcept { return point_ == o.point_; }

 private:
  explicit PublicKey(const secp::AffinePoint& p) noexcept : point_(p) {}
  secp::AffinePoint point_;
};

/// Compact ECDSA signature.
struct Signature {
  U256 r;
  U256 s;

  [[nodiscard]] ByteArray<64> serialize() const noexcept;
  [[nodiscard]] static std::optional<Signature> parse(ByteSpan b) noexcept;
  [[nodiscard]] bool operator==(const Signature& o) const noexcept = default;
};

/// Sign a 32-byte message digest. Deterministic (RFC 6979), low-s. When
/// `r_odd` is non-null it receives the y parity of the signature's
/// effective nonce point R (the point u1·G + u2·Q a verifier recomputes,
/// so negated when low-s flipped s): a free by-product that lets a batch
/// verifier lift R from r without trying both roots.
[[nodiscard]] Signature ecdsa_sign(const PrivateKey& key, const Sha256Digest& digest,
                                   bool* r_odd = nullptr) noexcept;

/// Verify a signature over a 32-byte message digest.
[[nodiscard]] bool ecdsa_verify(const PublicKey& key, const Sha256Digest& digest,
                                const Signature& sig) noexcept;

/// Verify against cached wide wNAF tables for the key (see
/// secp::build_pubkey_precomp / PubkeyPrecompCache): skips the per-call
/// table build and the point decompression a wire-encoded caller would
/// pay. `pre` must have been built from `key`'s point.
[[nodiscard]] bool ecdsa_verify_precomp(const Sha256Digest& digest, const Signature& sig,
                                        const secp::PubkeyPrecomp& pre) noexcept;

/// Verify via the retained pre-GLV Shamir kernel. Baseline for benches
/// and cross-kernel property tests only — not a production path.
[[nodiscard]] bool ecdsa_verify_baseline(const PublicKey& key, const Sha256Digest& digest,
                                         const Signature& sig) noexcept;

// Staged-verify building blocks for batch_verify: the caller has already
// range-checked the signature (Signature::parse) and holds w = s⁻¹ mod n
// from a batch-amortized Montgomery inversion; these derive (u1, u2) and
// run the GLV chain against prebuilt tables.
[[nodiscard]] bool ecdsa_verify_prepared(const Sha256Digest& digest, const Signature& sig,
                                         const U256& w, const secp::PointTables& tables) noexcept;
[[nodiscard]] bool ecdsa_verify_prepared(const Sha256Digest& digest, const Signature& sig,
                                         const U256& w, const secp::PubkeyPrecomp& pre) noexcept;

}  // namespace btcfast::crypto
