// secp256k1 elliptic-curve arithmetic implemented from scratch on top of
// U256: fast field reduction for p = 2^256 - 2^32 - 977, Jacobian point
// arithmetic, scalar multiplication, and compressed-point (de)serialization.
//
// NOTE: the implementation is *not* constant-time; it backs a protocol
// simulator, not a production signer. Functional behaviour (including
// RFC-6979 determinism in ecdsa.h) matches the real curve.
#pragma once

#include <optional>
#include <span>

#include "common/bytes.h"
#include "crypto/uint256.h"

namespace btcfast::crypto::secp {

/// Field prime p = 2^256 - 2^32 - 977.
[[nodiscard]] const U256& field_p() noexcept;
/// Group order n.
[[nodiscard]] const U256& order_n() noexcept;
/// n / 2, for low-s signature normalization.
[[nodiscard]] const U256& half_order() noexcept;

// --- field arithmetic mod p (inputs must already be < p) ---
[[nodiscard]] U256 fadd(const U256& a, const U256& b) noexcept;
[[nodiscard]] U256 fsub(const U256& a, const U256& b) noexcept;
[[nodiscard]] U256 fmul(const U256& a, const U256& b) noexcept;
[[nodiscard]] U256 fsqr(const U256& a) noexcept;
[[nodiscard]] U256 fneg(const U256& a) noexcept;
[[nodiscard]] U256 finv(const U256& a) noexcept;
/// Frozen binary-GCD field inverse — see ninv_baseline below.
[[nodiscard]] U256 finv_baseline(const U256& a) noexcept;
/// Square root mod p (p ≡ 3 mod 4). Returns nullopt if a is a non-residue.
[[nodiscard]] std::optional<U256> fsqrt(const U256& a) noexcept;

// --- scalar arithmetic mod the group order n (inputs < n) ---
// Uses the same pseudo-Mersenne folding as the field (n = 2^256 - c with a
// 129-bit c), ~50x faster than the generic bitwise divmod path; the ECDSA
// hot loop (one modular inversion per sign/verify) lives here.
[[nodiscard]] U256 nadd(const U256& a, const U256& b) noexcept;
[[nodiscard]] U256 nmul(const U256& a, const U256& b) noexcept;
/// Modular inverse mod n (batched-divsteps, variable time). a must be nonzero.
[[nodiscard]] U256 ninv(const U256& a) noexcept;
/// Frozen binary-GCD inverse mod n — the PR-6 baseline kernel's inversion,
/// kept verbatim so baseline-vs-optimized speedup ratios stay honest.
[[nodiscard]] U256 ninv_baseline(const U256& a) noexcept;
/// Reduce an arbitrary 256-bit value mod n.
[[nodiscard]] U256 nreduce(const U256& a) noexcept;

/// Affine curve point; `infinity` true means the identity element.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = true;

  [[nodiscard]] static AffinePoint identity() noexcept { return {}; }
  [[nodiscard]] bool operator==(const AffinePoint& o) const noexcept {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }
};

/// Jacobian projective point (z == 0 means infinity).
struct JacobianPoint {
  U256 x;
  U256 y;
  U256 z;

  [[nodiscard]] static JacobianPoint identity() noexcept { return {U256::one(), U256::one(), U256::zero()}; }
  [[nodiscard]] bool is_infinity() const noexcept { return z.is_zero(); }
};

/// The curve generator G.
[[nodiscard]] const AffinePoint& generator() noexcept;

[[nodiscard]] JacobianPoint to_jacobian(const AffinePoint& p) noexcept;
[[nodiscard]] AffinePoint to_affine(const JacobianPoint& p) noexcept;

[[nodiscard]] JacobianPoint jdouble(const JacobianPoint& p) noexcept;
[[nodiscard]] JacobianPoint jadd(const JacobianPoint& a, const JacobianPoint& b) noexcept;
/// Mixed addition with an affine (non-infinity handled) second operand.
[[nodiscard]] JacobianPoint jadd_mixed(const JacobianPoint& a, const AffinePoint& b) noexcept;

/// k * P via width-5 wNAF over a batch-normalized affine odd-multiples
/// table (k taken mod n implicitly by callers).
[[nodiscard]] JacobianPoint scalar_mul(const U256& k, const AffinePoint& p) noexcept;
/// Reference bit-at-a-time double-and-add. Slow; exists so property tests
/// can pin the windowed/wNAF/Shamir kernels against an obviously-correct
/// implementation.
[[nodiscard]] JacobianPoint scalar_mul_naive(const U256& k, const AffinePoint& p) noexcept;
/// k * G.
[[nodiscard]] JacobianPoint scalar_mul_base(const U256& k) noexcept;
/// u1*G + u2*P — the ECDSA-verify hot path. Decomposes both scalars with
/// the GLV endomorphism (see glv_split) and runs one shared ~128-deep
/// doubling chain over four wNAF digit streams; the per-call P / λP
/// tables are built without any field inversion (co-Z ladder + shared
/// projective frame).
[[nodiscard]] JacobianPoint double_scalar_mul(const U256& u1, const U256& u2,
                                              const AffinePoint& p) noexcept;
/// The pre-GLV 2-term Shamir kernel (wNAF-7 G table + per-call wNAF-5 P
/// table over a full ~256-deep chain, one field inversion to normalize
/// the table). Retained as the in-binary baseline so benches can report
/// a hardware-independent speedup ratio and property tests can cross-pin
/// the kernels; not called on any production path.
[[nodiscard]] JacobianPoint double_scalar_mul_shamir(const U256& u1, const U256& u2,
                                                     const AffinePoint& p) noexcept;

// --- GLV endomorphism -------------------------------------------------
// secp256k1 has an efficient endomorphism φ(x, y) = (β·x, y) = λ·(x, y)
// with λ³ ≡ 1 (mod n), β³ ≡ 1 (mod p). Any scalar k splits into
// k ≡ ±k1 ± λ·k2 (mod n) with |k1|, |k2| ≲ 2^128, so k·P becomes
// k1·P + k2·φ(P) over a half-length doubling chain, and φ(P) costs one
// field multiply per table entry.

/// λ (the eigenvalue mod n) and β (the x-coordinate scale mod p).
[[nodiscard]] const U256& glv_lambda() noexcept;
[[nodiscard]] const U256& glv_beta() noexcept;

/// Signed decomposition k ≡ (neg1 ? -k1 : k1) + λ·(neg2 ? -k2 : k2)
/// (mod n); magnitudes k1, k2 fit ~129 bits.
struct GlvSplit {
  U256 k1;
  U256 k2;
  bool neg1 = false;
  bool neg2 = false;
};
[[nodiscard]] GlvSplit glv_split(const U256& k) noexcept;

// --- precomputed / staged verify tables -------------------------------

/// Number of odd multiples in the per-call wNAF-5 tables.
inline constexpr std::size_t kPointTableEntries = 16;

/// Per-call odd-multiple tables for Q and λQ in a shared projective
/// frame: entry i holds the coordinates of (2i+1)·Q on the curve
/// isomorphism with Jacobian Z = `z` (i.e. true affine x is x/z², y is
/// y/z³). Built with zero field inversions; double_scalar_mul_tables
/// consumes the frame directly and rescales once at the end.
struct PointTables {
  AffinePoint q[kPointTableEntries];
  AffinePoint lq[kPointTableEntries];
  U256 z;
};
/// Build the shared-frame tables for a non-infinity curve point.
void build_point_tables(const AffinePoint& p, PointTables& out) noexcept;
/// u1*G + u2*Q with tables prebuilt by build_point_tables — the staged
/// entry point batch_verify uses so table building, scalar inversion,
/// and chain evaluation can be scheduled independently across a batch.
[[nodiscard]] JacobianPoint double_scalar_mul_tables(const U256& u1, const U256& u2,
                                                     const PointTables& tables) noexcept;

/// Wide (wNAF-8) true-affine odd-multiple tables for a fixed public key,
/// cached across calls by PubkeyPrecompCache. ~18 KiB per key.
struct PubkeyPrecomp {
  static constexpr unsigned kWidth = 8;
  static constexpr std::size_t kEntries = 128;  // 1Q, 3Q, ..., 255Q
  AffinePoint q[kEntries];
  AffinePoint lq[kEntries];
};
/// Build the wide tables (one Montgomery-batched field inversion).
[[nodiscard]] PubkeyPrecomp build_pubkey_precomp(const AffinePoint& p);
/// u1*G + u2*Q against cached wide tables: skips the per-call table
/// build entirely and halves the Q-side additions (wNAF-7 vs wNAF-5).
[[nodiscard]] JacobianPoint double_scalar_mul_precomp(const U256& u1, const U256& u2,
                                                      const PubkeyPrecomp& pre) noexcept;

// --- randomized batch verification -------------------------------------

/// One public key's term c·Q of a batch equation: resident wide tables
/// (`pre`) or per-batch shared-frame tables (`tables`), exactly one set.
/// batch_sum_is_identity normalizes `tables` in place to true affine
/// (z = 1), which double_scalar_mul_tables still accepts.
struct BatchKeyTerm {
  U256 c;
  const PubkeyPrecomp* pre = nullptr;
  PointTables* tables = nullptr;
};
/// One nonce point's term a·R, with a < 2^128 and R on the curve.
struct BatchNonceTerm {
  U256 a;
  AffinePoint r;
};
/// g·G + Σ c_k·Q_k − Σ a_i·R_i == O. Straus: every term's wNAF digits
/// share one ~128-deep doubling chain (g and each c_k split by GLV), so a
/// batch of signatures pays its doublings once; the nonce tables and the
/// cold keys' frames are normalized with one field inversion.
[[nodiscard]] bool batch_sum_is_identity(const U256& g, std::span<BatchKeyTerm> keys,
                                         std::span<const BatchNonceTerm> nonces);

/// The curve point with x-coordinate `x` and y parity `odd`; nullopt when
/// x ≥ p or no curve point has that x.
[[nodiscard]] std::optional<AffinePoint> lift_x(const U256& x, bool odd) noexcept;

/// y² == x³ + 7 check.
[[nodiscard]] bool on_curve(const AffinePoint& p) noexcept;

/// 33-byte compressed SEC1 encoding (02/03 prefix). Identity not encodable.
[[nodiscard]] ByteArray<33> compress(const AffinePoint& p) noexcept;
/// Parse a 33-byte compressed point; validates curve membership.
[[nodiscard]] std::optional<AffinePoint> decompress(ByteSpan bytes) noexcept;

}  // namespace btcfast::crypto::secp
