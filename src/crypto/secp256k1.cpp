#include "crypto/secp256k1.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace btcfast::crypto::secp {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// p = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE FFFFFC2F
constexpr U256 make_p() {
  U256 p;
  p.w[0] = 0xFFFFFFFEFFFFFC2FULL;
  p.w[1] = 0xFFFFFFFFFFFFFFFFULL;
  p.w[2] = 0xFFFFFFFFFFFFFFFFULL;
  p.w[3] = 0xFFFFFFFFFFFFFFFFULL;
  return p;
}

// n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141
constexpr U256 make_n() {
  U256 n;
  n.w[0] = 0xBFD25E8CD0364141ULL;
  n.w[1] = 0xBAAEDCE6AF48A03BULL;
  n.w[2] = 0xFFFFFFFFFFFFFFFEULL;
  n.w[3] = 0xFFFFFFFFFFFFFFFFULL;
  return n;
}

const U256 kP = make_p();
const U256 kN = make_n();
const U256 kHalfN = make_n() >> 1;

// 2^256 ≡ kC (mod p) with kC = 2^32 + 977 — the pseudo-Mersenne constant
// that makes the field reduction a couple of single-limb multiplies.
constexpr u64 kC = 0x1000003D1ULL;

// --- flat 4-limb field engine -----------------------------------------
// The hot path avoids the generic U512 helpers entirely: one 4x4
// product-scanning multiply (or square) into a stack array, then two
// inline folds of the high half through kC. Every step is a straight
// carry chain: no loop exits early on a zero carry, and the final
// "subtract p if needed" is a masked select, so the point-arithmetic
// inner loops carry no data-dependent branches. Additions and
// subtractions are flattened the same way. Outputs are canonical (< p)
// for canonical inputs.
//
// Long limb chains (fadd, fsub, fneg, the second fold and the select)
// use add-with-carry / subtract-with-borrow helpers, which map to adc/sbb
// on x86-64 (GCC spills and re-zeroes registers when the same chain is
// spelled with unsigned __int128 sums). The multiply keeps the carries
// off the flags instead: each column sums its products' halves in two
// 128-bit counters (see Column).

#if defined(__x86_64__) || defined(_M_X64)
[[gnu::always_inline]] inline u64 adc(u64 a, u64 b, unsigned char& carry) noexcept {
  unsigned long long r;
  carry = _addcarry_u64(carry, a, b, &r);
  return r;
}
[[gnu::always_inline]] inline u64 sbb(u64 a, u64 b, unsigned char& borrow) noexcept {
  unsigned long long r;
  borrow = _subborrow_u64(borrow, a, b, &r);
  return r;
}
#else
[[gnu::always_inline]] inline u64 adc(u64 a, u64 b, unsigned char& carry) noexcept {
  const u128 s = static_cast<u128>(a) + b + carry;
  carry = static_cast<unsigned char>(s >> 64);
  return static_cast<u64>(s);
}
[[gnu::always_inline]] inline u64 sbb(u64 a, u64 b, unsigned char& borrow) noexcept {
  const u128 d = static_cast<u128>(a) - b - borrow;
  borrow = static_cast<unsigned char>((d >> 64) & 1);
  return static_cast<u64>(d);
}
#endif

/// Keep r, or replace it by r − p, in one masked select: r − p ≡ r + kC
/// (mod 2^256), and that sum carries out exactly when r ≥ p. `hi` is a
/// 2^256 bit the caller already dropped (0 or 1); when it is set the
/// value exceeds 2^256, so the subtraction always applies.
[[gnu::always_inline]] inline void sub_p_if_ge(u64 r[4], u64 hi) noexcept {
  unsigned char c = 0;
  const u64 t0 = adc(r[0], kC, c);
  const u64 t1 = adc(r[1], 0, c);
  const u64 t2 = adc(r[2], 0, c);
  const u64 t3 = adc(r[3], 0, c);
  const u64 take = 0 - ((static_cast<u64>(c) | hi) & 1);
  r[0] = (t0 & take) | (r[0] & ~take);
  r[1] = (t1 & take) | (r[1] & ~take);
  r[2] = (t2 & take) | (r[2] & ~take);
  r[3] = (t3 & take) | (r[3] & ~take);
}

/// Column accumulator for product scanning. The low and high halves of
/// a column's 128-bit products are summed in two independent 128-bit
/// counters (no carry flag crosses from one product to the next), and
/// the column's carry into the next one is folded in when it is taken.
struct Column {
  u128 lo = 0, hi = 0;

  /// += x·y
  [[gnu::always_inline]] void add(u64 x, u64 y) noexcept {
    const u128 p = static_cast<u128>(x) * y;
    lo += static_cast<u64>(p);
    hi += static_cast<u64>(p >> 64);
  }
  /// += 2·x·y
  [[gnu::always_inline]] void add2(u64 x, u64 y) noexcept {
    const u128 p = static_cast<u128>(x) * y;
    lo += static_cast<u64>(p << 1);
    hi += p >> 63;
  }
  /// Emit the low word and carry the rest into the next column.
  [[gnu::always_inline]] u64 take() noexcept {
    const u64 out = static_cast<u64>(lo);
    lo = (lo >> 64) + hi;
    hi = 0;
    return out;
  }
};

/// t[8] = a * b by product scanning (column by column).
[[gnu::always_inline]] inline void mul_4x4(u64 t[8], const u64 a[4], const u64 b[4]) noexcept {
  Column c;
  c.add(a[0], b[0]);
  t[0] = c.take();
  c.add(a[0], b[1]);
  c.add(a[1], b[0]);
  t[1] = c.take();
  c.add(a[0], b[2]);
  c.add(a[1], b[1]);
  c.add(a[2], b[0]);
  t[2] = c.take();
  c.add(a[0], b[3]);
  c.add(a[1], b[2]);
  c.add(a[2], b[1]);
  c.add(a[3], b[0]);
  t[3] = c.take();
  c.add(a[1], b[3]);
  c.add(a[2], b[2]);
  c.add(a[3], b[1]);
  t[4] = c.take();
  c.add(a[2], b[3]);
  c.add(a[3], b[2]);
  t[5] = c.take();
  c.add(a[3], b[3]);
  t[6] = c.take();
  t[7] = c.take();
}

/// t[8] = a² by product scanning: each output column sums its doubled
/// cross products and its diagonal term once — 10 multiplies instead of
/// the 16 of mul_4x4, with no separate doubling pass.
[[gnu::always_inline]] inline void sqr_4(u64 t[8], const u64 a[4]) noexcept {
  Column c;
  c.add(a[0], a[0]);
  t[0] = c.take();
  c.add2(a[0], a[1]);
  t[1] = c.take();
  c.add2(a[0], a[2]);
  c.add(a[1], a[1]);
  t[2] = c.take();
  c.add2(a[0], a[3]);
  c.add2(a[1], a[2]);
  t[3] = c.take();
  c.add2(a[1], a[3]);
  c.add(a[2], a[2]);
  t[4] = c.take();
  c.add2(a[2], a[3]);
  t[5] = c.take();
  c.add(a[3], a[3]);
  t[6] = c.take();
  t[7] = c.take();
}

/// Reduce a 512-bit product t[8] mod p into r.
[[gnu::always_inline]] inline void fe_reduce(U256& r, const u64 t[8]) noexcept {
  // Fold 1: value = lo + hi*kC, limb by limb; each step's sum stays
  // below 2^98, so the carry word stays < 2^34.
  u64 out[4];
  u128 acc = static_cast<u128>(t[4]) * kC + t[0];
  out[0] = static_cast<u64>(acc);
  acc = static_cast<u128>(t[5]) * kC + t[1] + static_cast<u64>(acc >> 64);
  out[1] = static_cast<u64>(acc);
  acc = static_cast<u128>(t[6]) * kC + t[2] + static_cast<u64>(acc >> 64);
  out[2] = static_cast<u64>(acc);
  acc = static_cast<u128>(t[7]) * kC + t[3] + static_cast<u64>(acc >> 64);
  out[3] = static_cast<u64>(acc);
  const u64 carry = static_cast<u64>(acc >> 64);
  // Fold 2: carry < 2^34, carry*kC < 2^68; the chain runs through every
  // limb and leaves one 2^256 bit.
  const u128 m = static_cast<u128>(carry) * kC;
  unsigned char c = 0;
  out[0] = adc(out[0], static_cast<u64>(m), c);
  out[1] = adc(out[1], static_cast<u64>(m >> 64), c);
  out[2] = adc(out[2], 0, c);
  out[3] = adc(out[3], 0, c);
  // If that bit is set the low half is tiny and out + kC is the answer;
  // otherwise out < 2^256 < 2p needs at most one subtraction of p. Both
  // are the same masked select.
  sub_p_if_ge(out, c);
  r.w[0] = out[0];
  r.w[1] = out[1];
  r.w[2] = out[2];
  r.w[3] = out[3];
}

// 2^256 ≡ kNC (mod n); kNC = 2^256 - n is a 129-bit constant.
const U256 kNC = U256::zero() - make_n();  // wrapping arithmetic gives 2^256 - n

/// Reduce a 512-bit value mod n via repeated folding of the high part.
U256 reduce512_n(const U512& t) noexcept {
  // Fold 1: hi (<=256 bits) * c (129 bits) fits 385 bits.
  const U512 s1 = U512::from_u256(t.low256()) + t.high256().mul_wide(kNC);
  // Fold 2: hi < 2^129; product < 2^258.
  const U512 s2 = U512::from_u256(s1.low256()) + s1.high256().mul_wide(kNC);
  // Fold 3: hi < 2^3; product < 2^132.
  const U512 s3 = U512::from_u256(s2.low256()) + s2.high256().mul_wide(kNC);
  U256 r = s3.low256();
  if (!s3.high256().is_zero()) {
    bool carry = false;
    r = add_carry(r, kNC, carry);
  }
  while (r >= kN) r = r - kN;
  return r;
}

AffinePoint make_generator() {
  AffinePoint g;
  g.infinity = false;
  g.x = *U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
  g.y = *U256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");
  return g;
}

const AffinePoint kG = make_generator();

// --- GLV endomorphism constants ---------------------------------------
// φ(x, y) = (β·x, y) equals multiplication by λ; (λ, β) is the matched
// cube-root pair, and (g1, g2, -b1, -b2) drive the lattice decomposition
// k ≡ k1 + λ·k2 (mod n) with |k1|, |k2| ≲ 2^128:
//   c1 = round(k·g1 / 2^384),  c2 = round(k·g2 / 2^384)
//   k2 = c1·(-b1) + c2·(-b2) (mod n),  k1 = k - λ·k2 (mod n)
const U256 kLambda =
    *U256::from_hex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
const U256 kBeta =
    *U256::from_hex("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
const U256 kGlvG1 =
    *U256::from_hex("3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031");
const U256 kGlvG2 =
    *U256::from_hex("e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71");
const U256 kGlvMinusB1 = *U256::from_hex("e4437ed6010e88286f547fa90abfe4c3");
const U256 kGlvMinusB2 =
    *U256::from_hex("fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c");

/// round(k·g / 2^384): take limbs 6..7 of the 512-bit product, rounding
/// on bit 383. Results fit well under 2^129 for the GLV g constants.
inline U256 mul_shift_384(const U256& k, const U256& g) noexcept {
  const U512 prod = k.mul_wide(g);
  U256 r;
  r.w[0] = prod.w[6];
  r.w[1] = prod.w[7];
  r.w[2] = 0;
  r.w[3] = 0;
  if ((prod.w[5] >> 63) != 0) r += U256::one();  // cannot overflow 128 bits meaningfully
  return r;
}

/// -a mod n.
inline U256 nneg(const U256& a) noexcept { return a.is_zero() ? a : kN - a; }

}  // namespace

const U256& field_p() noexcept { return kP; }
const U256& order_n() noexcept { return kN; }
const U256& half_order() noexcept { return kHalfN; }
const AffinePoint& generator() noexcept { return kG; }

U256 fadd(const U256& a, const U256& b) noexcept {
  U256 r;
  unsigned char c = 0;
  r.w[0] = adc(a.w[0], b.w[0], c);
  r.w[1] = adc(a.w[1], b.w[1], c);
  r.w[2] = adc(a.w[2], b.w[2], c);
  r.w[3] = adc(a.w[3], b.w[3], c);
  sub_p_if_ge(r.w, c);
  return r;
}

U256 fsub(const U256& a, const U256& b) noexcept {
  // a − b, then + p under a mask when the subtraction borrowed.
  U256 r;
  unsigned char borrow = 0;
  r.w[0] = sbb(a.w[0], b.w[0], borrow);
  r.w[1] = sbb(a.w[1], b.w[1], borrow);
  r.w[2] = sbb(a.w[2], b.w[2], borrow);
  r.w[3] = sbb(a.w[3], b.w[3], borrow);
  const u64 mask = 0 - static_cast<u64>(borrow);
  unsigned char c = 0;
  r.w[0] = adc(r.w[0], kP.w[0] & mask, c);
  r.w[1] = adc(r.w[1], mask, c);
  r.w[2] = adc(r.w[2], mask, c);
  r.w[3] = adc(r.w[3], mask, c);
  return r;
}

U256 fmul(const U256& a, const U256& b) noexcept {
  u64 t[8];
  mul_4x4(t, a.w, b.w);
  U256 r;
  fe_reduce(r, t);
  return r;
}

U256 fsqr(const U256& a) noexcept {
  u64 t[8];
  sqr_4(t, a.w);
  U256 r;
  fe_reduce(r, t);
  return r;
}

U256 fneg(const U256& a) noexcept {
  // p − a, masked to 0 when a is 0 (so −0 stays canonical).
  const u64 keep = 0 - static_cast<u64>((a.w[0] | a.w[1] | a.w[2] | a.w[3]) != 0);
  U256 r;
  unsigned char borrow = 0;
  r.w[0] = sbb(kP.w[0], a.w[0], borrow) & keep;
  r.w[1] = sbb(kP.w[1], a.w[1], borrow) & keep;
  r.w[2] = sbb(kP.w[2], a.w[2], borrow) & keep;
  r.w[3] = sbb(kP.w[3], a.w[3], borrow) & keep;
  return r;
}

U256 nadd(const U256& a, const U256& b) noexcept { return addmod(a, b, kN); }

U256 nmul(const U256& a, const U256& b) noexcept { return reduce512_n(a.mul_wide(b)); }

U256 ninv(const U256& a) noexcept { return invmod_odd_var(a, kN); }

U256 ninv_baseline(const U256& a) noexcept { return invmod_odd(a, kN); }

U256 nreduce(const U256& a) noexcept { return a >= kN ? a - kN : a; }

U256 finv(const U256& a) noexcept { return invmod_odd_var(a, kP); }

U256 finv_baseline(const U256& a) noexcept { return invmod_odd(a, kP); }

namespace {

/// a^(2^k) — k squarings.
inline U256 fsqr_n(U256 a, int k) noexcept {
  while (k-- > 0) a = fsqr(a);
  return a;
}

}  // namespace

std::optional<U256> fsqrt(const U256& a) noexcept {
  // p ≡ 3 (mod 4): candidate = a^((p+1)/4). The exponent's binary form is
  // three runs of ones, of lengths 223, 22 and 2, so an addition chain
  // builds x_k = a^(2^k − 1) for k in {2, 3, 6, 9, 11, 22, 44, 88, 176,
  // 220, 223} and slides over the runs: 253 squarings and 13 multiplies.
  const U256 x2 = fmul(fsqr(a), a);
  const U256 x3 = fmul(fsqr(x2), a);
  const U256 x6 = fmul(fsqr_n(x3, 3), x3);
  const U256 x9 = fmul(fsqr_n(x6, 3), x3);
  const U256 x11 = fmul(fsqr_n(x9, 2), x2);
  const U256 x22 = fmul(fsqr_n(x11, 11), x11);
  const U256 x44 = fmul(fsqr_n(x22, 22), x22);
  const U256 x88 = fmul(fsqr_n(x44, 44), x44);
  const U256 x176 = fmul(fsqr_n(x88, 88), x88);
  const U256 x220 = fmul(fsqr_n(x176, 44), x44);
  const U256 x223 = fmul(fsqr_n(x220, 3), x3);
  U256 t = fmul(fsqr_n(x223, 23), x22);
  t = fmul(fsqr_n(t, 6), x2);
  const U256 cand = fsqr_n(t, 2);
  if (fsqr(cand) != a) return std::nullopt;
  return cand;
}

JacobianPoint to_jacobian(const AffinePoint& p) noexcept {
  if (p.infinity) return JacobianPoint::identity();
  return {p.x, p.y, U256::one()};
}

AffinePoint to_affine(const JacobianPoint& p) noexcept {
  if (p.is_infinity()) return AffinePoint::identity();
  const U256 zinv = finv(p.z);
  const U256 zinv2 = fsqr(zinv);
  const U256 zinv3 = fmul(zinv2, zinv);
  return {fmul(p.x, zinv2), fmul(p.y, zinv3), false};
}

JacobianPoint jdouble(const JacobianPoint& p) noexcept {
  if (p.is_infinity() || p.y.is_zero()) return JacobianPoint::identity();
  // dbl-2009-l (a = 0): 2M + 5S, all small-constant multiplies as adds.
  const U256 a = fsqr(p.x);                                  // X1²
  const U256 b = fsqr(p.y);                                  // Y1²
  const U256 c = fsqr(b);                                    // B²
  U256 d = fsub(fsub(fsqr(fadd(p.x, b)), a), c);             // (X1+B)² - A - C
  d = fadd(d, d);                                            // D = 2·(...)
  const U256 e = fadd(fadd(a, a), a);                        // E = 3A
  const U256 f = fsqr(e);                                    // F = E²
  const U256 x3 = fsub(f, fadd(d, d));                       // X3 = F - 2D
  U256 c8 = fadd(c, c);
  c8 = fadd(c8, c8);
  c8 = fadd(c8, c8);                                         // 8C
  const U256 y3 = fsub(fmul(e, fsub(d, x3)), c8);            // Y3 = E(D-X3) - 8C
  const U256 z3 = fmul(fadd(p.y, p.y), p.z);                 // Z3 = 2·Y1·Z1
  return {x3, y3, z3};
}

JacobianPoint jadd(const JacobianPoint& a, const JacobianPoint& b) noexcept {
  if (a.is_infinity()) return b;
  if (b.is_infinity()) return a;
  const U256 z1z1 = fsqr(a.z);
  const U256 z2z2 = fsqr(b.z);
  const U256 u1 = fmul(a.x, z2z2);
  const U256 u2 = fmul(b.x, z1z1);
  const U256 s1 = fmul(a.y, fmul(z2z2, b.z));
  const U256 s2 = fmul(b.y, fmul(z1z1, a.z));
  if (u1 == u2) {
    if (s1 != s2) return JacobianPoint::identity();
    return jdouble(a);
  }
  const U256 h = fsub(u2, u1);
  const U256 r = fsub(s2, s1);
  const U256 h2 = fsqr(h);
  const U256 h3 = fmul(h2, h);
  const U256 u1h2 = fmul(u1, h2);
  const U256 x3 = fsub(fsub(fsqr(r), h3), fadd(u1h2, u1h2));
  const U256 y3 = fsub(fmul(r, fsub(u1h2, x3)), fmul(s1, h3));
  const U256 z3 = fmul(h, fmul(a.z, b.z));
  return {x3, y3, z3};
}

JacobianPoint jadd_mixed(const JacobianPoint& a, const AffinePoint& b) noexcept {
  if (b.infinity) return a;
  if (a.is_infinity()) return to_jacobian(b);
  const U256 z1z1 = fsqr(a.z);
  const U256 u2 = fmul(b.x, z1z1);
  const U256 s2 = fmul(b.y, fmul(z1z1, a.z));
  if (a.x == u2) {
    if (a.y != s2) return JacobianPoint::identity();
    return jdouble(a);
  }
  const U256 h = fsub(u2, a.x);
  const U256 r = fsub(s2, a.y);
  const U256 h2 = fsqr(h);
  const U256 h3 = fmul(h2, h);
  const U256 u1h2 = fmul(a.x, h2);
  const U256 x3 = fsub(fsub(fsqr(r), h3), fadd(u1h2, u1h2));
  const U256 y3 = fsub(fmul(r, fsub(u1h2, x3)), fmul(a.y, h3));
  const U256 z3 = fmul(h, a.z);
  return {x3, y3, z3};
}

namespace {

/// Invert every element in place with one field inversion (Montgomery's
/// trick): invert the product of all elements, then peel. Elements must
/// be nonzero.
void batch_finv(std::vector<U256>& v) {
  if (v.empty()) return;
  std::vector<U256> prefix(v.size());
  U256 acc = U256::one();
  for (std::size_t i = 0; i < v.size(); ++i) {
    prefix[i] = acc;  // product of v_0..v_{i-1}
    acc = fmul(acc, v[i]);
  }
  U256 inv = finv(acc);
  for (std::size_t i = v.size(); i-- > 0;) {
    const U256 vi = fmul(inv, prefix[i]);
    inv = fmul(inv, v[i]);
    v[i] = vi;
  }
}

/// Batch Jacobian->affine normalization with one field inversion.
std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& pts) {
  std::vector<U256> zinv(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) zinv[i] = pts[i].z;
  batch_finv(zinv);
  std::vector<AffinePoint> out(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const U256 zinv2 = fsqr(zinv[i]);
    out[i] = AffinePoint{fmul(pts[i].x, zinv2), fmul(pts[i].y, fmul(zinv2, zinv[i])), false};
  }
  return out;
}

/// Fixed-base comb table: kBaseTable[i][j] == (j+1) * 16^i * G, so a
/// 256-bit scalar resolves to at most 64 mixed additions with no
/// doublings. Built once per process (~1k point ops, batch-normalized).
struct BaseTable {
  AffinePoint pts[64][15];
};

const BaseTable& base_table() {
  static const BaseTable table = [] {
    std::vector<JacobianPoint> jac;
    jac.reserve(64 * 15);
    JacobianPoint row_base = to_jacobian(kG);  // 16^i * G
    for (int i = 0; i < 64; ++i) {
      JacobianPoint cur = row_base;
      for (int j = 0; j < 15; ++j) {
        jac.push_back(cur);
        cur = jadd(cur, row_base);
      }
      row_base = cur;  // 16 * previous row base
    }
    const auto affine = batch_to_affine(jac);
    BaseTable t;
    for (int i = 0; i < 64; ++i) {
      for (int j = 0; j < 15; ++j) t.pts[i][j] = affine[static_cast<std::size_t>(i * 15 + j)];
    }
    return t;
  }();
  return table;
}

/// Width-w NAF digits (odd values in ±{1, 3, ..., 2^w - 1}), LSB first,
/// written into `out` (needs room for 257). Returns the digit count.
/// Flat limb arithmetic: the scalar shrinks by one bit per digit.
/// Digits are int16 so widths up to 14 fit (width-8 digits reach ±255).
int wnaf_digits(std::int16_t* out, const U256& k, unsigned width) noexcept {
  u64 l[4] = {k.w[0], k.w[1], k.w[2], k.w[3]};
  const u64 mask = (1ULL << (width + 1)) - 1;
  const u64 half = 1ULL << width;
  int len = 0;
  while ((l[0] | l[1] | l[2] | l[3]) != 0) {
    std::int16_t d = 0;
    if (l[0] & 1) {
      const u64 m = l[0] & mask;
      if (m >= half) {
        d = static_cast<std::int16_t>(static_cast<int>(m) - static_cast<int>(mask + 1));
        // k += (2^(w+1) - m)
        u64 add = (mask + 1) - m;
        for (int i = 0; i < 4 && add != 0; ++i) {
          const u128 s = static_cast<u128>(l[i]) + add;
          l[i] = static_cast<u64>(s);
          add = static_cast<u64>(s >> 64);
        }
      } else {
        d = static_cast<std::int16_t>(m);
        // k -= m (only clears low bits; no borrow can propagate past a
        // nonzero limb chain because k ≥ m by construction)
        u64 borrow = m;
        for (int i = 0; i < 4 && borrow != 0; ++i) {
          const u64 before = l[i];
          l[i] = before - borrow;
          borrow = before < borrow ? 1 : 0;
        }
      }
    }
    out[len++] = d;
    l[0] = (l[0] >> 1) | (l[1] << 63);
    l[1] = (l[1] >> 1) | (l[2] << 63);
    l[2] = (l[2] >> 1) | (l[3] << 63);
    l[3] >>= 1;
  }
  return len;
}

/// Affine odd multiples {1P, 3P, ..., (2·count-1)P}, batch-normalized so
/// the wNAF loop uses mixed additions and negation is a y-flip.
std::vector<AffinePoint> odd_multiples_affine(const AffinePoint& p, std::size_t count) {
  std::vector<JacobianPoint> jac;
  jac.reserve(count);
  jac.push_back(to_jacobian(p));
  const JacobianPoint twop = jdouble(jac[0]);
  for (std::size_t i = 1; i < count; ++i) jac.push_back(jadd(jac[i - 1], twop));
  return batch_to_affine(jac);
}

constexpr std::size_t kPointTableSize = 16;  // wNAF-5 odd multiples

/// Stack-allocated variant of odd_multiples_affine for the per-call
/// scalar_mul / double_scalar_mul_shamir tables — no heap allocation.
/// Pinned to the binary-GCD finv_baseline: this build (one inversion per
/// table) is part of the frozen baseline verify kernel that the bench
/// speedup ratios are measured against.
void odd_multiples_affine_16(const AffinePoint& p, AffinePoint out[kPointTableSize]) noexcept {
  JacobianPoint jac[kPointTableSize];
  jac[0] = to_jacobian(p);
  const JacobianPoint twop = jdouble(jac[0]);
  for (std::size_t i = 1; i < kPointTableSize; ++i) jac[i] = jadd(jac[i - 1], twop);
  // Montgomery batch inversion with stack prefixes.
  U256 prefix[kPointTableSize];
  U256 acc = U256::one();
  for (std::size_t i = 0; i < kPointTableSize; ++i) {
    prefix[i] = acc;
    acc = fmul(acc, jac[i].z);
  }
  U256 inv_all = finv_baseline(acc);
  for (std::size_t i = kPointTableSize; i-- > 0;) {
    const U256 zinv = fmul(inv_all, prefix[i]);
    inv_all = fmul(inv_all, jac[i].z);
    const U256 zinv2 = fsqr(zinv);
    out[i] = AffinePoint{fmul(jac[i].x, zinv2), fmul(jac[i].y, fmul(zinv2, zinv)), false};
  }
}

inline AffinePoint affine_neg(const AffinePoint& p) noexcept {
  return {p.x, fneg(p.y), false};
}

/// Static generator table: 1G, 3G, ..., 511G (256 affine points) — wide
/// enough for the GLV chain's wNAF-9 digits; the legacy Shamir kernel's
/// wNAF-7 digits index the first 64 entries (the same points PR-6 built).
/// 256 entries × 64 bytes = 16 KiB per table (G and λG), built once.
const std::vector<AffinePoint>& gen_odd_multiples() {
  static const std::vector<AffinePoint> table = odd_multiples_affine(kG, 256);
  return table;
}

/// Static λG table: elementwise β·x image of the generator table, because
/// λ·((2i+1)·G) = φ((2i+1)·G) = (β·x_i, y_i).
const std::vector<AffinePoint>& gen_lambda_odd_multiples() {
  static const std::vector<AffinePoint> table = [] {
    const auto& g = gen_odd_multiples();
    std::vector<AffinePoint> t(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) t[i] = AffinePoint{fmul(kBeta, g[i].x), g[i].y, false};
    return t;
  }();
  return table;
}

constexpr unsigned kWnafWidthPoint = 5;  // per-call tables: 16 entries
constexpr unsigned kWnafWidthBase = 7;   // legacy Shamir G digits: 64 entries
constexpr unsigned kWnafWidthGlvBase = 9;  // GLV half-scalar G digits: 256 entries

}  // namespace

JacobianPoint scalar_mul(const U256& k, const AffinePoint& p) noexcept {
  if (k.is_zero() || p.infinity) return JacobianPoint::identity();
  std::int16_t naf[264];
  const int len = wnaf_digits(naf, k, kWnafWidthPoint);
  AffinePoint table[kPointTableSize];
  odd_multiples_affine_16(p, table);
  JacobianPoint acc = JacobianPoint::identity();
  for (int i = len; i-- > 0;) {
    acc = jdouble(acc);
    const int d = naf[i];
    if (d > 0) {
      acc = jadd_mixed(acc, table[static_cast<std::size_t>((d - 1) / 2)]);
    } else if (d < 0) {
      acc = jadd_mixed(acc, affine_neg(table[static_cast<std::size_t>((-d - 1) / 2)]));
    }
  }
  return acc;
}

JacobianPoint scalar_mul_naive(const U256& k, const AffinePoint& p) noexcept {
  // Reference bit-at-a-time double-and-add; the property tests pin the
  // windowed/wNAF/Shamir kernels against this.
  if (k.is_zero() || p.infinity) return JacobianPoint::identity();
  const JacobianPoint base = to_jacobian(p);
  JacobianPoint acc = JacobianPoint::identity();
  for (int i = k.top_bit(); i >= 0; --i) {
    acc = jdouble(acc);
    if (k.bit(static_cast<unsigned>(i))) acc = jadd(acc, base);
  }
  return acc;
}

JacobianPoint scalar_mul_base(const U256& k) noexcept {
  if (k.is_zero()) return JacobianPoint::identity();
  const BaseTable& table = base_table();
  JacobianPoint acc = JacobianPoint::identity();
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t nib =
        static_cast<std::uint32_t>((k.w[i / 16] >> (4 * (i % 16))) & 0xF);
    if (nib != 0) acc = jadd_mixed(acc, table.pts[i][nib - 1]);
  }
  return acc;
}

JacobianPoint double_scalar_mul_shamir(const U256& u1, const U256& u2,
                                       const AffinePoint& p) noexcept {
  // Shamir's trick, interleaved: one shared doubling chain; u1·G digits
  // come from the static wNAF-7 generator table, u2·P digits from a
  // per-call batch-normalized wNAF-5 table.
  if (u2.is_zero() || p.infinity) return scalar_mul_base(u1);
  if (u1.is_zero()) return scalar_mul(u2, p);

  std::int16_t naf1[264];
  std::int16_t naf2[264];
  const int len1 = wnaf_digits(naf1, u1, kWnafWidthBase);
  const int len2 = wnaf_digits(naf2, u2, kWnafWidthPoint);
  const auto& gtab = gen_odd_multiples();
  AffinePoint ptab[kPointTableSize];
  odd_multiples_affine_16(p, ptab);

  JacobianPoint acc = JacobianPoint::identity();
  for (int i = (len1 > len2 ? len1 : len2); i-- > 0;) {
    acc = jdouble(acc);
    if (i < len1) {
      const int d = naf1[i];
      if (d > 0) {
        acc = jadd_mixed(acc, gtab[static_cast<std::size_t>((d - 1) / 2)]);
      } else if (d < 0) {
        acc = jadd_mixed(acc, affine_neg(gtab[static_cast<std::size_t>((-d - 1) / 2)]));
      }
    }
    if (i < len2) {
      const int d = naf2[i];
      if (d > 0) {
        acc = jadd_mixed(acc, ptab[static_cast<std::size_t>((d - 1) / 2)]);
      } else if (d < 0) {
        acc = jadd_mixed(acc, affine_neg(ptab[static_cast<std::size_t>((-d - 1) / 2)]));
      }
    }
  }
  return acc;
}

const U256& glv_lambda() noexcept { return kLambda; }
const U256& glv_beta() noexcept { return kBeta; }

GlvSplit glv_split(const U256& k) noexcept {
  // Lattice round-off: both representatives land in [0, n); the signed
  // value is the representative itself when ≤ n/2, else representative−n.
  const U256 c1 = mul_shift_384(k, kGlvG1);
  const U256 c2 = mul_shift_384(k, kGlvG2);
  const U256 r2 = nadd(nmul(c1, kGlvMinusB1), nmul(c2, kGlvMinusB2));
  const U256 r1 = nadd(nreduce(k), nneg(nmul(r2, kLambda)));
  GlvSplit s;
  s.neg1 = r1 > kHalfN;
  s.k1 = s.neg1 ? kN - r1 : r1;
  s.neg2 = r2 > kHalfN;
  s.k2 = s.neg2 ? kN - r2 : r2;
  return s;
}

namespace {

/// acc = 2·acc in place — dbl-2009-l like jdouble, minus the 96-byte
/// struct copy per iteration that `acc = jdouble(acc)` costs the chain.
inline void jdouble_ip(JacobianPoint& p) noexcept {
  if (p.is_infinity() || p.y.is_zero()) {
    p = JacobianPoint::identity();
    return;
  }
  const U256 a = fsqr(p.x);
  const U256 b = fsqr(p.y);
  const U256 c = fsqr(b);
  U256 d = fsub(fsub(fsqr(fadd(p.x, b)), a), c);
  d = fadd(d, d);
  const U256 e = fadd(fadd(a, a), a);
  const U256 x3 = fsub(fsqr(e), fadd(d, d));
  U256 c8 = fadd(c, c);
  c8 = fadd(c8, c8);
  c8 = fadd(c8, c8);
  p.z = fmul(fadd(p.y, p.y), p.z);  // uses the original Y1 — before the overwrite
  p.y = fsub(fmul(e, fsub(d, x3)), c8);
  p.x = x3;
}

/// acc += (bx, ±by) in place for an affine non-infinity operand; `neg`
/// folds the wNAF sign into s2 (fneg(y·k) ≡ (−y)·k mod p) so the table
/// entry is never copied or rewritten.
inline void jadd_mixed_ip(JacobianPoint& a, const U256& bx, const U256& by, bool neg) noexcept {
  if (a.is_infinity()) {
    a.x = bx;
    a.y = neg ? fneg(by) : by;
    a.z = U256::one();
    return;
  }
  const U256 z1z1 = fsqr(a.z);
  const U256 u2 = fmul(bx, z1z1);
  U256 s2 = fmul(by, fmul(z1z1, a.z));
  if (neg) s2 = fneg(s2);
  if (a.x == u2) {
    if (a.y != s2) {
      a = JacobianPoint::identity();
      return;
    }
    jdouble_ip(a);
    return;
  }
  const U256 h = fsub(u2, a.x);
  const U256 r = fsub(s2, a.y);
  const U256 h2 = fsqr(h);
  const U256 h3 = fmul(h2, h);
  const U256 u1h2 = fmul(a.x, h2);
  const U256 x3 = fsub(fsub(fsqr(r), h3), fadd(u1h2, u1h2));
  a.y = fsub(fmul(r, fsub(u1h2, x3)), fmul(a.y, h3));
  a.x = x3;
  a.z = fmul(h, a.z);
}

/// Four-stream GLV wNAF chain computing u1·G + u2·Q: both scalars are
/// split into ~128-bit halves, so the shared doubling chain is ~128 deep
/// instead of ~256. G / λG digits come from the static wNAF-8 tables;
/// Q / λQ digits from `qtab`/`lqtab` (width `qwidth`), which are either
/// true affine (`qz == nullptr`, the precomp-cache path) or
/// effective-affine on the isomorphism with Jacobian Z = *qz (the
/// inversion-free per-call path) — in the latter frame the static G
/// entries are mapped in by (x·Z², y·Z³) on use and the accumulator's Z
/// is rescaled once at the end.
JacobianPoint glv_chain(const U256& u1, const U256& u2, const AffinePoint* qtab,
                        const AffinePoint* lqtab, unsigned qwidth, const U256* qz) noexcept {
  const GlvSplit s1 = glv_split(u1);
  const GlvSplit s2 = glv_split(u2);
  // Half-scalar magnitudes stay under 2^130, so 140 digits suffice.
  std::int16_t naf[4][140];
  int len[4];
  len[0] = wnaf_digits(naf[0], s1.k1, kWnafWidthGlvBase);
  len[1] = wnaf_digits(naf[1], s1.k2, kWnafWidthGlvBase);
  len[2] = wnaf_digits(naf[2], s2.k1, qwidth);
  len[3] = wnaf_digits(naf[3], s2.k2, qwidth);
  const bool neg[4] = {s1.neg1, s1.neg2, s2.neg1, s2.neg2};

  const auto& gtab = gen_odd_multiples();
  const auto& lgtab = gen_lambda_odd_multiples();
  const AffinePoint* tabs[4] = {gtab.data(), lgtab.data(), qtab, lqtab};

  const bool iso = qz != nullptr;
  U256 zz, zzz;
  if (iso) {
    zz = fsqr(*qz);
    zzz = fmul(zz, *qz);
  }

  int top = 0;
  for (int t = 0; t < 4; ++t) top = len[t] > top ? len[t] : top;

  JacobianPoint acc = JacobianPoint::identity();
  for (int i = top; i-- > 0;) {
    jdouble_ip(acc);
    for (int t = 0; t < 4; ++t) {
      if (i >= len[t]) continue;
      const int d = naf[t][i];
      if (d == 0) continue;
      const AffinePoint& e = tabs[t][static_cast<std::size_t>(((d < 0 ? -d : d) - 1) / 2)];
      const bool flip = (d < 0) != neg[t];
      if (iso && t < 2) {
        // Map the true-affine static entry into the shared frame.
        jadd_mixed_ip(acc, fmul(e.x, zz), fmul(e.y, zzz), flip);
      } else {
        jadd_mixed_ip(acc, e.x, e.y, flip);
      }
    }
  }
  if (iso && !acc.is_infinity()) acc.z = fmul(acc.z, *qz);
  return acc;
}

}  // namespace

namespace {

/// Odd multiples 1P, 3P, ..., (2N−1)P by a co-Z ZADDU ladder (5M + 2S
/// per entry instead of a full Jacobian add) — no field inversion. Entry
/// i lands in its own projective frame: frame_0 is 2P's Jacobian Z (the
/// return value) and frame_i = frame_{i−1}·h[i], so true affine x is
/// x[i]/frame_i² and y is y[i]/frame_i³. h[0] is left unset.
template <std::size_t N>
U256 co_z_odd_multiples(const AffinePoint& p, U256 (&x)[N], U256 (&y)[N],
                        U256 (&h)[N]) noexcept {
  const JacobianPoint d = jdouble(to_jacobian(p));  // 2P, z = 2y (never 0 on secp256k1)
  const U256 dzz = fsqr(d.z);
  x[0] = fmul(p.x, dzz);  // P rescaled into 2P's frame
  y[0] = fmul(p.y, fmul(dzz, d.z));
  U256 bx = d.x;  // 2P, co-Z with the current odd multiple
  U256 by = d.y;
  for (std::size_t i = 1; i < N; ++i) {
    // ZADDU(P1 = 2P, P2 = (2i-1)P), both in frame_{i-1}: produces
    // (2i+1)P and 2P rescaled, co-Z in frame_i = frame_{i-1}·(X2-X1).
    const U256 dx = fsub(x[i - 1], bx);
    const U256 a = fsqr(dx);
    const U256 b = fmul(bx, a);
    const U256 c = fmul(x[i - 1], a);
    const U256 dy = fsub(y[i - 1], by);
    const U256 x3 = fsub(fsub(fsqr(dy), b), c);
    const U256 a1 = fmul(by, fsub(c, b));
    y[i] = fsub(fmul(dy, fsub(b, x3)), a1);
    x[i] = x3;
    h[i] = dx;
    bx = b;
    by = a1;
  }
  return d.z;
}

}  // namespace

void build_point_tables(const AffinePoint& p, PointTables& out) noexcept {
  // The co-Z ladder's entries, then a global-Z rescale so the whole
  // table shares one projective frame — no field inversion anywhere.
  U256 x[kPointTableEntries];
  U256 y[kPointTableEntries];
  U256 h[kPointTableEntries];  // h[i] = frame_i / frame_{i-1}
  const U256 z0 = co_z_odd_multiples(p, x, y, h);
  // Normalize every entry into the deepest frame (frame_15).
  out.q[kPointTableEntries - 1] = AffinePoint{x[kPointTableEntries - 1], y[kPointTableEntries - 1], false};
  U256 cprod = U256::one();
  for (std::size_t i = kPointTableEntries - 1; i-- > 0;) {
    cprod = fmul(cprod, h[i + 1]);
    const U256 c2 = fsqr(cprod);
    out.q[i] = AffinePoint{fmul(x[i], c2), fmul(y[i], fmul(c2, cprod)), false};
  }
  out.z = fmul(z0, cprod);
  // λQ table: the endomorphism commutes with the frame scaling, so it is
  // still just the β·x map.
  for (std::size_t i = 0; i < kPointTableEntries; ++i) {
    out.lq[i] = AffinePoint{fmul(kBeta, out.q[i].x), out.q[i].y, false};
  }
}

JacobianPoint double_scalar_mul_tables(const U256& u1, const U256& u2,
                                       const PointTables& tables) noexcept {
  return glv_chain(u1, u2, tables.q, tables.lq, kWnafWidthPoint, &tables.z);
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& p) noexcept {
  if (u2.is_zero() || p.infinity) return scalar_mul_base(u1);
  PointTables tables;
  build_point_tables(p, tables);
  return double_scalar_mul_tables(u1, u2, tables);
}

PubkeyPrecomp build_pubkey_precomp(const AffinePoint& p) {
  PubkeyPrecomp pre;
  const auto q = odd_multiples_affine(p, PubkeyPrecomp::kEntries);
  for (std::size_t i = 0; i < PubkeyPrecomp::kEntries; ++i) {
    pre.q[i] = q[i];
    pre.lq[i] = AffinePoint{fmul(kBeta, q[i].x), q[i].y, false};
  }
  return pre;
}

JacobianPoint double_scalar_mul_precomp(const U256& u1, const U256& u2,
                                        const PubkeyPrecomp& pre) noexcept {
  if (u2.is_zero()) return scalar_mul_base(u1);
  return glv_chain(u1, u2, pre.q, pre.lq, PubkeyPrecomp::kWidth, nullptr);
}

namespace {

constexpr unsigned kWnafWidthNonce = 4;  // digits up to ±15: tables 1R, 3R, ..., 15R
constexpr std::size_t kNonceTableEntries = std::size_t{1} << (kWnafWidthNonce - 1);
constexpr std::size_t kMaxChainDigits = 140;  // ~129-bit GLV halves, 128-bit coefficients

/// A nonce point's odd multiples, each in its own co-Z ladder frame until
/// normalize_nonce_table maps them to true affine.
struct NonceTable {
  AffinePoint e[kNonceTableEntries];
  U256 h[kNonceTableEntries];
};

/// Map each ladder entry to true affine, given 1/frame of the deepest
/// entry: 1/frame_{i−1} = (1/frame_i)·h[i].
void normalize_nonce_table(NonceTable& t, U256 zinv) noexcept {
  for (std::size_t i = kNonceTableEntries; i-- > 0;) {
    const U256 zi2 = fsqr(zinv);
    t.e[i].x = fmul(t.e[i].x, zi2);
    t.e[i].y = fmul(t.e[i].y, fmul(zi2, zinv));
    t.e[i].infinity = false;
    if (i > 0) zinv = fmul(zinv, t.h[i]);
  }
}

/// One wNAF digit stream of the shared chain: digits over an odd-multiple
/// table, `neg` negating every term.
struct ChainStream {
  const AffinePoint* table = nullptr;
  bool neg = false;
  int len = 0;
  std::int16_t digit[kMaxChainDigits];
};

/// One nonzero digit's addition, bucketed by chain position.
struct ChainAdd {
  const AffinePoint* point;
  bool neg;
};

}  // namespace

bool batch_sum_is_identity(const U256& g, std::span<BatchKeyTerm> keys,
                           std::span<const BatchNonceTerm> nonces) {
  // Nonce tables and cold-key frames, normalized together: one field
  // inversion for the whole equation.
  const std::size_t m = nonces.size();
  std::vector<NonceTable> rtab(m);
  std::vector<U256> frames;
  frames.reserve(m + keys.size());
  for (std::size_t i = 0; i < m; ++i) {
    U256 x[kNonceTableEntries];
    U256 y[kNonceTableEntries];
    NonceTable& t = rtab[i];
    U256 frame = co_z_odd_multiples(nonces[i].r, x, y, t.h);
    for (std::size_t j = 0; j < kNonceTableEntries; ++j) {
      t.e[j].x = x[j];
      t.e[j].y = y[j];
      if (j > 0) frame = fmul(frame, t.h[j]);
    }
    frames.push_back(frame);
  }
  for (const BatchKeyTerm& k : keys) {
    if (k.pre == nullptr) frames.push_back(k.tables->z);
  }
  batch_finv(frames);
  for (std::size_t i = 0; i < m; ++i) normalize_nonce_table(rtab[i], frames[i]);
  std::size_t next_frame = m;
  for (BatchKeyTerm& k : keys) {
    if (k.pre != nullptr) continue;
    PointTables& t = *k.tables;
    const U256 zinv = frames[next_frame++];
    const U256 zi2 = fsqr(zinv);
    const U256 zi3 = fmul(zi2, zinv);
    for (std::size_t j = 0; j < kPointTableEntries; ++j) {
      t.q[j].x = fmul(t.q[j].x, zi2);
      t.q[j].y = fmul(t.q[j].y, zi3);
      t.lq[j].x = fmul(t.lq[j].x, zi2);
      t.lq[j].y = t.q[j].y;
    }
    t.z = U256::one();
  }

  // Digit streams: G and λG for g, Q and λQ for each c_k (GLV halves),
  // and one negated stream per 128-bit nonce coefficient.
  std::vector<ChainStream> streams(2 + 2 * keys.size() + m);
  std::size_t si = 0;
  const auto add_split = [&](const U256& k, const AffinePoint* tab, const AffinePoint* ltab,
                             unsigned width) {
    const GlvSplit sp = glv_split(k);
    ChainStream& a = streams[si++];
    a.table = tab;
    a.neg = sp.neg1;
    a.len = wnaf_digits(a.digit, sp.k1, width);
    ChainStream& b = streams[si++];
    b.table = ltab;
    b.neg = sp.neg2;
    b.len = wnaf_digits(b.digit, sp.k2, width);
  };
  add_split(g, gen_odd_multiples().data(), gen_lambda_odd_multiples().data(), kWnafWidthGlvBase);
  for (const BatchKeyTerm& k : keys) {
    if (k.pre != nullptr) {
      add_split(k.c, k.pre->q, k.pre->lq, PubkeyPrecomp::kWidth);
    } else {
      add_split(k.c, k.tables->q, k.tables->lq, kWnafWidthPoint);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    ChainStream& st = streams[si++];
    st.table = rtab[i].e;
    st.neg = true;
    st.len = wnaf_digits(st.digit, nonces[i].a, kWnafWidthNonce);
  }

  // Bucket every nonzero digit by position (counting sort), so the chain
  // visits only the additions it makes.
  std::uint32_t start[kMaxChainDigits + 1] = {};
  int top = 0;
  for (const ChainStream& st : streams) {
    top = st.len > top ? st.len : top;
    for (int p = 0; p < st.len; ++p) start[p + 1] += st.digit[p] != 0;
  }
  for (std::size_t p = 0; p < kMaxChainDigits; ++p) start[p + 1] += start[p];
  std::vector<ChainAdd> adds(start[kMaxChainDigits]);
  std::uint32_t fill[kMaxChainDigits];
  std::copy(start, start + kMaxChainDigits, fill);
  for (const ChainStream& st : streams) {
    for (int p = 0; p < st.len; ++p) {
      const int d = st.digit[p];
      if (d == 0) continue;
      adds[fill[p]++] = {&st.table[((d < 0 ? -d : d) - 1) / 2], (d < 0) != st.neg};
    }
  }

  JacobianPoint acc = JacobianPoint::identity();
  for (int p = top; p-- > 0;) {
    jdouble_ip(acc);
    for (std::uint32_t j = start[p]; j < start[p + 1]; ++j) {
      jadd_mixed_ip(acc, adds[j].point->x, adds[j].point->y, adds[j].neg);
    }
  }
  return acc.is_infinity();
}

bool on_curve(const AffinePoint& p) noexcept {
  if (p.infinity) return true;
  if (p.x >= kP || p.y >= kP) return false;
  const U256 lhs = fsqr(p.y);
  const U256 rhs = fadd(fmul(fsqr(p.x), p.x), U256(7));
  return lhs == rhs;
}

ByteArray<33> compress(const AffinePoint& p) noexcept {
  ByteArray<33> out{};
  out[0] = p.y.bit(0) ? 0x03 : 0x02;
  const auto xb = p.x.to_be_bytes();
  for (std::size_t i = 0; i < 32; ++i) out[i + 1] = xb[i];
  return out;
}

std::optional<AffinePoint> lift_x(const U256& x, bool odd) noexcept {
  if (x >= kP) return std::nullopt;
  auto y = fsqrt(fadd(fmul(fsqr(x), x), U256(7)));
  if (!y) return std::nullopt;
  // y is never 0 (the curve has no point of order 2), so −y flips parity.
  if (y->bit(0) != odd) y = fneg(*y);
  return AffinePoint{x, *y, false};
}

std::optional<AffinePoint> decompress(ByteSpan bytes) noexcept {
  if (bytes.size() != 33 || (bytes[0] != 0x02 && bytes[0] != 0x03)) return std::nullopt;
  return lift_x(U256::from_be_bytes(bytes.subspan(1)), bytes[0] == 0x03);
}

}  // namespace btcfast::crypto::secp
