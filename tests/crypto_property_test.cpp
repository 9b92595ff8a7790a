// Property-style parameterized tests over the crypto layer: algebraic
// invariants checked across many random inputs (seeded, deterministic).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/ecdsa.h"
#include "crypto/merkle.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/uint256.h"

namespace btcfast::crypto {
namespace {

U256 random_u256(Rng& rng) {
  const auto raw = rng.bytes<32>();
  return U256::from_be_bytes({raw.data(), raw.size()});
}

U256 random_scalar(Rng& rng) {
  // Rejection sample below n (gap to 2^256 is tiny).
  for (;;) {
    const U256 v = random_u256(rng);
    if (!v.is_zero() && v < secp::order_n()) return v;
  }
}

class U256Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(U256Property, AdditionCommutesAndAssociates) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng), b = random_u256(rng), c = random_u256(rng);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
}

TEST_P(U256Property, SubtractionInvertsAddition) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng), b = random_u256(rng);
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ(a - a, U256::zero());
}

TEST_P(U256Property, MulWideMatchesShiftAddForSmallMultipliers) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng);
  // a * 8 == a << 3 in wrapping arithmetic, and wide product high part
  // captures the shifted-out bits.
  EXPECT_EQ(a * U256(8), a << 3);
}

TEST_P(U256Property, DivModIdentity) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng);
  U256 d = random_u256(rng) >> (static_cast<unsigned>(rng.below(200)));
  if (d.is_zero()) d = U256(3);
  const U256 q = a / d;
  const U256 r = a % d;
  EXPECT_LT(r, d);
  // q*d + r == a (q*d cannot overflow since q = floor(a/d)).
  EXPECT_EQ(q * d + r, a);
}

TEST_P(U256Property, ShiftRoundTrips) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng);
  const unsigned n = static_cast<unsigned>(rng.below(255)) + 1;
  EXPECT_EQ(((a >> n) << n) | (a & ((U256::one() << n) - U256(1))), a);
}

TEST_P(U256Property, ByteRoundTrips) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng);
  const auto be = a.to_be_bytes();
  const auto le = a.to_le_bytes();
  EXPECT_EQ(U256::from_be_bytes({be.data(), be.size()}), a);
  EXPECT_EQ(U256::from_le_bytes({le.data(), le.size()}), a);
}

TEST_P(U256Property, ModularInverseOnSecpPrimes) {
  Rng rng(GetParam());
  const U256 a = random_scalar(rng);
  const U256 inv_n = invmod_prime(a, secp::order_n());
  EXPECT_EQ(mulmod(a, inv_n, secp::order_n()), U256::one());
  const U256 b = random_u256(rng) % secp::field_p();
  if (!b.is_zero()) {
    EXPECT_EQ(secp::fmul(b, secp::finv(b)), U256::one());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, U256Property, ::testing::Range<std::uint64_t>(1, 21));

// The flat field kernel (fadd/fsub/fmul/fsqr/fneg: branch-free carry
// chains with a masked final subtract of p) against the generic U512
// reference (addmod/submod/mulmod), on 10^5 random canonical operands
// plus the edge values where a carry or the final subtract flips.
U256 field_from_hex(const char* hex) { return *U256::from_hex(hex); }

std::vector<U256> field_edge_values() {
  const U256& p = secp::field_p();
  const U256 one = U256::one();
  const U256 half = p >> 1;  // (p - 1) / 2
  return {
      U256::zero(),
      one,
      U256(2),
      p - one,
      p - U256(2),
      half,
      half + one,  // (p + 1) / 2: doubles to p + 1
      U256(0x1000003D1ULL),  // 2^256 mod p
      field_from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffff00000000"),
      field_from_hex("00000000000000000000000000000000ffffffffffffffffffffffffffffffff"),
      field_from_hex("ffffffffffffffffffffffffffffffff00000000000000000000000000000000"),
      field_from_hex("8000000000000000000000000000000000000000000000000000000000000000"),
      field_from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffff7ffffe17"),
  };
}

TEST(FieldKernel, MatchesU512ReferenceOnRandomAndEdgeOperands) {
  const U256& p = secp::field_p();
  auto check = [&](const U256& a, const U256& b) {
    // Canonical operands: every op must equal the reference and stay < p.
    ASSERT_EQ(secp::fadd(a, b), addmod(a, b, p)) << a.to_hex() << " + " << b.to_hex();
    ASSERT_EQ(secp::fsub(a, b), submod(a, b, p)) << a.to_hex() << " - " << b.to_hex();
    ASSERT_EQ(secp::fmul(a, b), mulmod(a, b, p)) << a.to_hex() << " * " << b.to_hex();
    ASSERT_EQ(secp::fsqr(a), mulmod(a, a, p)) << a.to_hex() << "^2";
    ASSERT_EQ(secp::fneg(a), submod(U256::zero(), a, p)) << "-" << a.to_hex();
  };
  std::vector<U256> edges = field_edge_values();
  for (U256& e : edges) e = e % p;  // canonical operands only
  for (const U256& a : edges) {
    for (const U256& b : edges) check(a, b);
  }
  Rng rng(0xf1e1d);
  for (int i = 0; i < 100000; ++i) {
    const U256 a = random_u256(rng) % p;
    // Every fourth pair pairs a random operand with an edge value, so
    // sums and products just below and above p keep turning up.
    const U256 b = (i & 3) == 0 ? edges[static_cast<std::size_t>(i / 4) % edges.size()]
                                : random_u256(rng) % p;
    check(a, b);
  }
}

TEST(FieldKernel, MulAndSqrReduceAnyLimbPattern) {
  // fmul/fsqr reduce the full 512-bit product, so they also take
  // operands at or above p. All-ones limbs stress every carry; the
  // (a, 2^240) pairs are built so the second fold of the reduction
  // carries past 2^256 (its rarest branch of the old kernel).
  const U256& p = secp::field_p();
  std::vector<U256> ops = field_edge_values();
  ops.push_back(U256::zero() - U256::one());  // 2^256 - 1: all limbs ones
  ops.push_back(p);
  ops.push_back(p + U256(7));
  ops.push_back(field_from_hex("0001edcbf8a378901820e213ea8131fe08f0357fe343d2edaa2802f99d4c1234"));
  ops.push_back(field_from_hex("03e8edbd140cb1667b8ef7e2735ff8c5aebb9590261a34de95fc3a85947d1234"));
  ops.push_back(field_from_hex("fde8ea02fa1aeaa37f46860743da7e460b2416af7b456c4a8c0db77e81bf1234"));
  ops.push_back(U256::one() << 240);
  for (const U256& a : ops) {
    EXPECT_EQ(secp::fsqr(a), mulmod(a, a, p)) << a.to_hex();
    for (const U256& b : ops) {
      EXPECT_EQ(secp::fmul(a, b), mulmod(a, b, p)) << a.to_hex() << " * " << b.to_hex();
    }
  }
  Rng rng(0x5a5a);
  for (int i = 0; i < 20000; ++i) {
    const U256 a = random_u256(rng), b = random_u256(rng);
    ASSERT_EQ(secp::fmul(a, b), mulmod(a, b, p));
    ASSERT_EQ(secp::fsqr(a), mulmod(a, a, p));
  }
}

class CurveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CurveProperty, ScalarMulLandsOnCurve) {
  Rng rng(GetParam());
  const U256 k = random_scalar(rng);
  const auto p = secp::to_affine(secp::scalar_mul_base(k));
  EXPECT_TRUE(secp::on_curve(p));
}

TEST_P(CurveProperty, ScalarDistributesOverAddition) {
  Rng rng(GetParam());
  // (k1 + k2) G == k1 G + k2 G  (scalars mod n)
  const U256 k1 = random_scalar(rng);
  const U256 k2 = random_scalar(rng);
  const U256 ksum = addmod(k1, k2, secp::order_n());
  const auto lhs = secp::to_affine(secp::scalar_mul_base(ksum));
  const auto rhs = secp::to_affine(
      secp::jadd(secp::scalar_mul_base(k1), secp::scalar_mul_base(k2)));
  EXPECT_EQ(lhs, rhs);
}

TEST_P(CurveProperty, DoubleScalarMulMatchesNaive) {
  Rng rng(GetParam());
  const U256 u1 = random_scalar(rng);
  const U256 u2 = random_scalar(rng);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const auto fast = secp::to_affine(secp::double_scalar_mul(u1, u2, p));
  const auto naive = secp::to_affine(
      secp::jadd(secp::scalar_mul_base(u1), secp::scalar_mul(u2, p)));
  EXPECT_EQ(fast, naive);
}

TEST_P(CurveProperty, CompressedRoundTrip) {
  Rng rng(GetParam());
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const auto enc = secp::compress(p);
  const auto dec = secp::decompress({enc.data(), enc.size()});
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurveProperty, ::testing::Range<std::uint64_t>(100, 112));

// --- fast-kernel equivalence: the windowed/wNAF/Shamir implementations
// must be bit-identical to the naive double-and-add reference. ---

class FastKernelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastKernelEquivalence, WnafScalarMulMatchesNaive) {
  Rng rng(GetParam());
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  for (int i = 0; i < 50; ++i) {
    const U256 k = random_scalar(rng);
    EXPECT_EQ(secp::to_affine(secp::scalar_mul(k, p)),
              secp::to_affine(secp::scalar_mul_naive(k, p)));
  }
}

TEST_P(FastKernelEquivalence, CombBaseMulMatchesNaive) {
  Rng rng(GetParam() * 131 + 17);
  for (int i = 0; i < 50; ++i) {
    const U256 k = random_scalar(rng);
    EXPECT_EQ(secp::to_affine(secp::scalar_mul_base(k)),
              secp::to_affine(secp::scalar_mul_naive(k, secp::generator())));
  }
}

TEST_P(FastKernelEquivalence, ShamirMatchesNaiveComposition) {
  Rng rng(GetParam() * 977 + 3);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const U256 u1 = random_scalar(rng);
  const U256 u2 = random_scalar(rng);
  const auto fast = secp::to_affine(secp::double_scalar_mul(u1, u2, p));
  const auto naive = secp::to_affine(secp::jadd(secp::scalar_mul_naive(u1, secp::generator()),
                                                secp::scalar_mul_naive(u2, p)));
  EXPECT_EQ(fast, naive);
}

TEST_P(FastKernelEquivalence, BinaryGcdInverseMatchesFermat) {
  Rng rng(GetParam() * 59 + 29);
  const U256 a = random_scalar(rng);
  EXPECT_EQ(invmod_odd(a, secp::order_n()), invmod_prime(a, secp::order_n()));
  const U256 b = random_u256(rng) % secp::field_p();
  if (!b.is_zero()) {
    EXPECT_EQ(invmod_odd(b, secp::field_p()), invmod_prime(b, secp::field_p()));
  }
}

TEST_P(FastKernelEquivalence, DivstepsInverseMatchesBinaryGcd) {
  Rng rng(GetParam() * 6151 + 11);
  for (int i = 0; i < 40; ++i) {
    const U256 a = random_scalar(rng);
    EXPECT_EQ(invmod_odd_var(a, secp::order_n()), invmod_odd(a, secp::order_n()));
    const U256 b = random_u256(rng) % secp::field_p();
    if (!b.is_zero()) {
      EXPECT_EQ(invmod_odd_var(b, secp::field_p()), invmod_odd(b, secp::field_p()));
    }
  }
}

TEST(FastKernelEdgeCases, DivstepsInverseEdges) {
  const U256& n = secp::order_n();
  const U256& p = secp::field_p();
  for (const U256* m : {&n, &p}) {
    // 1, m-1, tiny, sparse high-bit, and near-half patterns.
    const U256 cases[] = {U256::one(),           *m - U256::one(),     U256(2),
                          U256(3),               U256::one() << 255,   (U256::one() << 255) | U256::one(),
                          *m >> 1,               (*m >> 1) + U256::one()};
    for (const U256& a : cases) {
      const U256 r = invmod_odd_var(a, *m);
      EXPECT_EQ(r, invmod_odd(a, *m)) << a.to_hex();
      // Round-trip: a * a^-1 == 1 (mod m). mulmod via 512-bit divmod.
      EXPECT_EQ(divmod(a.mul_wide(r), *m).remainder, U256::one()) << a.to_hex();
    }
  }
  // a == 0 and a >= m are handled like the hot-path callers expect.
  EXPECT_TRUE(invmod_odd_var(U256::zero(), n).is_zero());
  EXPECT_EQ(invmod_odd_var(n + U256(5), n), invmod_odd(U256(5), n));
  // Non-coprime input to an odd composite modulus: no inverse, returns 0.
  EXPECT_TRUE(invmod_odd_var(U256(3), U256(9)).is_zero());
}

TEST_P(FastKernelEquivalence, SquareMatchesSelfMultiply) {
  Rng rng(GetParam() * 7919 + 1);
  const U256 a = random_u256(rng) % secp::field_p();
  EXPECT_EQ(secp::fsqr(a), secp::fmul(a, a));
}

// 20 seeds x 50 iterations = 1000 random scalars through each kernel.
INSTANTIATE_TEST_SUITE_P(Seeds, FastKernelEquivalence, ::testing::Range<std::uint64_t>(300, 320));

TEST(FastKernelEdgeCases, EdgeScalars) {
  Rng rng(424242);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const U256 n_minus_1 = secp::order_n() - U256::one();

  // k = 0 -> identity everywhere.
  EXPECT_TRUE(secp::scalar_mul(U256::zero(), p).is_infinity());
  EXPECT_TRUE(secp::scalar_mul_base(U256::zero()).is_infinity());
  EXPECT_TRUE(secp::scalar_mul_naive(U256::zero(), p).is_infinity());

  // k = 1 -> the point itself.
  EXPECT_EQ(secp::to_affine(secp::scalar_mul(U256::one(), p)), p);
  EXPECT_EQ(secp::to_affine(secp::scalar_mul_base(U256::one())), secp::generator());

  // k = n-1 -> -P (negation), and fast == naive.
  const auto neg_fast = secp::to_affine(secp::scalar_mul(n_minus_1, p));
  const auto neg_naive = secp::to_affine(secp::scalar_mul_naive(n_minus_1, p));
  EXPECT_EQ(neg_fast, neg_naive);
  EXPECT_EQ(neg_fast.x, p.x);
  EXPECT_EQ(neg_fast.y, secp::fneg(p.y));

  // Point at infinity inputs.
  const auto inf = secp::AffinePoint::identity();
  EXPECT_TRUE(secp::scalar_mul(U256(7), inf).is_infinity());
  EXPECT_TRUE(secp::scalar_mul_naive(U256(7), inf).is_infinity());
  EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(U256(5), U256(9), inf)),
            secp::to_affine(secp::scalar_mul_base(U256(5))));

  // Degenerate Shamir operands fall back to single-scalar paths.
  EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(U256::zero(), U256(9), p)),
            secp::to_affine(secp::scalar_mul(U256(9), p)));
  EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(U256(5), U256::zero(), p)),
            secp::to_affine(secp::scalar_mul_base(U256(5))));
  EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(n_minus_1, n_minus_1, p)),
            secp::to_affine(secp::jadd(secp::scalar_mul_naive(n_minus_1, secp::generator()),
                                       secp::scalar_mul_naive(n_minus_1, p))));
}

// --- GLV endomorphism: decomposition identities and the four-stream
// multi-scalar kernels (per-call shared-frame tables and the cached
// wide-precomp variant) pinned against the naive reference. ---

class GlvProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlvProperty, SplitRecombinesWithSignsAndBounds) {
  Rng rng(GetParam() * 6151 + 11);
  const U256& n = secp::order_n();
  for (int i = 0; i < 50; ++i) {
    const U256 k = random_scalar(rng);
    const auto s = secp::glv_split(k);
    // Magnitudes stay half-length: the lattice bound is < 2^129.
    if (!s.k1.is_zero()) { EXPECT_LE(s.k1.top_bit(), 129); }
    if (!s.k2.is_zero()) { EXPECT_LE(s.k2.top_bit(), 129); }
    // A negated magnitude is never zero (zero never exceeds n/2).
    if (s.neg1) { EXPECT_FALSE(s.k1.is_zero()); }
    if (s.neg2) { EXPECT_FALSE(s.k2.is_zero()); }
    // k ≡ (±k1) + λ·(±k2) (mod n).
    const U256 t1 = s.neg1 ? n - s.k1 : s.k1;
    const U256 t2 = s.neg2 ? n - s.k2 : s.k2;
    EXPECT_EQ(secp::nadd(t1, secp::nmul(secp::glv_lambda(), t2)), k);
  }
}

TEST_P(GlvProperty, EndomorphismIsLambdaMultiplication) {
  Rng rng(GetParam() * 271 + 5);
  // φ(P) = (β·x, y) must equal λ·P for arbitrary P.
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const secp::AffinePoint phi{secp::fmul(secp::glv_beta(), p.x), p.y, false};
  EXPECT_TRUE(secp::on_curve(phi));
  EXPECT_EQ(phi, secp::to_affine(secp::scalar_mul_naive(secp::glv_lambda(), p)));
}

TEST_P(GlvProperty, MultiScalarMatchesNaiveComposition) {
  Rng rng(GetParam() * 389 + 7);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  for (int i = 0; i < 10; ++i) {
    const U256 u1 = random_scalar(rng);
    const U256 u2 = random_scalar(rng);
    const auto naive = secp::to_affine(secp::jadd(secp::scalar_mul_naive(u1, secp::generator()),
                                                  secp::scalar_mul_naive(u2, p)));
    // GLV with per-call shared-frame tables (the cold verify path).
    EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(u1, u2, p)), naive);
    // Legacy Shamir baseline stays equivalent too.
    EXPECT_EQ(secp::to_affine(secp::double_scalar_mul_shamir(u1, u2, p)), naive);
  }
}

TEST_P(GlvProperty, PrecompKernelMatchesPerCallKernel) {
  Rng rng(GetParam() * 911 + 13);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const auto pre = secp::build_pubkey_precomp(p);
  secp::PointTables tables;
  secp::build_point_tables(p, tables);
  for (int i = 0; i < 10; ++i) {
    const U256 u1 = random_scalar(rng);
    const U256 u2 = random_scalar(rng);
    const auto cold = secp::to_affine(secp::double_scalar_mul_tables(u1, u2, tables));
    const auto warm = secp::to_affine(secp::double_scalar_mul_precomp(u1, u2, pre));
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(warm, secp::to_affine(secp::double_scalar_mul_shamir(u1, u2, p)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlvProperty, ::testing::Range<std::uint64_t>(500, 510));

TEST(GlvEdgeCases, EdgeScalarSplitsAndKernels) {
  Rng rng(987654);
  const U256& n = secp::order_n();
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const auto pre = secp::build_pubkey_precomp(p);

  const U256 edges[] = {U256::zero(),          U256::one(),
                        n - U256::one(),       secp::half_order(),
                        secp::half_order() + U256::one(), secp::glv_lambda(),
                        n - secp::glv_lambda()};
  for (const U256& k : edges) {
    // Split recombines even at the extremes (0 splits to (0, 0)).
    const auto s = secp::glv_split(k);
    const U256 t1 = s.neg1 ? n - s.k1 : s.k1;
    const U256 t2 = s.neg2 ? n - s.k2 : s.k2;
    EXPECT_EQ(secp::nadd(t1, secp::nmul(secp::glv_lambda(), t2)), k);
    // Every (edge, edge) pair through both GLV kernels vs the reference.
    for (const U256& u2 : edges) {
      if (u2.is_zero()) continue;  // precomp kernel requires u2 != 0 upstream
      const auto naive = secp::to_affine(secp::jadd(
          secp::scalar_mul_naive(k, secp::generator()), secp::scalar_mul_naive(u2, p)));
      EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(k, u2, p)), naive);
      EXPECT_EQ(secp::to_affine(secp::double_scalar_mul_precomp(k, u2, pre)), naive);
    }
  }
}

class EcdsaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdsaProperty, SignVerifyHolds) {
  Rng rng(GetParam());
  const auto key = PrivateKey::from_scalar(random_scalar(rng));
  ASSERT_TRUE(key.has_value());
  const auto pub = PublicKey::derive(*key);
  const auto msg = rng.bytes<48>();
  const auto digest = sha256({msg.data(), msg.size()});
  const Signature sig = ecdsa_sign(*key, digest);
  EXPECT_TRUE(ecdsa_verify(pub, digest, sig));
}

TEST_P(EcdsaProperty, TamperedSignatureFails) {
  Rng rng(GetParam());
  const auto key = PrivateKey::from_scalar(random_scalar(rng));
  const auto pub = PublicKey::derive(*key);
  const auto msg = rng.bytes<48>();
  const auto digest = sha256({msg.data(), msg.size()});
  Signature sig = ecdsa_sign(*key, digest);
  // Flip a random bit of r or s.
  const unsigned bitpos = static_cast<unsigned>(rng.below(256));
  if (rng.chance(0.5)) {
    sig.r = sig.r + (U256::one() << bitpos);
    sig.r = sig.r % secp::order_n();
  } else {
    sig.s = sig.s + (U256::one() << bitpos);
    sig.s = sig.s % secp::order_n();
  }
  if (sig.r.is_zero() || sig.s.is_zero()) return;  // degenerate flip; skip
  EXPECT_FALSE(ecdsa_verify(pub, digest, sig));
}

TEST_P(EcdsaProperty, DeterministicSignatures) {
  Rng rng(GetParam());
  const auto key = PrivateKey::from_scalar(random_scalar(rng));
  const auto msg = rng.bytes<32>();
  const auto digest = sha256({msg.data(), msg.size()});
  EXPECT_EQ(ecdsa_sign(*key, digest), ecdsa_sign(*key, digest));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdsaProperty, ::testing::Range<std::uint64_t>(200, 210));

class MerkleProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProperty, AllBranchesVerifyAtThisSize) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<Hash32> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(rng.bytes<32>());
  const Hash32 root = merkle_root(leaves);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto branch = merkle_branch(leaves, i);
    EXPECT_TRUE(merkle_verify(leaves[i], branch, root)) << "leaf " << i << " of " << n;
    // And the branch depth is ceil(log2(n)) for n > 1.
    if (n > 1) {
      std::size_t depth = 0;
      std::size_t m = n;
      while (m > 1) {
        m = (m + 1) / 2;
        ++depth;
      }
      EXPECT_EQ(branch.siblings.size(), depth);
    }
  }
}

TEST_P(MerkleProperty, ForeignLeafNeverVerifies) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 7);
  std::vector<Hash32> leaves;
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(rng.bytes<32>());
  const Hash32 root = merkle_root(leaves);
  const Hash32 foreign = rng.bytes<32>();
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_FALSE(merkle_verify(foreign, merkle_branch(leaves, i), root));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProperty,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 100));

}  // namespace
}  // namespace btcfast::crypto
