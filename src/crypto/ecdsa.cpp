#include "crypto/ecdsa.h"

#include "crypto/hmac.h"

namespace btcfast::crypto {
namespace {

/// RFC 6979 nonce generation (SHA-256 variant), returning k in [1, n-1].
U256 rfc6979_nonce(const U256& d, const Sha256Digest& digest) noexcept {
  const U256& n = secp::order_n();
  const auto x = d.to_be_bytes();

  ByteArray<32> v{};
  ByteArray<32> k{};
  v.fill(0x01);
  k.fill(0x00);

  Bytes buf;
  buf.reserve(32 + 1 + 32 + 32);

  auto hmac_update = [&](std::uint8_t sep) {
    buf.assign(v.begin(), v.end());
    buf.push_back(sep);
    buf.insert(buf.end(), x.begin(), x.end());
    buf.insert(buf.end(), digest.begin(), digest.end());
    k = hmac_sha256({k.data(), k.size()}, {buf.data(), buf.size()});
    v = hmac_sha256({k.data(), k.size()}, {v.data(), v.size()});
  };

  hmac_update(0x00);
  hmac_update(0x01);

  for (;;) {
    v = hmac_sha256({k.data(), k.size()}, {v.data(), v.size()});
    const U256 cand = U256::from_be_bytes({v.data(), v.size()});
    if (!cand.is_zero() && cand < n) return cand;
    buf.assign(v.begin(), v.end());
    buf.push_back(0x00);
    k = hmac_sha256({k.data(), k.size()}, {buf.data(), buf.size()});
    v = hmac_sha256({k.data(), k.size()}, {v.data(), v.size()});
  }
}

U256 digest_to_scalar(const Sha256Digest& digest) noexcept {
  return secp::nreduce(U256::from_be_bytes({digest.data(), digest.size()}));
}

}  // namespace

std::optional<PrivateKey> PrivateKey::from_bytes(ByteSpan b) noexcept {
  if (b.size() != 32) return std::nullopt;
  return from_scalar(U256::from_be_bytes(b));
}

std::optional<PrivateKey> PrivateKey::from_scalar(const U256& d) noexcept {
  if (d.is_zero() || d >= secp::order_n()) return std::nullopt;
  return PrivateKey(d);
}

PublicKey PublicKey::derive(const PrivateKey& key) noexcept {
  return PublicKey(secp::to_affine(secp::scalar_mul_base(key.scalar())));
}

std::optional<PublicKey> PublicKey::parse(ByteSpan b) noexcept {
  auto p = secp::decompress(b);
  if (!p) return std::nullopt;
  return PublicKey(*p);
}

ByteArray<64> Signature::serialize() const noexcept {
  ByteArray<64> out{};
  const auto rb = r.to_be_bytes();
  const auto sb = s.to_be_bytes();
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = rb[i];
    out[32 + i] = sb[i];
  }
  return out;
}

std::optional<Signature> Signature::parse(ByteSpan b) noexcept {
  if (b.size() != 64) return std::nullopt;
  Signature sig;
  sig.r = U256::from_be_bytes(b.first(32));
  sig.s = U256::from_be_bytes(b.subspan(32));
  const U256& n = secp::order_n();
  if (sig.r.is_zero() || sig.s.is_zero() || sig.r >= n || sig.s >= n) return std::nullopt;
  return sig;
}

Signature ecdsa_sign(const PrivateKey& key, const Sha256Digest& digest, bool* r_odd) noexcept {
  const U256& n = secp::order_n();
  const U256 z = digest_to_scalar(digest);

  U256 k = rfc6979_nonce(key.scalar(), digest);
  for (;;) {
    const secp::AffinePoint rp = secp::to_affine(secp::scalar_mul_base(k));
    const U256 r = secp::nreduce(rp.x);
    if (!r.is_zero()) {
      const U256 kinv = secp::ninv(k);
      U256 s = secp::nmul(kinv, secp::nadd(z, secp::nmul(r, key.scalar())));
      if (!s.is_zero()) {
        // Low-s normalization negates the effective nonce, and with it R.
        const bool flip = s > secp::half_order();
        if (flip) s = n - s;
        if (r_odd != nullptr) *r_odd = rp.y.bit(0) != flip;
        return Signature{r, s};
      }
    }
    // Astronomically unlikely: derive a fresh nonce by re-keying on k.
    const auto kb = k.to_be_bytes();
    const Sha256Digest rehash = sha256({kb.data(), kb.size()});
    k = U256::from_be_bytes({rehash.data(), rehash.size()});
    if (k.is_zero() || k >= n) k = U256::one();
  }
}

namespace {

/// x(R) ≡ r (mod n) without normalizing R: x(R) = X/Z², so the affine x
/// is a candidate c < p with c ≡ r (mod n) iff X == c·Z² (mod p). The
/// candidates are r itself and, only when r + n < p, r + n.
bool check_r_matches(const U256& r, const secp::JacobianPoint& rj) noexcept {
  if (rj.is_infinity()) return false;
  const U256 zz = secp::fsqr(rj.z);
  if (secp::fmul(r, zz) == rj.x) return true;
  return r < secp::field_p() - secp::order_n() && secp::fmul(r + secp::order_n(), zz) == rj.x;
}

/// Range-check the signature and derive the two verify scalars.
bool verify_scalars(const Sha256Digest& digest, const Signature& sig, U256& u1,
                    U256& u2) noexcept {
  const U256& n = secp::order_n();
  if (sig.r.is_zero() || sig.s.is_zero() || sig.r >= n || sig.s >= n) return false;
  const U256 z = digest_to_scalar(digest);
  const U256 w = secp::ninv(sig.s);
  u1 = secp::nmul(z, w);
  u2 = secp::nmul(sig.r, w);
  return true;
}

/// Same derivation through the frozen binary-GCD inverse: the baseline
/// verify must keep the full PR-6 cost profile, inversion included.
bool verify_scalars_baseline(const Sha256Digest& digest, const Signature& sig, U256& u1,
                             U256& u2) noexcept {
  const U256& n = secp::order_n();
  if (sig.r.is_zero() || sig.s.is_zero() || sig.r >= n || sig.s >= n) return false;
  const U256 z = digest_to_scalar(digest);
  const U256 w = secp::ninv_baseline(sig.s);
  u1 = secp::nmul(z, w);
  u2 = secp::nmul(sig.r, w);
  return true;
}

}  // namespace

bool ecdsa_verify(const PublicKey& key, const Sha256Digest& digest, const Signature& sig) noexcept {
  U256 u1, u2;
  if (!verify_scalars(digest, sig, u1, u2)) return false;
  return check_r_matches(sig.r, secp::double_scalar_mul(u1, u2, key.point()));
}

bool ecdsa_verify_precomp(const Sha256Digest& digest, const Signature& sig,
                          const secp::PubkeyPrecomp& pre) noexcept {
  U256 u1, u2;
  if (!verify_scalars(digest, sig, u1, u2)) return false;
  return check_r_matches(sig.r, secp::double_scalar_mul_precomp(u1, u2, pre));
}

bool ecdsa_verify_baseline(const PublicKey& key, const Sha256Digest& digest,
                           const Signature& sig) noexcept {
  U256 u1, u2;
  if (!verify_scalars_baseline(digest, sig, u1, u2)) return false;
  return check_r_matches(sig.r, secp::double_scalar_mul_shamir(u1, u2, key.point()));
}

bool ecdsa_verify_prepared(const Sha256Digest& digest, const Signature& sig, const U256& w,
                           const secp::PointTables& tables) noexcept {
  // u2 = r·w is nonzero mod the prime n (r, w both nonzero), so the
  // tables path needs no u2 == 0 fallback.
  const U256 z = digest_to_scalar(digest);
  return check_r_matches(sig.r, secp::double_scalar_mul_tables(secp::nmul(z, w),
                                                               secp::nmul(sig.r, w), tables));
}

bool ecdsa_verify_prepared(const Sha256Digest& digest, const Signature& sig, const U256& w,
                           const secp::PubkeyPrecomp& pre) noexcept {
  const U256 z = digest_to_scalar(digest);
  return check_r_matches(sig.r, secp::double_scalar_mul_precomp(secp::nmul(z, w),
                                                                secp::nmul(sig.r, w), pre));
}

}  // namespace btcfast::crypto
