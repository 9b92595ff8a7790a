#include "crypto/ripemd160.h"

#include <cstring>

namespace btcfast::crypto {
namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) noexcept { return (x << n) | (x >> (32 - n)); }

inline std::uint32_t f(int j, std::uint32_t x, std::uint32_t y, std::uint32_t z) noexcept {
  if (j < 16) return x ^ y ^ z;
  if (j < 32) return (x & y) | (~x & z);
  if (j < 48) return (x | ~y) ^ z;
  if (j < 64) return (x & z) | (y & ~z);
  return x ^ (y | ~z);
}

constexpr std::uint32_t kKL[5] = {0x00000000, 0x5a827999, 0x6ed9eba1, 0x8f1bbcdc, 0xa953fd4e};
constexpr std::uint32_t kKR[5] = {0x50a28be6, 0x5c4dd124, 0x6d703ef3, 0x7a6d76e9, 0x00000000};

constexpr int kRL[80] = {0,  1, 2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 7,  4,
                         13, 1, 10, 6,  15, 3,  12, 0,  9,  5,  2,  14, 11, 8,  3,  10, 14, 4,
                         9,  15, 8, 1,  2,  7,  0,  6,  13, 11, 5,  12, 1,  9,  11, 10, 0,  8,
                         12, 4, 13, 3,  7,  15, 14, 5,  6,  2,  4,  0,  5,  9,  7,  12, 2,  10,
                         14, 1, 3,  8,  11, 6,  15, 13};
constexpr int kRR[80] = {5,  14, 7,  0,  9,  2,  11, 4,  13, 6,  15, 8,  1,  10, 3,  12, 6,  11,
                         3,  7,  0,  13, 5,  10, 14, 15, 8,  12, 4,  9,  1,  2,  15, 5,  1,  3,
                         7,  14, 6,  9,  11, 8,  12, 2,  10, 0,  4,  13, 8,  6,  4,  1,  3,  11,
                         15, 0,  5,  12, 2,  13, 9,  7,  10, 14, 12, 15, 10, 4,  1,  5,  8,  7,
                         6,  2,  13, 14, 0,  3,  9,  11};
constexpr int kSL[80] = {11, 14, 15, 12, 5,  8,  7,  9,  11, 13, 14, 15, 6,  7,  9,  8,  7,  6,
                         8,  13, 11, 9,  7,  15, 7,  12, 15, 9,  11, 7,  13, 12, 11, 13, 6,  7,
                         14, 9,  13, 15, 14, 8,  13, 6,  5,  12, 7,  5,  11, 12, 14, 15, 14, 15,
                         9,  8,  9,  14, 5,  6,  8,  6,  5,  12, 9,  15, 5,  11, 6,  8,  13, 12,
                         5,  12, 13, 14, 11, 8,  5,  6};
constexpr int kSR[80] = {8,  9,  9,  11, 13, 15, 15, 5,  7,  7,  8,  11, 14, 14, 12, 6,  9,  13,
                         15, 7,  12, 8,  9,  11, 7,  7,  12, 7,  6,  15, 13, 11, 9,  7,  15, 11,
                         8,  6,  6,  14, 12, 13, 5,  14, 13, 13, 7,  5,  15, 5,  8,  11, 14, 14,
                         6,  14, 6,  9,  12, 9,  12, 5,  15, 8,  8,  5,  12, 9,  12, 5,  14, 6,
                         8,  13, 6,  5,  15, 13, 11, 11};

struct State {
  std::uint32_t h[5] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0};
};

void compress(State& st, const std::uint8_t* block) noexcept {
  std::uint32_t x[16];
  for (int i = 0; i < 16; ++i) {
    x[i] = static_cast<std::uint32_t>(block[4 * i]) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 8) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 3]) << 24);
  }

  std::uint32_t al = st.h[0], bl = st.h[1], cl = st.h[2], dl = st.h[3], el = st.h[4];
  std::uint32_t ar = al, br = bl, cr = cl, dr = dl, er = el;

  for (int j = 0; j < 80; ++j) {
    std::uint32_t t = rotl(al + f(j, bl, cl, dl) + x[kRL[j]] + kKL[j / 16], kSL[j]) + el;
    al = el;
    el = dl;
    dl = rotl(cl, 10);
    cl = bl;
    bl = t;

    t = rotl(ar + f(79 - j, br, cr, dr) + x[kRR[j]] + kKR[j / 16], kSR[j]) + er;
    ar = er;
    er = dr;
    dr = rotl(cr, 10);
    cr = br;
    br = t;
  }

  const std::uint32_t t = st.h[1] + cl + dr;
  st.h[1] = st.h[2] + dl + er;
  st.h[2] = st.h[3] + el + ar;
  st.h[3] = st.h[4] + al + br;
  st.h[4] = st.h[0] + bl + cr;
  st.h[0] = t;
}

}  // namespace

Ripemd160Digest ripemd160(ByteSpan data) noexcept {
  State st;
  std::size_t off = 0;
  while (off + 64 <= data.size()) {
    compress(st, data.data() + off);
    off += 64;
  }

  // Final block(s) with padding: 0x80, zeros, 64-bit little-endian bit length.
  std::uint8_t tail[128];
  const std::size_t rem = data.size() - off;
  if (rem > 0) std::memcpy(tail, data.data() + off, rem);  // data() may be null when empty
  tail[rem] = 0x80;
  const std::size_t tail_len = rem < 56 ? 64 : 128;
  std::memset(tail + rem + 1, 0, tail_len - rem - 1 - 8);
  const std::uint64_t bitlen = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 8 + i] = static_cast<std::uint8_t>(bitlen >> (8 * i));
  }
  compress(st, tail);
  if (tail_len == 128) compress(st, tail + 64);

  Ripemd160Digest out{};
  for (int i = 0; i < 5; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(st.h[i]);
    out[4 * i + 1] = static_cast<std::uint8_t>(st.h[i] >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(st.h[i] >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(st.h[i] >> 24);
  }
  return out;
}

Ripemd160Digest hash160(ByteSpan data) noexcept {
  const Sha256Digest inner = sha256(data);
  return ripemd160({inner.data(), inner.size()});
}

}  // namespace btcfast::crypto
