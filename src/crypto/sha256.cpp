#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace zmail::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)
// SHA-NI: each _mm_sha256rnds2_epu32 does two rounds on the state split as
// ABEF/CDGH; msg1/msg2 extend the schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* p, std::size_t nblocks) noexcept {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  s1 = _mm_shuffle_epi32(s1, 0x1B);          // EFGH
  __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);  // ABEF
  s1 = _mm_blend_epi16(s1, tmp, 0xF0);       // CDGH

  for (; nblocks > 0; --nblocks, p += 64) {
    const __m128i abef = s0;
    const __m128i cdgh = s1;
    __m128i w[4] = {};
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i cur;
      if (i < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i)),
            kByteSwap);
      } else {
        // W[t] from W[t-16], W[t-15], W[t-7] (alignr of the two previous
        // groups) and W[t-2].
        cur = _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]);
        cur = _mm_add_epi32(cur,
                            _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4));
        cur = _mm_sha256msg2_epu32(cur, w[(i + 3) & 3]);
      }
      w[i & 3] = cur;
      __m128i m = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * i])));
      s1 = _mm_sha256rnds2_epu32(s1, s0, m);
      m = _mm_shuffle_epi32(m, 0x0E);
      s0 = _mm_sha256rnds2_epu32(s0, s1, m);
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }

  tmp = _mm_shuffle_epi32(s0, 0x1B);    // FEBA
  s1 = _mm_shuffle_epi32(s1, 0xB1);     // DCHG
  s0 = _mm_blend_epi16(tmp, s1, 0xF0);  // DCBA
  s1 = _mm_alignr_epi8(s1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), s0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), s1);
}
#endif

Sha256Compress pick_kernel() noexcept {
  const Sha256Compress shani = sha256_compress_shani();
  return shani ? shani : sha256_compress_portable;
}

inline void compress(std::uint32_t* state, const std::uint8_t* p,
                     std::size_t nblocks) noexcept {
  static const Sha256Compress kernel = pick_kernel();
  kernel(state, p, nblocks);
}

}  // namespace

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* p,
                              std::size_t nblocks) noexcept {
  for (; nblocks > 0; --nblocks, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(p[4 * i]) << 24) |
             (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

Sha256Compress sha256_compress_shani() noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3"))
    return compress_shani;
#endif
  return nullptr;
}

Sha256::Sha256() noexcept
    : h_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

Sha256& Sha256::update(const std::uint8_t* data, std::size_t len) noexcept {
  if (len == 0) return *this;
  total_len_ += len;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(len, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    len -= take;
    if (buf_len_ < buf_.size()) return *this;
    compress(h_.data(), buf_.data(), 1);
    buf_len_ = 0;
  }
  // Whole blocks straight from the input, the tail into the buffer.
  const std::size_t nblocks = len / 64;
  if (nblocks > 0) {
    compress(h_.data(), data, nblocks);
    data += 64 * nblocks;
    len -= 64 * nblocks;
  }
  if (len > 0) {
    std::memcpy(buf_.data(), data, len);
    buf_len_ = len;
  }
  return *this;
}

Digest Sha256::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    compress(h_.data(), buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  store_u64(buf_.data() + 56, bit_len);
  compress(h_.data(), buf_.data(), 1);

  Digest out;
  for (int i = 0; i < 8; ++i) store_u32(out.data() + 4 * i, h_[i]);
  return out;
}

Digest sha256(const std::uint8_t* data, std::size_t len) noexcept {
  Sha256 h;
  h.update(data, len);
  return h.finish();
}

Digest sha256(const Bytes& data) noexcept {
  return sha256(data.data(), data.size());
}

Digest sha256(std::string_view data) noexcept {
  return sha256(reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size());
}

std::string digest_hex(const Digest& d) {
  return to_hex(Bytes(d.begin(), d.end()));
}

int leading_zero_bits(const Digest& d) noexcept {
  int bits = 0;
  for (std::uint8_t byte : d) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    for (int b = 7; b >= 0; --b) {
      if (byte & (1u << b)) return bits;
      ++bits;
    }
  }
  return bits;
}

}  // namespace zmail::crypto
