#include "crypto/primes.hpp"

#include "util/assert.hpp"

namespace zmail::crypto {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b,
                     std::uint64_t m) noexcept {
  return static_cast<std::uint64_t>(
      static_cast<__uint128_t>(a) * b % m);
}

namespace {

// Montgomery arithmetic modulo an odd m < 2^63 with R = 2^64: a product
// costs three 64-bit multiplies instead of a 128-by-64 division, and the
// bound on m keeps every intermediate of redc() inside 128 bits.
class Montgomery {
 public:
  explicit Montgomery(std::uint64_t m) noexcept : m_(m) {
    // Newton's iteration for m^-1 mod 2^64: m*m == 1 (mod 8), and each
    // step doubles the number of correct low bits (3, 6, 12, 24, 48, 96).
    std::uint64_t inv = m;
    for (int i = 0; i < 5; ++i) inv *= 2 - m * inv;
    neg_inv_ = 0 - inv;
    const std::uint64_t r = (0 - m) % m;  // 2^64 mod m
    r2_ = mulmod(r, r, m);
  }

  std::uint64_t to(std::uint64_t a) const noexcept { return mul(a, r2_); }
  std::uint64_t from(std::uint64_t a) const noexcept { return redc(a); }
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
    return redc(static_cast<__uint128_t>(a) * b);
  }

 private:
  // t * R^-1 mod m, for t < m * R.
  std::uint64_t redc(__uint128_t t) const noexcept {
    const std::uint64_t q = static_cast<std::uint64_t>(t) * neg_inv_;
    const auto r = static_cast<std::uint64_t>(
        (t + static_cast<__uint128_t>(q) * m_) >> 64);
    return r >= m_ ? r - m_ : r;
  }

  std::uint64_t m_;
  std::uint64_t neg_inv_;
  std::uint64_t r2_;
};

}  // namespace

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                     std::uint64_t m) noexcept {
  ZMAIL_ASSERT(m != 0);
  if (m == 1) return 0;
  base %= m;
  if ((m & 1) != 0 && m < (1ULL << 63)) {
    const Montgomery mont(m);
    std::uint64_t result = mont.to(1);
    base = mont.to(base);
    while (exp > 0) {
      if (exp & 1) result = mont.mul(result, base);
      base = mont.mul(base, base);
      exp >>= 1;
    }
    return mont.from(result);
  }
  std::uint64_t result = 1;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

namespace {
// Single Miller-Rabin round with witness a; n odd, n > 2.
bool miller_rabin_round(std::uint64_t n, std::uint64_t a, std::uint64_t d,
                        int r) noexcept {
  std::uint64_t x = powmod(a % n, d, n);
  if (x == 0 || x == 1 || x == n - 1) return true;
  for (int i = 0; i < r - 1; ++i) {
    x = mulmod(x, x, n);
    if (x == n - 1) return true;
  }
  return false;
}
}  // namespace

bool is_prime_u64(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  // Write n-1 = d * 2^r.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // This witness set is deterministic for all n < 2^64 (Sinclair).
  for (std::uint64_t a : {2ULL, 325ULL, 9375ULL, 28178ULL, 450775ULL,
                          9780504ULL, 1795265022ULL}) {
    if (a % n == 0) continue;
    if (!miller_rabin_round(n, a, d, r)) return false;
  }
  return true;
}

std::uint64_t random_prime(zmail::Rng& rng, int bits) noexcept {
  ZMAIL_ASSERT(bits >= 2 && bits <= 62);
  const std::uint64_t lo = 1ULL << (bits - 1);
  const std::uint64_t hi = (1ULL << bits) - 1;
  for (;;) {
    std::uint64_t candidate =
        lo + rng.next_below(hi - lo + 1);
    candidate |= 1;  // odd
    if (is_prime_u64(candidate)) return candidate;
  }
}

std::int64_t egcd(std::int64_t a, std::int64_t b, std::int64_t& x,
                  std::int64_t& y) noexcept {
  if (b == 0) {
    x = 1;
    y = 0;
    return a;
  }
  std::int64_t x1 = 0, y1 = 0;
  const std::int64_t g = egcd(b, a % b, x1, y1);
  x = y1;
  y = x1 - (a / b) * y1;
  return g;
}

std::uint64_t modinv(std::uint64_t a, std::uint64_t m) noexcept {
  std::int64_t x = 0, y = 0;
  const std::int64_t g =
      egcd(static_cast<std::int64_t>(a), static_cast<std::int64_t>(m), x, y);
  ZMAIL_ASSERT_MSG(g == 1, "modular inverse requires coprime inputs");
  const auto mi = static_cast<std::int64_t>(m);
  return static_cast<std::uint64_t>(((x % mi) + mi) % mi);
}

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) noexcept {
  while (b != 0) {
    const std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace zmail::crypto
