#include "crypto/primes.hpp"

#include <gtest/gtest.h>

namespace zmail::crypto {
namespace {

TEST(Mulmod, NoOverflowOnLargeOperands) {
  const std::uint64_t m = 0xFFFFFFFFFFFFFFC5ULL;  // large prime
  EXPECT_EQ(mulmod(m - 1, m - 1, m), 1u);  // (-1)^2 = 1 mod m
  EXPECT_EQ(mulmod(0, 12345, m), 0u);
  EXPECT_EQ(mulmod(1, 12345, m), 12345u);
}

TEST(Powmod, BasicIdentities) {
  EXPECT_EQ(powmod(2, 10, 1'000'000'007), 1024u);
  EXPECT_EQ(powmod(5, 0, 7), 1u);
  EXPECT_EQ(powmod(0, 5, 7), 0u);
  EXPECT_EQ(powmod(3, 1, 7), 3u);
  EXPECT_EQ(powmod(10, 2, 1), 0u);  // mod 1
}

TEST(Powmod, FermatLittleTheorem) {
  const std::uint64_t p = 1'000'000'007;
  for (std::uint64_t a : {2ULL, 3ULL, 999999999ULL})
    EXPECT_EQ(powmod(a, p - 1, p), 1u);
}

// Square-and-multiply over mulmod's 128-bit `%`: the reference that
// powmod's Montgomery path must equal.
std::uint64_t powmod_reference(std::uint64_t base, std::uint64_t exp,
                               std::uint64_t m) {
  if (m == 1) return 0;
  std::uint64_t result = 1;
  base %= m;
  for (; exp > 0; exp >>= 1) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
  }
  return result;
}

TEST(Powmod, MontgomeryMatchesReferenceOnRandomOddModuli) {
  zmail::Rng rng(63);
  const std::uint64_t kTop = (1ULL << 63) - 1;  // largest Montgomery modulus
  for (int i = 0; i < 2000; ++i) {
    // Spread the modulus over every bit length up to 63.
    const int bits = 2 + static_cast<int>(rng.next_below(62));
    std::uint64_t m = (rng.next_u64() >> (64 - bits)) | 1;
    if (i < 8) m = kTop - 2 * static_cast<std::uint64_t>(i);
    const std::uint64_t base = rng.next_u64();  // usually >= m
    const std::uint64_t exp = rng.next_u64() >> rng.next_below(64);
    EXPECT_EQ(powmod(base, exp, m), powmod_reference(base, exp, m))
        << base << "^" << exp << " mod " << m;
  }
}

TEST(Powmod, EdgeModuliAndExponents) {
  zmail::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t base = rng.next_u64();
    const std::uint64_t exp = rng.next_u64();
    EXPECT_EQ(powmod(base, exp, 1), 0u);
    EXPECT_EQ(powmod(base, exp, 3), powmod_reference(base, exp, 3));
    EXPECT_EQ(powmod(base, 0, 3), 1u);
    // Even moduli and moduli >= 2^63 take the 128-bit `%` path.
    const std::uint64_t even = rng.next_u64() & ~1ULL;
    if (even != 0) {
      EXPECT_EQ(powmod(base, exp, even), powmod_reference(base, exp, even));
    }
    const std::uint64_t big = rng.next_u64() | (1ULL << 63);
    EXPECT_EQ(powmod(base, exp, big), powmod_reference(base, exp, big));
  }
  const std::uint64_t m = 1'000'000'007;
  EXPECT_EQ(powmod(m, 5, m), 0u);          // base == m
  EXPECT_EQ(powmod(m + 2, 3, m), 8u);      // base > m
  EXPECT_EQ(powmod(~0ULL, 0, m), 1u);      // exp == 0
  EXPECT_EQ(powmod(0, 0, m), 1u);
}

TEST(IsPrime, SmallValues) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(5));
  EXPECT_FALSE(is_prime_u64(9));
  EXPECT_TRUE(is_prime_u64(97));
  EXPECT_FALSE(is_prime_u64(100));
}

TEST(IsPrime, CarmichaelNumbersRejected) {
  // Carmichael numbers fool Fermat tests but not Miller-Rabin.
  for (std::uint64_t c : {561ULL, 1105ULL, 1729ULL, 41041ULL, 825265ULL})
    EXPECT_FALSE(is_prime_u64(c)) << c;
}

TEST(IsPrime, LargeKnownPrimesAndComposites) {
  EXPECT_TRUE(is_prime_u64(1'000'000'007ULL));
  EXPECT_TRUE(is_prime_u64(1'000'000'009ULL));
  EXPECT_TRUE(is_prime_u64((1ULL << 61) - 1));  // Mersenne prime M61
  EXPECT_FALSE(is_prime_u64(1'000'000'007ULL * 3));
  EXPECT_FALSE(is_prime_u64((1ULL << 62) - 1));
}

TEST(RandomPrime, HasRequestedBitLength) {
  zmail::Rng rng(9);
  for (int bits : {8, 16, 31, 40, 62}) {
    const std::uint64_t p = random_prime(rng, bits);
    EXPECT_TRUE(is_prime_u64(p));
    EXPECT_GE(p, 1ULL << (bits - 1));
    EXPECT_LT(p, bits < 64 ? (1ULL << bits) : ~0ULL);
  }
}

TEST(Egcd, BezoutIdentityHolds) {
  std::int64_t x = 0, y = 0;
  const std::int64_t g = egcd(240, 46, x, y);
  EXPECT_EQ(g, 2);
  EXPECT_EQ(240 * x + 46 * y, 2);
}

TEST(Modinv, InverseMultipliesToOne) {
  for (std::uint64_t a : {3ULL, 7ULL, 65537ULL}) {
    const std::uint64_t m = 1'000'000'007ULL;
    const std::uint64_t inv = modinv(a, m);
    EXPECT_EQ(mulmod(a, inv, m), 1u);
  }
}

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd_u64(12, 18), 6u);
  EXPECT_EQ(gcd_u64(17, 5), 1u);
  EXPECT_EQ(gcd_u64(0, 5), 5u);
  EXPECT_EQ(gcd_u64(5, 0), 5u);
}

}  // namespace
}  // namespace zmail::crypto
