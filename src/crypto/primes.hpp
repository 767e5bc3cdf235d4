// Modular arithmetic and probabilistic primality testing.
//
// Supports the RSA-style keypair used to realize the paper's B_b/R_b
// (bank public/private key) and the NCR/DCR operations of Section 4.3.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace zmail::crypto {

// (a * b) mod m without overflow, via 128-bit intermediate.
std::uint64_t mulmod(std::uint64_t a, std::uint64_t b,
                     std::uint64_t m) noexcept;

// (base ^ exp) mod m.  Odd m < 2^63 (every RSA modulus and Miller-Rabin
// candidate here) runs in Montgomery form; other m take the 128-bit `%`
// path.  Both return the same value.
std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                     std::uint64_t m) noexcept;

// Deterministic Miller-Rabin for 64-bit integers (known witness set).
bool is_prime_u64(std::uint64_t n) noexcept;

// Random prime with exactly `bits` bits (2..62), using the provided Rng.
std::uint64_t random_prime(zmail::Rng& rng, int bits) noexcept;

// Extended GCD; returns g and sets x, y with a*x + b*y = g.
std::int64_t egcd(std::int64_t a, std::int64_t b, std::int64_t& x,
                  std::int64_t& y) noexcept;

// Modular inverse of a mod m; requires gcd(a, m) == 1.
std::uint64_t modinv(std::uint64_t a, std::uint64_t m) noexcept;

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) noexcept;

}  // namespace zmail::crypto
