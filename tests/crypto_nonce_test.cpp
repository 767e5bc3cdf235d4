#include "crypto/nonce.hpp"

#include <gtest/gtest.h>

#include <set>

namespace zmail::crypto {
namespace {

TEST(Nonce, NonrepetitionOverManyDraws) {
  // The paper's NNC property 2: nonrepetition.
  NonceGenerator gen(42);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (int i = 0; i < 10'000; ++i) {
    const Nonce n = gen.next();
    EXPECT_TRUE(seen.insert({n.counter, n.prf}).second) << "repeat at " << i;
  }
  EXPECT_EQ(gen.issued(), 10'000u);
}

TEST(Nonce, CounterIsStrictlyMonotonic) {
  NonceGenerator gen(7);
  std::uint64_t prev = gen.next().counter;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t cur = gen.next().counter;
    EXPECT_EQ(cur, prev + 1);
    prev = cur;
  }
}

TEST(Nonce, PrfHalfLooksUnpredictable) {
  // The paper's NNC property 1: unpredictability.  Weak statistical check:
  // consecutive PRF values are not equal, not sequential, and have spread
  // bits.
  NonceGenerator gen(123);
  std::set<std::uint64_t> prfs;
  for (int i = 0; i < 1000; ++i) prfs.insert(gen.next().prf);
  EXPECT_EQ(prfs.size(), 1000u);  // no collisions in the PRF half either
}

TEST(Nonce, DifferentSecretsDifferentStreams) {
  NonceGenerator a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next().prf == b.next().prf) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Nonce, SameSecretSameStream) {
  NonceGenerator a(5), b(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

// Recorded from the implementation that re-derived the HMAC pads for every
// nonce; the keyed-once PRF must reproduce the stream exactly.
TEST(Nonce, GoldenStream) {
  const std::uint64_t expected_prf[16] = {
      0xA4B398EF41899A3B,
      0x03E2563FE5231D29,
      0x19EC00CAEC8D3120,
      0x62FD1D9066C507BB,
      0x7786B6CB11907CC5,
      0xD82515451D1C94A5,
      0xC610B15A5E794D8B,
      0x84EB71508BF2F083,
      0x0C1D828B3D01F568,
      0x6CD01612421A3CDD,
      0x1D3F78B2417BEE8C,
      0x865AE622EBF4BFC5,
      0xA910DFE2F22E240C,
      0x8BEC86CBBA10A02E,
      0x9B4EAC3982B89940,
      0x493EB4206E08F177,
  };
  NonceGenerator gen(42);
  for (std::uint64_t i = 0; i < 16; ++i)
    EXPECT_EQ(gen.next(), (Nonce{i, expected_prf[i]})) << i;
}

TEST(Nonce, GoldenStreamAfterRestore) {
  NonceGenerator gen(42);
  gen.next();
  gen.restore_issued(1'000'000);
  EXPECT_EQ(gen.next(), (Nonce{1'000'000, 0x0313D02C196F3144}));
  EXPECT_EQ(gen.next(), (Nonce{1'000'001, 0xE9453B4823C965E0}));
  gen.restore_issued(0xFFFFFFFFFFFFFFF0);
  EXPECT_EQ(gen.next(), (Nonce{0xFFFFFFFFFFFFFFF0, 0x39F0071D7000B218}));
  EXPECT_EQ(gen.next(), (Nonce{0xFFFFFFFFFFFFFFF1, 0x786F5BB96396999A}));
  EXPECT_EQ(gen.issued(), 0xFFFFFFFFFFFFFFF2);
}

TEST(Nonce, SerializationRoundTrips) {
  NonceGenerator gen(9);
  const Nonce n = gen.next();
  Bytes b;
  put_nonce(b, n);
  EXPECT_EQ(b.size(), 16u);
  ByteReader r(b);
  const Nonce back = get_nonce(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(back, n);
}

TEST(Nonce, ForgingRequiresPrfHalf) {
  // An attacker who knows the counter cannot guess the PRF half: verify
  // that equality requires both fields.
  NonceGenerator gen(77);
  const Nonce real = gen.next();
  Nonce forged = real;
  forged.prf ^= 0xDEADBEEF;
  EXPECT_FALSE(forged == real);
}

}  // namespace
}  // namespace zmail::crypto
