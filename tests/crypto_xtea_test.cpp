#include "crypto/xtea.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace zmail::crypto {
namespace {

TEST(Xtea, BlockRoundTrip) {
  const XteaKey key{0x01234567, 0x89ABCDEF, 0xFEDCBA98, 0x76543210};
  for (std::uint64_t block :
       {0ULL, 1ULL, 0xDEADBEEFCAFEBABEULL, ~0ULL}) {
    EXPECT_EQ(xtea_decrypt_block(xtea_encrypt_block(block, key), key), block);
  }
}

TEST(Xtea, EncryptionActuallyChangesBlock) {
  const XteaKey key{1, 2, 3, 4};
  EXPECT_NE(xtea_encrypt_block(0, key), 0u);
  EXPECT_NE(xtea_encrypt_block(42, key), 42u);
}

TEST(Xtea, DifferentKeysDifferentCiphertext) {
  const XteaKey k1{1, 2, 3, 4}, k2{1, 2, 3, 5};
  EXPECT_NE(xtea_encrypt_block(777, k1), xtea_encrypt_block(777, k2));
}

TEST(XteaCtr, RoundTripVariousLengths) {
  const XteaKey key = xtea_key_from_bytes(from_string("secret"));
  zmail::Rng rng(3);
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 64u, 1000u}) {
    Bytes plain(len);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_u64());
    const Bytes ct = xtea_ctr(plain, key, 12345);
    EXPECT_EQ(ct.size(), plain.size());
    EXPECT_EQ(xtea_ctr(ct, key, 12345), plain) << "len=" << len;
  }
}

TEST(XteaCtr, DifferentNoncesDifferentStreams) {
  const XteaKey key = xtea_key_from_bytes(from_string("k"));
  const Bytes plain(64, 0x00);
  EXPECT_NE(xtea_ctr(plain, key, 1), xtea_ctr(plain, key, 2));
}

TEST(XteaCtr, NonTrivialCiphertext) {
  const XteaKey key = xtea_key_from_bytes(from_string("k"));
  const Bytes plain(32, 0xAA);
  const Bytes ct = xtea_ctr(plain, key, 9);
  EXPECT_NE(ct, plain);
  // Keystream bytes should not all be equal.
  bool varied = false;
  for (std::size_t i = 1; i < ct.size(); ++i)
    if (ct[i] != ct[0]) varied = true;
  EXPECT_TRUE(varied);
}

// One block at a time, as CTR is defined: block i's keystream is
// E(nonce ^ i), big-endian.
Bytes ctr_reference(const Bytes& data, const XteaKey& key,
                    std::uint64_t nonce) {
  Bytes out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint64_t ks = xtea_encrypt_block(nonce ^ (i / 8), key);
    out[i] = static_cast<std::uint8_t>(data[i] ^ (ks >> (56 - 8 * (i % 8))));
  }
  return out;
}

TEST(XteaCtr, InterleavedEqualsSingleBlockReference) {
  const XteaKey key = xtea_key_from_bytes(from_string("lanes"));
  zmail::Rng rng(80);
  Bytes out;
  for (std::uint64_t nonce : {0ULL, 12345ULL, ~0ULL - 5, ~0ULL - 1, ~0ULL}) {
    for (std::size_t len = 0; len <= 80; ++len) {
      Bytes plain(len);
      for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_u64());
      xtea_ctr_into(plain, key, nonce, out);  // reuses out's capacity
      EXPECT_EQ(out, ctr_reference(plain, key, nonce))
          << "len=" << len << " nonce=" << nonce;
    }
  }
}

TEST(XteaCtr, KeystreamGolden) {
  // Recorded from the one-block-at-a-time loop this one replaced.
  const XteaKey key = xtea_key_from_bytes(from_string("golden"));
  EXPECT_EQ(to_hex(xtea_ctr(Bytes(24, 0), key, 0xFFFFFFFFFFFFFFFEULL)),
            "22c9ae1cbc3026e228c221c16257346bb0f118b69f8f4a76");
}

TEST(XteaKeyDerivation, DeterministicAndSpread) {
  const XteaKey a = xtea_key_from_bytes(from_string("material"));
  const XteaKey b = xtea_key_from_bytes(from_string("material"));
  const XteaKey c = xtea_key_from_bytes(from_string("material2"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  const Bytes m = from_string("material");
  EXPECT_EQ(xtea_key_from_bytes(m.data(), m.size()), a);
}

}  // namespace
}  // namespace zmail::crypto
