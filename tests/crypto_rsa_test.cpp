#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include "crypto/hmac.hpp"
#include "crypto/primes.hpp"

namespace zmail::crypto {
namespace {

class RsaTest : public ::testing::Test {
 protected:
  zmail::Rng rng_{2024};
  KeyPair keys_ = generate_keypair(rng_);
};

TEST_F(RsaTest, KeypairIsConsistent) {
  EXPECT_EQ(keys_.pub.n, keys_.priv.n);
  EXPECT_EQ(keys_.pub.exp, 65537u);
  EXPECT_GT(keys_.pub.n, 1ULL << 60);  // 62-bit modulus by default
}

TEST_F(RsaTest, RawRsaRoundTripsBothDirections) {
  for (std::uint64_t m : {0ULL, 1ULL, 42ULL, 123456789ULL}) {
    EXPECT_EQ(rsa_apply(keys_.priv, rsa_apply(keys_.pub, m)), m);
    EXPECT_EQ(rsa_apply(keys_.pub, rsa_apply(keys_.priv, m)), m);
  }
}

TEST_F(RsaTest, NcrDcrRoundTripPublicToPrivate) {
  const Bytes plain = from_string("buy 500 e-pennies, nonce 17");
  const Envelope env = ncr(keys_.pub, plain, rng_);
  const auto out = dcr(keys_.priv, env);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, plain);
}

TEST_F(RsaTest, NcrDcrRoundTripPrivateToPublic) {
  // The bank seals replies with its private key; anyone with B_b reads them.
  const Bytes plain = from_string("buyreply nr|true");
  const Envelope env = ncr(keys_.priv, plain, rng_);
  const auto out = dcr(keys_.pub, env);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, plain);
}

TEST_F(RsaTest, EmptyPlaintextSupported) {
  const Envelope env = ncr(keys_.pub, Bytes{}, rng_);
  const auto out = dcr(keys_.priv, env);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST_F(RsaTest, WrongKeyFailsMac) {
  zmail::Rng rng2(999);
  const KeyPair other = generate_keypair(rng2);
  const Envelope env = ncr(keys_.pub, from_string("secret"), rng_);
  EXPECT_FALSE(dcr(other.priv, env).has_value());
}

TEST_F(RsaTest, DecryptingWithSameHalfFails) {
  // NCR with pub must not be readable with pub (needs the private half).
  const Envelope env = ncr(keys_.pub, from_string("secret"), rng_);
  EXPECT_FALSE(dcr(keys_.pub, env).has_value());
}

TEST_F(RsaTest, TamperedCiphertextDetected) {
  Envelope env = ncr(keys_.pub, from_string("pay 100"), rng_);
  env.ciphertext[0] ^= 0xFF;
  EXPECT_FALSE(dcr(keys_.priv, env).has_value());
}

TEST_F(RsaTest, TamperedWrappedKeyDetected) {
  Envelope env = ncr(keys_.pub, from_string("pay 100"), rng_);
  env.wrapped_key1 ^= 1;
  EXPECT_FALSE(dcr(keys_.priv, env).has_value());
}

TEST_F(RsaTest, TamperedNonceDetected) {
  Envelope env = ncr(keys_.pub, from_string("pay 100"), rng_);
  env.ctr_nonce ^= 1;
  EXPECT_FALSE(dcr(keys_.priv, env).has_value());
}

TEST_F(RsaTest, EnvelopeSerializationRoundTrips) {
  const Envelope env = ncr(keys_.pub, from_string("wire me"), rng_);
  const Bytes wire = env.serialize();
  const auto back = Envelope::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->wrapped_key1, env.wrapped_key1);
  EXPECT_EQ(back->wrapped_key2, env.wrapped_key2);
  EXPECT_EQ(back->ctr_nonce, env.ctr_nonce);
  EXPECT_EQ(back->ciphertext, env.ciphertext);
  EXPECT_TRUE(digest_equal(back->mac, env.mac));
  EXPECT_EQ(dcr(keys_.priv, *back).value(), from_string("wire me"));
}

TEST_F(RsaTest, TruncatedWireRejected) {
  const Bytes wire = ncr(keys_.pub, from_string("x"), rng_).serialize();
  for (std::size_t cut : {0u, 5u, 24u}) {
    const Bytes truncated(wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Envelope::deserialize(truncated).has_value());
  }
}

TEST_F(RsaTest, TrailingGarbageRejected) {
  Bytes wire = ncr(keys_.pub, from_string("x"), rng_).serialize();
  wire.push_back(0);
  EXPECT_FALSE(Envelope::deserialize(wire).has_value());
}

TEST_F(RsaTest, SignVerify) {
  const Bytes msg = from_string("credit report: [3, -1, 0]");
  const std::uint64_t sig = rsa_sign(keys_.priv, msg);
  EXPECT_TRUE(rsa_verify(keys_.pub, msg, sig));
  EXPECT_FALSE(rsa_verify(keys_.pub, from_string("forged"), sig));
  EXPECT_FALSE(rsa_verify(keys_.pub, msg, sig ^ 1));
  EXPECT_FALSE(rsa_verify(keys_.pub, msg, keys_.pub.n));  // out of range
}

// Wire bytes of ncr_into + serialize_into for a fixed key and Rng, recorded
// from the implementation before the SHA-NI/Montgomery/interleaved kernels
// (lengths up to 64 in full, 520 as the SHA-256 of the wire).
TEST(RsaGolden, SealedWireBytesUnchanged) {
  struct Case {
    bool pub;
    std::size_t len;
    const char* hex;
  };
  const Case cases[] = {
    {true, 0,
       "253801e0eb0a57cc1fbd0d610ed5e9ed642e1c7bc266a3a70000000006e08f08"
       "caf42e324d1905733c454968e3f243a24b52ad3c1c245a831f1ca3ff"},
    {true, 8,
       "2a0ce541610c77b11a2761b1535d450421e90bc830805b1700000008257d110d"
       "4690df8a4581d75bfc4b6293a98f519cea8de0fdbaa1cf73e446344db7bd2c27"
       "0ebb94f8"},
    {true, 41,
       "2141efc8df04756d19a687ed6074c083ae17533239e499a100000029568aabdc"
       "d372cb9ec7b1302ff3d3fa63fb1f0f431a1f39e95c0553f8821f31cb80921a4b"
       "81be05eaacf22a0be8cea48216dd86ebbedee2f4d36a678ae86d508fc8ecd379"
       "012bb3256b"},
    {true, 64,
       "295ddb659817aa980d0ecfa4761c99c5d144871edfad3faa000000409b988eeb"
       "f4d4b8a343d2e3aff5298e4af461037641ab90476c7ed0cd80a7c1f7bf9efc3a"
       "5be7fc837251e41dbcce4c6980bc8a6f3b10469b0ab1d3d896fc22919d892e8e"
       "ec39147922bafe4266c375ad9d40af9553ab81e47e3570fc95e75f7d"},
    {true, 520,
       "bcaa13092bd6118ca37c6d8d122d9bd6ae785ef65483162c2b9c08838e70ceb9"},
    {false, 0,
       "24d2728b95c0997d16ac707478695447642e1c7bc266a3a70000000006e08f08"
       "caf42e324d1905733c454968e3f243a24b52ad3c1c245a831f1ca3ff"},
    {false, 8,
       "158bff1ba228fea90887bc30220ce44f21e90bc830805b1700000008257d110d"
       "4690df8a4581d75bfc4b6293a98f519cea8de0fdbaa1cf73e446344db7bd2c27"
       "0ebb94f8"},
    {false, 41,
       "1a66f489efc4c46f1a44125d64f1f73aae17533239e499a100000029568aabdc"
       "d372cb9ec7b1302ff3d3fa63fb1f0f431a1f39e95c0553f8821f31cb80921a4b"
       "81be05eaacf22a0be8cea48216dd86ebbedee2f4d36a678ae86d508fc8ecd379"
       "012bb3256b"},
    {false, 64,
       "228b9678261d8be4119c4ce179c5981cd144871edfad3faa000000409b988eeb"
       "f4d4b8a343d2e3aff5298e4af461037641ab90476c7ed0cd80a7c1f7bf9efc3a"
       "5be7fc837251e41dbcce4c6980bc8a6f3b10469b0ab1d3d896fc22919d892e8e"
       "ec39147922bafe4266c375ad9d40af9553ab81e47e3570fc95e75f7d"},
    {false, 520,
       "4806a32c5c5fe84ae80d9505de92439fc707ffba034d5e457bee3f2c7cfdcf0b"},
  };
  zmail::Rng key_rng(2024);
  const KeyPair keys = generate_keypair(key_rng);
  ASSERT_EQ(keys.pub.n, 3105370438718734447ULL);
  ASSERT_EQ(keys.priv.exp, 2274074847704794617ULL);
  Envelope env;  // reused across cases, as the protocol scratch buffers are
  Bytes wire;
  Bytes plain_back;
  for (const Case& c : cases) {
    Bytes plain(c.len);
    for (std::size_t i = 0; i < c.len; ++i)
      plain[i] = static_cast<std::uint8_t>(i * 37 + 11);
    zmail::Rng rng(c.len + 1);
    const RsaKey& seal = c.pub ? keys.pub : keys.priv;
    const RsaKey& open = c.pub ? keys.priv : keys.pub;
    ncr_into(seal, plain, rng, env);
    env.serialize_into(wire);
    EXPECT_EQ(c.len <= 64 ? to_hex(wire) : digest_hex(sha256(wire)), c.hex)
        << (c.pub ? "pub " : "priv ") << c.len;
    ASSERT_TRUE(dcr_into(open, env, plain_back));
    EXPECT_EQ(plain_back, plain);
  }
}

TEST(RsaKeygen, SmallModulusStillRoundTrips) {
  zmail::Rng rng(5);
  const KeyPair kp = generate_keypair(rng, 32);
  EXPECT_EQ(rsa_apply(kp.priv, rsa_apply(kp.pub, 12345 % kp.pub.n)),
            12345 % kp.pub.n);
}

TEST(RsaKeygen, DistinctSeedsDistinctKeys) {
  zmail::Rng r1(1), r2(2);
  EXPECT_NE(generate_keypair(r1).pub.n, generate_keypair(r2).pub.n);
}

}  // namespace
}  // namespace zmail::crypto
