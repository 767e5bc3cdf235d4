#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace zmail::crypto {
namespace {

TEST(Sha256, EmptyStringVector) {
  EXPECT_EQ(digest_hex(sha256(std::string_view(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(digest_hex(sha256(std::string_view("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(
      digest_hex(sha256(std::string_view(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalEqualsOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), sha256(std::string_view(msg)));
  }
}

TEST(Sha256, ExactBlockBoundaryLengths) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string a(len, 'x');
    Sha256 h;
    for (char c : a) {
      const auto byte = static_cast<std::uint8_t>(c);
      h.update(&byte, 1);
    }
    EXPECT_EQ(h.finish(), sha256(std::string_view(a))) << "len=" << len;
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256(std::string_view("a")), sha256(std::string_view("b")));
  EXPECT_NE(sha256(std::string_view("")), sha256(std::string_view("\0", 1)));
}

// Pads and hashes `len` bytes with one compression kernel, independently
// of Sha256's own buffering and padding.
Digest hash_with(Sha256Compress kernel, const std::uint8_t* p,
                 std::size_t len) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  kernel(state, p, len / 64);
  std::vector<std::uint8_t> tail(p + (len / 64) * 64, p + len);
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  for (int i = 7; i >= 0; --i)
    tail.push_back(static_cast<std::uint8_t>((len * 8) >> (8 * i)));
  kernel(state, tail.data(), tail.size() / 64);
  Digest out;
  for (int i = 0; i < 8; ++i)
    for (int b = 0; b < 4; ++b)
      out[static_cast<std::size_t>(4 * i + b)] =
          static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  return out;
}

std::vector<std::uint8_t> pattern(std::size_t len) {
  std::vector<std::uint8_t> msg(len);
  for (std::size_t i = 0; i < len; ++i)
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return msg;
}

// FIPS 180-4 vectors plus agreement with Sha256 (whichever kernel it
// dispatched to) at every length 0..300, single- and multi-block calls.
void check_kernel(Sha256Compress kernel) {
  const auto hex = [&](std::string_view s) {
    return digest_hex(hash_with(
        kernel, reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  const std::string million(1'000'000, 'a');
  EXPECT_EQ(hex(million),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");

  const std::vector<std::uint8_t> msg = pattern(300);
  for (std::size_t len = 0; len <= msg.size(); ++len)
    EXPECT_EQ(hash_with(kernel, msg.data(), len), sha256(msg.data(), len))
        << "len=" << len;
}

TEST(Sha256Kernels, PortableMatchesFipsAndSha256) {
  check_kernel(sha256_compress_portable);
}

TEST(Sha256Kernels, ShaNiMatchesFipsAndSha256) {
  const Sha256Compress shani = sha256_compress_shani();
  if (shani == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  check_kernel(shani);
}

TEST(Sha256Kernels, KernelsAgreeBlockForBlock) {
  const Sha256Compress shani = sha256_compress_shani();
  if (shani == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  const std::vector<std::uint8_t> msg = pattern(64 * 5);
  for (std::size_t nblocks = 0; nblocks <= 5; ++nblocks) {
    std::uint32_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint32_t b[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    sha256_compress_portable(a, msg.data(), nblocks);
    shani(b, msg.data(), nblocks);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(a[i], b[i]) << nblocks;
  }
}

// The digest of the digests of the 301 prefixes of pattern(300), recorded
// from the byte-at-a-time implementation this one replaced.
TEST(Sha256, PrefixDigestsGolden) {
  const std::vector<std::uint8_t> msg = pattern(300);
  Sha256 chain;
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const Digest d = sha256(msg.data(), len);
    chain.update(d.data(), d.size());
  }
  EXPECT_EQ(digest_hex(chain.finish()),
            "7722024365d27836079cbf29de35d060b9383d7c713083199661392f983216d4");
}

TEST(Sha256, RandomIncrementalSplitsEqualOneShot) {
  const std::vector<std::uint8_t> msg = pattern(300);
  zmail::Rng rng(15);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    for (int trial = 0; trial < 4; ++trial) {
      Sha256 h;
      std::size_t at = 0;
      while (at < len) {
        const std::size_t take = std::min<std::size_t>(
            len - at, static_cast<std::size_t>(rng.next_below(150)));
        h.update(msg.data() + at, take);  // take may be 0
        at += take;
      }
      EXPECT_EQ(h.finish(), sha256(msg.data(), len)) << "len=" << len;
    }
  }
}

TEST(LeadingZeroBits, CountsCorrectly) {
  Digest d{};
  d.fill(0);
  EXPECT_EQ(leading_zero_bits(d), 256);
  d[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(d), 0);
  d[0] = 0x01;
  EXPECT_EQ(leading_zero_bits(d), 7);
  d[0] = 0x00;
  d[1] = 0x10;
  EXPECT_EQ(leading_zero_bits(d), 11);
}

TEST(DigestHex, RoundTripsThroughBytes) {
  const Digest d = sha256(std::string_view("roundtrip"));
  const std::string hex = digest_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  const Bytes back = from_hex(hex);
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(back[i], d[i]);
}

}  // namespace
}  // namespace zmail::crypto
