#include "crypto/xtea.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace zmail::crypto {

namespace {
constexpr std::uint32_t kDelta = 0x9E3779B9;
constexpr int kCycles = 32;
}  // namespace

std::uint64_t xtea_encrypt_block(std::uint64_t block,
                                 const XteaKey& key) noexcept {
  auto v0 = static_cast<std::uint32_t>(block >> 32);
  auto v1 = static_cast<std::uint32_t>(block);
  std::uint32_t sum = 0;
  for (int i = 0; i < kCycles; ++i) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
  }
  return (static_cast<std::uint64_t>(v0) << 32) | v1;
}

std::uint64_t xtea_decrypt_block(std::uint64_t block,
                                 const XteaKey& key) noexcept {
  auto v0 = static_cast<std::uint32_t>(block >> 32);
  auto v1 = static_cast<std::uint32_t>(block);
  std::uint32_t sum = kDelta * kCycles;
  for (int i = 0; i < kCycles; ++i) {
    v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
    sum -= kDelta;
    v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
  }
  return (static_cast<std::uint64_t>(v0) << 32) | v1;
}

Bytes xtea_ctr(const Bytes& data, const XteaKey& key,
               std::uint64_t nonce) noexcept {
  Bytes out;
  xtea_ctr_into(data, key, nonce, out);
  return out;
}

void xtea_ctr_into(const Bytes& data, const XteaKey& key, std::uint64_t nonce,
                   Bytes& out) noexcept {
  // CTR blocks are independent, so four run side by side: one block's
  // 64-round dependency chain hides the latency of the other three.  A
  // short tail still runs all four lanes and uses only the bytes it needs.
  constexpr std::size_t kLanes = 4;
  const std::size_t n = data.size();
  out.resize(n);
  std::uint64_t counter = 0;
  for (std::size_t i = 0; i < n; i += 8 * kLanes, counter += kLanes) {
    std::uint32_t v0[kLanes] = {}, v1[kLanes] = {};
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::uint64_t block = nonce ^ (counter + j);
      v0[j] = static_cast<std::uint32_t>(block >> 32);
      v1[j] = static_cast<std::uint32_t>(block);
    }
    std::uint32_t sum = 0;
    for (int r = 0; r < kCycles; ++r) {
      const std::uint32_t k0 = sum + key[sum & 3];
      for (std::size_t j = 0; j < kLanes; ++j)
        v0[j] += (((v1[j] << 4) ^ (v1[j] >> 5)) + v1[j]) ^ k0;
      sum += kDelta;
      const std::uint32_t k1 = sum + key[(sum >> 11) & 3];
      for (std::size_t j = 0; j < kLanes; ++j)
        v1[j] += (((v0[j] << 4) ^ (v0[j] >> 5)) + v0[j]) ^ k1;
    }
    std::uint8_t keystream[8 * kLanes] = {};
    for (std::size_t j = 0; j < kLanes; ++j) {
      store_u32(keystream + 8 * j, v0[j]);
      store_u32(keystream + 8 * j + 4, v1[j]);
    }
    const std::size_t take = std::min(n - i, sizeof keystream);
    for (std::size_t b = 0; b < take; ++b)
      out[i + b] = static_cast<std::uint8_t>(data[i + b] ^ keystream[b]);
  }
}

XteaKey xtea_key_from_bytes(const std::uint8_t* material,
                            std::size_t len) noexcept {
  const Digest d = sha256(material, len);
  XteaKey key{};
  for (int w = 0; w < 4; ++w) {
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v = (v << 8) | d[4 * w + b];
    key[static_cast<std::size_t>(w)] = v;
  }
  return key;
}

XteaKey xtea_key_from_bytes(const Bytes& material) noexcept {
  return xtea_key_from_bytes(material.data(), material.size());
}

}  // namespace zmail::crypto
