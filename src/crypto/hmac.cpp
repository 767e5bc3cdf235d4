#include "crypto/hmac.hpp"

#include <array>
#include <cstring>

namespace zmail::crypto {

HmacSha256::HmacSha256(const std::uint8_t* key, std::size_t len) noexcept {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (len > kBlock) {
    const Digest d = sha256(key, len);
    std::memcpy(k.data(), d.data(), d.size());
  } else if (len > 0) {
    std::memcpy(k.data(), key, len);
  }

  std::array<std::uint8_t, kBlock> pad{};
  for (std::size_t i = 0; i < kBlock; ++i)
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
  inner_.update(pad.data(), pad.size());
  for (std::size_t i = 0; i < kBlock; ++i)
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  outer_.update(pad.data(), pad.size());
}

Digest HmacSha256::finish(Sha256& inner) const noexcept {
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

namespace {
Digest hmac_impl(const Bytes& key, const std::uint8_t* msg,
                 std::size_t len) noexcept {
  const HmacSha256 mac(key.data(), key.size());
  Sha256 inner = mac.begin();
  inner.update(msg, len);
  return mac.finish(inner);
}
}  // namespace

Digest hmac_sha256(const Bytes& key, const Bytes& message) noexcept {
  return hmac_impl(key, message.data(), message.size());
}

Digest hmac_sha256(const Bytes& key, std::string_view message) noexcept {
  return hmac_impl(key, reinterpret_cast<const std::uint8_t*>(message.data()),
                   message.size());
}

bool digest_equal(const Digest& a, const Digest& b) noexcept {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  return acc == 0;
}

}  // namespace zmail::crypto
