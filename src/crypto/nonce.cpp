#include "crypto/nonce.hpp"

#include <array>

namespace zmail::crypto {

void put_nonce(Bytes& b, const Nonce& n) {
  put_u64(b, n.counter);
  put_u64(b, n.prf);
}

Nonce get_nonce(ByteReader& r) {
  Nonce n;
  n.counter = r.get_u64();
  n.prf = r.get_u64();
  return n;
}

namespace {
std::array<std::uint8_t, 8> be64(std::uint64_t v) noexcept {
  std::array<std::uint8_t, 8> out{};
  store_u64(out.data(), v);
  return out;
}
}  // namespace

NonceGenerator::NonceGenerator(std::uint64_t secret) noexcept
    : prf_(be64(secret).data(), 8) {}

Nonce NonceGenerator::next() noexcept {
  Nonce n;
  n.counter = counter_++;
  const std::array<std::uint8_t, 8> msg = be64(n.counter);
  Sha256 inner = prf_.begin();
  inner.update(msg.data(), msg.size());
  const Digest d = prf_.finish(inner);
  std::uint64_t prf = 0;
  for (int i = 0; i < 8; ++i) prf = (prf << 8) | d[static_cast<std::size_t>(i)];
  n.prf = prf;
  return n;
}

}  // namespace zmail::crypto
