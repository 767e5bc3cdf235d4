// HMAC-SHA256 (RFC 2104) over the from-scratch SHA-256.
//
// Used as the integrity tag inside Envelope and as the PRF behind NNC.
#pragma once

#include "crypto/bytes.hpp"
#include "crypto/sha256.hpp"

namespace zmail::crypto {

Digest hmac_sha256(const Bytes& key, const Bytes& message) noexcept;
Digest hmac_sha256(const Bytes& key, std::string_view message) noexcept;

// HMAC keyed once: the inner and outer hashes are held already fed with
// the padded key, so a key used for many messages (the NNC secret) pays
// two compressions per message instead of four, and a message can be
// streamed into begin()'s hash in pieces.
class HmacSha256 {
 public:
  HmacSha256(const std::uint8_t* key, std::size_t len) noexcept;

  // The inner hash, ready for the message bytes.
  Sha256 begin() const noexcept { return inner_; }
  // The tag over everything fed to `inner` (a hash from begin()).
  Digest finish(Sha256& inner) const noexcept;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

// Constant-time digest comparison (good hygiene even in a simulation; the
// replay-resistance bench deliberately probes tag checks).
bool digest_equal(const Digest& a, const Digest& b) noexcept;

}  // namespace zmail::crypto
