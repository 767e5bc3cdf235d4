// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for message digests inside the NCR/DCR hybrid envelope, for the PRF
// behind the paper's NNC nonce function, and for the hashcash proof-of-work
// baseline (Section 2.3's computational-cost approaches).
//
// Two compression kernels produce the same bytes: a portable scalar one and,
// on x86-64 CPUs with the SHA extensions, one built on the SHA-NI
// instructions.  The kernel is chosen once, on first use, from the running
// CPU's feature bits; other builds compile the portable kernel only.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/bytes.hpp"

namespace zmail::crypto {

using Digest = std::array<std::uint8_t, 32>;

// Folds `nblocks` consecutive 64-byte blocks at `p` into the eight-word
// chaining state.
using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* p,
                                std::size_t nblocks) noexcept;

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* p,
                              std::size_t nblocks) noexcept;
// The SHA-NI kernel, or nullptr when this CPU (or build) lacks it.
Sha256Compress sha256_compress_shani() noexcept;

class Sha256 {
 public:
  Sha256() noexcept;

  Sha256& update(const std::uint8_t* data, std::size_t len) noexcept;
  Sha256& update(const Bytes& b) noexcept {
    return update(b.data(), b.size());
  }
  Sha256& update(std::string_view s) noexcept {
    return update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  // Finalize; the object must not be updated afterwards.
  Digest finish() noexcept;

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// One-shot helpers.
Digest sha256(const std::uint8_t* data, std::size_t len) noexcept;
Digest sha256(const Bytes& data) noexcept;
Digest sha256(std::string_view data) noexcept;
std::string digest_hex(const Digest& d);

// Number of leading zero bits in a digest (hashcash difficulty check).
int leading_zero_bits(const Digest& d) noexcept;

}  // namespace zmail::crypto
