// Microbenchmarks for the crypto substrate: SHA-256 (whole messages and
// each compression kernel), HMAC, XTEA-CTR, RSA keygen/apply with either
// key half, NCR/DCR envelopes on the ISP (public-key) and bank
// (private-key) side, NNC nonces, hashcash.
#include <benchmark/benchmark.h>

#include "bench_micro_common.hpp"

#include "crypto/hashcash.hpp"
#include "crypto/hmac.hpp"
#include "crypto/nonce.hpp"
#include "crypto/rsa.hpp"
#include "crypto/xtea.hpp"
#include "util/rng.hpp"

using namespace zmail;

namespace {

crypto::Bytes make_data(std::size_t n) {
  Rng rng(1);
  crypto::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

void BM_Sha256(benchmark::State& state) {
  const crypto::Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

// One compression kernel over range(0) consecutive 64-byte blocks.
void BM_Sha256Compress(benchmark::State& state, crypto::Sha256Compress kernel) {
  if (kernel == nullptr) {
    state.SkipWithError("skipped: this CPU lacks the SHA extensions");
    return;
  }
  const auto nblocks = static_cast<std::size_t>(state.range(0));
  const crypto::Bytes data = make_data(64 * nblocks);
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (auto _ : state) {
    kernel(h, data.data(), nblocks);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha256Compress, portable,
                  crypto::Sha256Compress{crypto::sha256_compress_portable})
    ->Arg(1)->Arg(16);
BENCHMARK_CAPTURE(BM_Sha256Compress, shani, crypto::sha256_compress_shani())
    ->Arg(1)->Arg(16);

void BM_HmacSha256(benchmark::State& state) {
  const crypto::Bytes key = make_data(32);
  const crypto::Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_XteaCtr(benchmark::State& state) {
  const crypto::XteaKey key =
      crypto::xtea_key_from_bytes(crypto::from_string("bench"));
  const crypto::Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  std::uint64_t nonce = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::xtea_ctr(data, key, ++nonce));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_XteaCtr)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RsaKeygen(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::generate_keypair(rng));
}
BENCHMARK(BM_RsaKeygen);

// `priv` times the bank's half (a ~62-bit exponent); the public half is
// e = 65537.
void BM_RsaApply(benchmark::State& state, bool priv) {
  Rng rng(8);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::RsaKey& key = priv ? keys.priv : keys.pub;
  std::uint64_t m = 12345;
  for (auto _ : state) {
    m = crypto::rsa_apply(key, m % key.n);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK_CAPTURE(BM_RsaApply, pub, false);
BENCHMARK_CAPTURE(BM_RsaApply, priv, true);

// A trade request or reply is about 41 bytes of plaintext.  The ISP seals
// requests with the bank's public half and opens replies with it; the bank
// opens requests and seals replies with its private half.
void BM_EnvelopeSeal(benchmark::State& state, bool bank) {
  Rng rng(9);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::RsaKey& key = bank ? keys.priv : keys.pub;
  const crypto::Bytes plain = make_data(static_cast<std::size_t>(state.range(0)));
  crypto::Envelope env;
  for (auto _ : state) {
    crypto::ncr_into(key, plain, rng, env);
    benchmark::DoNotOptimize(env);
  }
}
BENCHMARK_CAPTURE(BM_EnvelopeSeal, isp_pub, false)
    ->Arg(32)->Arg(41)->Arg(1024);
BENCHMARK_CAPTURE(BM_EnvelopeSeal, bank_priv, true)->Arg(41);

void BM_EnvelopeUnseal(benchmark::State& state, bool bank) {
  Rng rng(10);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::RsaKey& seal = bank ? keys.pub : keys.priv;
  const crypto::RsaKey& open = bank ? keys.priv : keys.pub;
  const crypto::Envelope env = crypto::ncr(
      seal, make_data(static_cast<std::size_t>(state.range(0))), rng);
  crypto::Bytes plain;
  for (auto _ : state) {
    if (!crypto::dcr_into(open, env, plain)) {
      state.SkipWithError("envelope failed to open");
      return;
    }
    benchmark::DoNotOptimize(plain);
  }
}
BENCHMARK_CAPTURE(BM_EnvelopeUnseal, bank_priv, true)
    ->Arg(32)->Arg(41)->Arg(1024);
BENCHMARK_CAPTURE(BM_EnvelopeUnseal, isp_pub, false)->Arg(41);

void BM_NonceNext(benchmark::State& state) {
  crypto::NonceGenerator gen(42);
  for (auto _ : state) benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_NonceNext);

void BM_HashcashSolve(benchmark::State& state) {
  std::uint64_t start = 0;
  for (auto _ : state) {
    const crypto::PowStamp stamp = crypto::pow_solve(
        "victim@isp.example", static_cast<int>(state.range(0)), start);
    start = stamp.counter + 1;
    benchmark::DoNotOptimize(stamp);
  }
}
BENCHMARK(BM_HashcashSolve)->Arg(8)->Arg(12)->Arg(16);

void BM_HashcashVerify(benchmark::State& state) {
  const crypto::PowStamp stamp = crypto::pow_solve("victim@isp.example", 12);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::pow_verify(stamp));
}
BENCHMARK(BM_HashcashVerify);

}  // namespace

int main(int argc, char** argv) {
  zmail::bench::Bench harness("micro_crypto", argc, argv);
  return zmail::bench::run_micro(harness, argc, argv);
}
