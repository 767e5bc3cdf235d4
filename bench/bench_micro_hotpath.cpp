// Microbenchmarks for the per-message hot path: event scheduling/dispatch,
// datagram delivery, exact-reserve serialization, and scratch-buffer
// envelopes.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench_micro_common.hpp"

#include "core/messages.hpp"
#include "crypto/rsa.hpp"
#include "net/msg_type.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace zmail;

namespace {

// --- Delivery-shaped cascade ---------------------------------------------
// Each event carries a datagram-sized context (a payload buffer plus
// addressing), does a token of work, and schedules one successor 20-30ms
// out — the shape of Network delivery traffic in E3.  Payload buffers are
// allocated once and ride the closures by move, so what is measured is the
// event machinery itself, not payload churn.
struct FakeDatagram {
  crypto::Bytes payload;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

class Cascade {
 public:
  std::uint64_t run(std::size_t population, std::uint64_t events) {
    remaining_ = events;
    for (std::size_t i = 0; i < population; ++i) {
      FakeDatagram d;
      d.payload.assign(96, static_cast<std::uint8_t>(i));
      d.to = static_cast<std::uint32_t>(i & 63);
      schedule(std::move(d));
    }
    sim_.run();
    return checksum_;
  }

 private:
  void schedule(FakeDatagram d) {
    const auto jitter =
        static_cast<sim::SimTime>(rng_.next_u64() % (10 * sim::kMillisecond));
    const sim::SimTime at = sim_.now() + 20 * sim::kMillisecond + jitter;
    sim_.schedule_at(at, [this, d = std::move(d)]() mutable {
      checksum_ += d.payload[0] + d.to;
      if (remaining_ == 0) return;
      --remaining_;
      d.from = d.to;
      d.to = static_cast<std::uint32_t>(rng_.next_u64() & 63);
      schedule(std::move(d));
    });
  }

  sim::Simulator sim_;
  Rng rng_{2026};
  std::uint64_t remaining_ = 0;
  std::uint64_t checksum_ = 0;
};

void BM_EventCascade(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Cascade c;
    benchmark::DoNotOptimize(c.run(1024, events));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventCascade)->Arg(100000)->Unit(benchmark::kMillisecond);

// --- Network send/deliver ------------------------------------------------
// A ping-pong between two hosts through the real Network: interned type tag,
// pooled pending slot, moved payload.  Items = datagrams delivered.
void BM_NetworkPingPong(benchmark::State& state) {
  const auto rounds = static_cast<std::uint64_t>(state.range(0));
  const net::MsgType kPing = net::MsgType::intern("hotpath-ping");
  for (auto _ : state) {
    sim::Simulator s;
    net::Network net(s, Rng(7), net::LatencyModel{});
    std::uint64_t left = rounds;
    crypto::Bytes seed_payload(128, 0xAB);
    net::HostId a = 0, b = 0;
    const auto bounce = [&](const net::Datagram& d) {
      if (left == 0) return;
      --left;
      crypto::Bytes payload = d.payload;  // simulate a reply body
      net.send(d.to, d.from, kPing, std::move(payload));
    };
    a = net.add_host("a.example", bounce);
    b = net.add_host("b.example", bounce);
    net.send(a, b, kPing, std::move(seed_payload));
    s.run();
    benchmark::DoNotOptimize(net.bytes_sent());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_NetworkPingPong)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_MsgTypeIntern(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(net::MsgType::intern("sellreply"));
}
BENCHMARK(BM_MsgTypeIntern);

// --- Exact-reserve serialization -----------------------------------------
void BM_SerializeCreditReport(benchmark::State& state) {
  core::CreditReport report;
  report.seq = 9;
  report.credit.assign(static_cast<std::size_t>(state.range(0)), 12345);
  for (auto _ : state) benchmark::DoNotOptimize(report.serialize());
}
BENCHMARK(BM_SerializeCreditReport)->Arg(64)->Arg(512);

// --- Scratch-buffer envelopes --------------------------------------------
void BM_SealFresh(benchmark::State& state) {
  Rng rng(11);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const core::CreditReport report{3, std::vector<EPenny>(64, 7)};
  const crypto::Bytes plain = report.serialize();
  for (auto _ : state)
    benchmark::DoNotOptimize(core::seal(keys.priv, plain, rng));
}
BENCHMARK(BM_SealFresh);

void BM_SealInto(benchmark::State& state) {
  Rng rng(11);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const core::CreditReport report{3, std::vector<EPenny>(64, 7)};
  const crypto::Bytes plain = report.serialize();
  crypto::Envelope scratch;
  crypto::Bytes wire;
  for (auto _ : state) {
    core::seal_into(keys.priv, plain, rng, scratch, wire);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_SealInto);

void BM_UnsealInto(benchmark::State& state) {
  Rng rng(12);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const core::CreditReport report{3, std::vector<EPenny>(64, 7)};
  crypto::Bytes wire = core::seal(keys.priv, report.serialize(), rng);
  crypto::Envelope scratch;
  crypto::Bytes plain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::unseal_into(keys.priv, wire, scratch, plain));
  }
}
BENCHMARK(BM_UnsealInto);

}  // namespace

int main(int argc, char** argv) {
  zmail::bench::Bench harness("micro_hotpath", argc, argv);
  return zmail::bench::run_micro(harness, argc, argv);
}
