// Microbenchmarks for the mail substrate: SMTP dialogues, message
// serialization, address parsing.
#include <benchmark/benchmark.h>

#include "bench_micro_common.hpp"

#include "net/smtp.hpp"

using namespace zmail;

namespace {

net::EmailMessage sample_message(std::size_t body_size) {
  return net::make_email(*net::parse_address("u1@isp0.example"),
                         *net::parse_address("u2@isp1.example"),
                         "benchmark message", std::string(body_size, 'x'));
}

void BM_SmtpTransfer(benchmark::State& state) {
  const net::EmailMessage msg =
      sample_message(static_cast<std::size_t>(state.range(0)));
  std::uint64_t delivered = 0;
  net::SmtpServerSession session(
      "isp1.example", [&delivered](net::EmailMessage&&) { ++delivered; });
  for (auto _ : state)
    benchmark::DoNotOptimize(net::smtp_transfer(msg, "isp0.example", session));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SmtpTransfer)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EmailSerialize(benchmark::State& state) {
  const net::EmailMessage msg =
      sample_message(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(msg.serialize());
}
BENCHMARK(BM_EmailSerialize)->Arg(100)->Arg(10000);

void BM_EmailDeserialize(benchmark::State& state) {
  const crypto::Bytes wire =
      sample_message(static_cast<std::size_t>(state.range(0))).serialize();
  for (auto _ : state)
    benchmark::DoNotOptimize(net::EmailMessage::deserialize(wire));
}
BENCHMARK(BM_EmailDeserialize)->Arg(100)->Arg(10000);

void BM_AddressParse(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(net::parse_address("user.name+tag@isp42.example"));
}
BENCHMARK(BM_AddressParse);

void BM_Rfc822Render(benchmark::State& state) {
  const net::EmailMessage msg = sample_message(2000);
  for (auto _ : state) benchmark::DoNotOptimize(msg.to_rfc822());
}
BENCHMARK(BM_Rfc822Render);

}  // namespace

int main(int argc, char** argv) {
  zmail::bench::Bench harness("micro_smtp", argc, argv);
  return zmail::bench::run_micro(harness, argc, argv);
}
