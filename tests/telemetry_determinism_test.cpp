// Telemetry determinism end to end: the merged deterministic `timeseries`
// section of an instrumented sharded world must be bit-identical at any
// shard or thread count (fault-free and under an adversarial FaultPlan),
// the single-shard facade must match the plain whole-world system, the
// probe report must be a pure function of the series, and enabling
// telemetry must not change what the world does.
#include <gtest/gtest.h>

#include <string>

#include "core/obs.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "net/address.hpp"
#include "net/faults.hpp"
#include "telemetry/export.hpp"
#include "telemetry/probes.hpp"
#include "util/json.hpp"

namespace zmail::core {
namespace {

ZmailParams world_params() {
  ZmailParams p;
  p.n_isps = 8;
  p.users_per_isp = 3;
  p.initial_user_balance = 200;
  p.default_daily_limit = 1'000;
  p.initial_avail = 300;
  p.minavail = 100;
  p.maxavail = 600;
  p.record_inboxes = false;
  return p;
}

telemetry::TelemetryConfig telemetry_config() {
  telemetry::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = sim::kMinute;
  return cfg;
}

// One fixed verb stream, replayed identically against any world.  The
// draws depend only on the seed, never on world state, so every run
// issues the same verbs (same idiom as sim_sharded_test).
template <typename World>
void drive_mixed_traffic(World& w, std::uint64_t seed, int rounds) {
  Rng rng(seed);
  const std::size_t n = w.params().n_isps;
  const std::size_t u = w.params().users_per_isp;
  for (int i = 0; i < rounds; ++i) {
    const std::size_t src = rng.next_below(n);
    const std::size_t dst = (src + 1 + rng.next_below(n - 1)) % n;
    w.send_email(net::make_user_address(src, rng.next_below(u)),
                 net::make_user_address(dst, rng.next_below(u)), "t",
                 "b" + std::to_string(i));
    if (i % 7 == 3)
      w.buy_epennies(net::make_user_address(src, 0),
                     static_cast<EPenny>(1 + rng.next_below(5)));
    if (i % 11 == 6)
      w.sell_epennies(net::make_user_address(dst, 0),
                      static_cast<EPenny>(1 + rng.next_below(3)));
    w.run_for(sim::kMinute);
  }
  w.run_for(sim::kHour);
}

// The deterministic slice of the recorded telemetry: merged `timeseries`
// JSON plus the probe report.  Engine series (per-shard backlogs) are
// partition-dependent by design and stay out of the comparison.
std::string deterministic_dump(ShardedSystem& w) {
  telemetry::DeriveSpec spec;
  spec.endowment_epennies = static_cast<double>(w.initial_endowment());
  const std::vector<telemetry::Series> merged =
      telemetry::merge_series(w.telemetry_registries(), spec);
  telemetry::ProbeEngine probes;
  for (telemetry::ProbeRule& r : telemetry::default_rules())
    probes.add_rule(std::move(r));
  return telemetry::timeseries_json(merged, /*engine=*/false).dump() + "\n" +
         telemetry::to_json(probes.evaluate(merged, false)).dump();
}

std::string run_instrumented(std::size_t shards, std::size_t threads,
                             std::uint64_t seed) {
  ShardOptions o;
  o.shards = shards;
  o.threads = threads;
  ShardedSystem w(world_params(), seed, o);
  w.enable_telemetry(telemetry_config());
  drive_mixed_traffic(w, seed + 1, 40);
  w.end_of_day();
  w.run_for(sim::kHour);
  EXPECT_TRUE(w.conservation_holds());
  return deterministic_dump(w);
}

TEST(TelemetryDeterminismTest, TimeseriesBitIdenticalAcrossShardCounts) {
  const std::string s2 = run_instrumented(2, 0, 515);
  const std::string s4 = run_instrumented(4, 0, 515);
  const std::string s8 = run_instrumented(8, 0, 515);
  EXPECT_EQ(s2, s4);
  EXPECT_EQ(s4, s8);
  EXPECT_NE(s2.find("core.total.delivered"), std::string::npos);
  EXPECT_NE(s2.find("econ.market.stamp_price_micros"), std::string::npos);
}

TEST(TelemetryDeterminismTest, TimeseriesIndependentOfThreadCount) {
  const std::string t1 = run_instrumented(4, 1, 616);
  const std::string t2 = run_instrumented(4, 2, 616);
  const std::string t4 = run_instrumented(4, 4, 616);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t2, t4);
}

TEST(TelemetryDeterminismTest, TimeseriesBitIdenticalUnderFaultPlan) {
  net::FaultPlan plan;
  plan.rates.drop = 0.10;
  plan.rates.duplicate = 0.05;
  plan.rates.delay_spike = 0.05;

  const auto run = [&](std::size_t shards) {
    ZmailParams p = world_params();
    p.retry.enabled = true;
    p.reliable_email_transport = true;
    ShardOptions o;
    o.shards = shards;
    ShardedSystem w(p, 919, o);
    w.attach_faults(plan, 920);
    w.enable_telemetry(telemetry_config());
    drive_mixed_traffic(w, 921, 40);
    w.run_for(4 * sim::kHour);  // bounded drain (retry poller never quiets)
    EXPECT_TRUE(w.conservation_holds());
    return deterministic_dump(w);
  };

  const std::string s2 = run(2);
  const std::string s4 = run(4);
  EXPECT_EQ(s2, s4);
}

TEST(TelemetryDeterminismTest, SingleShardFacadeMatchesPlainSystem) {
  ZmailSystem plain(world_params(), 717);
  plain.enable_telemetry(telemetry_config());
  drive_mixed_traffic(plain, 718, 40);

  ShardOptions o;  // shards == 1: facade holds one whole-world system
  ShardedSystem facade(world_params(), 717, o);
  EXPECT_FALSE(facade.sharded());
  facade.enable_telemetry(telemetry_config());
  drive_mixed_traffic(facade, 718, 40);

  telemetry::DeriveSpec spec;
  spec.endowment_epennies =
      static_cast<double>(plain.initial_endowment_owned());
  const std::string a =
      telemetry::timeseries_json(
          telemetry::merge_series({plain.telemetry()}, spec), false)
          .dump();
  const std::string b =
      telemetry::timeseries_json(
          telemetry::merge_series(facade.telemetry_registries(), spec), false)
          .dump();
  EXPECT_EQ(a, b);
}

TEST(TelemetryDeterminismTest, EnablingTelemetryDoesNotChangeTheWorld) {
  // The zero-cost contract's other half: the sampling tick is read-only,
  // so an instrumented run's world state must match an uninstrumented one.
  ZmailSystem off(world_params(), 818);
  drive_mixed_traffic(off, 819, 40);

  ZmailSystem on(world_params(), 818);
  on.enable_telemetry(telemetry_config());
  drive_mixed_traffic(on, 819, 40);

  // The instrumented snapshot adds the telemetry sections; the world state
  // outside them must be identical.
  json::Value instrumented = obs::world_state(obs::snapshot(on));
  EXPECT_NE(instrumented.find("timeseries"), nullptr);
  EXPECT_TRUE(instrumented.erase("timeseries"));
  EXPECT_TRUE(instrumented.erase("probes"));
  EXPECT_EQ(obs::world_state(obs::snapshot(off)).dump(), instrumented.dump());
}

}  // namespace
}  // namespace zmail::core
