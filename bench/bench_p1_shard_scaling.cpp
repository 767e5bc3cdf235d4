// P1 — sharded engine scaling (one world, N shards, conservative windows).
//
// Drives the same fixed workload through core::ShardedSystem at 1, 2, 4,
// and 8 shards and reports wall time, events/second, window count, and
// cross-shard message volume.  Shards = 1 is the exact legacy
// single-threaded path, so its row is the baseline every other row is
// compared against.
//
// The *correctness* claims checked here are hardware-independent: the
// merged observable state is bit-identical at every shard count >= 2, no
// lookahead bound is ever violated (horizon_clamps == 0), and the
// barrier-point conservation audits stay green.  The *throughput* numbers
// are hardware-dependent by nature — a single-core runner shows the
// engine's window/mailbox overhead rather than any speedup — so speedup is
// reported, recorded in the JSON, and never asserted.
#include <thread>

#include "bench_common.hpp"
#include "core/obs.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "net/address.hpp"
#include "util/table.hpp"

using namespace zmail;

namespace {

struct RunResult {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_shard_msgs = 0;
  std::uint64_t horizon_clamps = 0;
  bool audit_ok = true;
  std::string digest;  // world-state snapshot dump: the bit-identity artifact
};

core::ZmailParams world_params(bool smoke) {
  core::ZmailParams p;
  p.n_isps = 16;
  p.users_per_isp = smoke ? 50 : 500;
  p.initial_user_balance = 10'000;
  p.default_daily_limit = 100'000;
  p.initial_avail = 20'000;
  p.minavail = 5'000;
  p.maxavail = 80'000;
  p.record_inboxes = false;
  return p;
}

// The verb stream is a pure function of the seed (no world-state feedback),
// so every shard count replays exactly the same workload.
RunResult run_world(std::size_t shards, bool smoke, std::uint64_t seed) {
  core::ShardOptions o;
  o.shards = shards;
  core::ShardedSystem w(world_params(smoke), seed, o);

  const std::size_t rounds = smoke ? 300 : 3'000;
  const std::size_t sends_per_round = 4;
  Rng rng(seed + 1);
  const std::size_t n = w.params().n_isps;
  const std::size_t u = w.params().users_per_isp;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < sends_per_round; ++k) {
      const std::size_t src = rng.next_below(n);
      const std::size_t dst = (src + 1 + rng.next_below(n - 1)) % n;
      w.send_email(net::make_user_address(src, rng.next_below(u)),
                   net::make_user_address(dst, rng.next_below(u)), "p1",
                   "m" + std::to_string(r));
    }
    w.run_for(sim::kSecond);
  }
  w.run_for(sim::kHour);
  const auto end = std::chrono::steady_clock::now();

  RunResult res;
  res.wall_seconds = std::chrono::duration<double>(end - start).count();
  if (const sim::ShardedStats* st = w.engine_stats()) {
    res.events = st->events_executed;
    res.windows = st->windows;
    res.cross_shard_msgs = st->cross_shard_msgs;
  } else {
    res.events = w.shard(0).simulator().events_executed();
  }
  res.horizon_clamps = w.horizon_clamps();
  res.audit_ok = w.barrier_audit().ok();
  res.digest = obs::world_state(obs::snapshot(w)).dump();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench harness("p1_shard_scaling", argc, argv);
  const bool smoke = harness.options().smoke;
  const std::uint64_t seed = harness.options().seed;
  std::printf("=== P1: sharded engine scaling ===\n");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u (speedup is hardware-dependent;"
              " correctness checks are not)\n", hw);

  const std::size_t shard_counts[] = {1, 2, 4, 8};
  std::vector<RunResult> results;
  for (std::size_t s : shard_counts) results.push_back(run_world(s, smoke, seed));
  const double base_wall = results.front().wall_seconds;

  Table t({"shards", "wall s", "events", "events/s", "windows",
           "x-shard msgs", "speedup"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    char wall[32], eps[32], speed[32];
    std::snprintf(wall, sizeof wall, "%.3f", r.wall_seconds);
    std::snprintf(eps, sizeof eps, "%.0f",
                  static_cast<double>(r.events) / r.wall_seconds);
    std::snprintf(speed, sizeof speed, "%.2fx", base_wall / r.wall_seconds);
    t.add_row({Table::num(shard_counts[i]), wall, Table::num(r.events),
               eps, Table::num(r.windows), Table::num(r.cross_shard_msgs),
               speed});
  }
  t.print("P1  one world, N shards, conservative lookahead windows");

  bench::check(results[1].digest == results[2].digest &&
                   results[2].digest == results[3].digest,
               "merged observable state bit-identical at 2, 4, and 8 shards");
  bool clamps_zero = true, audits_green = true, all_ran = true;
  for (const RunResult& r : results) {
    clamps_zero &= r.horizon_clamps == 0;
    audits_green &= r.audit_ok;
    all_ran &= r.events > 0;
  }
  bench::check(clamps_zero, "no lookahead-bound violations at any shard count");
  bench::check(audits_green, "barrier-point conservation audits stay green");
  bench::check(all_ran, "every configuration executed events");
  bench::check(results[3].cross_shard_msgs > results[1].cross_shard_msgs,
               "finer partitions move more traffic through the mailboxes");

  json::Value& m = harness.metrics();
  m = json::Value::object();
  m["hardware_threads"] = static_cast<std::uint64_t>(hw);
  json::Value rows = json::Value::array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    json::Value row = json::Value::object();
    row["shards"] = static_cast<std::uint64_t>(shard_counts[i]);
    row["wall_seconds"] = results[i].wall_seconds;
    row["events"] = results[i].events;
    row["windows"] = results[i].windows;
    row["cross_shard_msgs"] = results[i].cross_shard_msgs;
    row["speedup_vs_1"] = base_wall / results[i].wall_seconds;
    rows.push_back(std::move(row));
  }
  m["runs"] = std::move(rows);
  return harness.finish();
}
