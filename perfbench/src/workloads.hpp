// The four benchmark worlds and their seeded input generator.
//
// A Workload fixes the world (population, thresholds, periodic machinery,
// faults) and the traffic mix; generate() turns it and a seed into the
// complete input of a run: a message-body pool and a send/trade schedule
// keyed by simulated second.  Nothing here touches a world, so generation
// stays outside every timer and the same seed always yields the same
// inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/time.hpp"
#include "workload/traffic.hpp"

namespace perfbench {

struct Workload {
  std::string name;  // the rationale of each is its `why` in BENCHMARK.json
  zmail::core::ZmailParams params;
  std::size_t shards = 1;  // >1 drives core::ShardedSystem

  // Periodic machinery.
  zmail::sim::Duration trading_poll = 5 * zmail::sim::kMinute;
  zmail::sim::Duration snapshot_period = 30 * zmail::sim::kMinute;

  // Traffic over `seconds` one-second slices.  Mail follows the repo's
  // traffic model (workload::TrafficParams defaults: lognormal per-user
  // daily rates averaging 8 sends, a 12-contact graph, 30% local
  // contacts) restricted to this window; bodies come from
  // workload::CorpusGenerator.  User buy/sell requests (1..10 e-pennies)
  // have no model in the repo: they are a stress parameter, set only where
  // a workload exists to load the trade path.
  std::uint32_t seconds = 0;
  zmail::workload::TrafficParams traffic;
  double trades_per_user_min = 0.0;

  // Faults (durable_lossy): a seeded drop rate and an equal duplicate
  // rate, and one ISP crash.
  double fault_rate = 0.0;
  std::int64_t crash_at_s = -1;  // slice at which crash_isp goes down
  std::size_t crash_isp = 0;
  std::uint32_t crash_down_s = 0;
};

// Every workload, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

struct Op {
  enum Kind : std::uint8_t { kSend, kBuy, kSell };
  Kind kind = kSend;
  std::uint16_t from_isp = 0;
  std::uint16_t to_isp = 0;
  std::uint32_t from_user = 0;
  std::uint32_t to_user = 0;
  std::int32_t amount = 0;  // e-pennies for trades
  std::uint32_t text = 0;   // index into Inputs::subjects / bodies
};

struct Inputs {
  std::uint64_t world_seed = 0;
  std::uint64_t fault_seed = 0;
  std::vector<std::string> subjects;
  std::vector<std::string> bodies;
  std::vector<Op> ops;
  // ops[slice_begin[s] .. slice_begin[s + 1]) are submitted in second s.
  std::vector<std::uint32_t> slice_begin;

  std::size_t slices() const noexcept { return slice_begin.size() - 1; }
};

Inputs generate(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
