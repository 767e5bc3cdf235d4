// Scenario DSL: a line-oriented script language over the Zmail worlds.
//
// Lets examples, tests, and bug reports describe a reproducible Zmail run
// as text instead of C++:
//
//     world isps=3 users=4 balance=50 compliant=110
//     send 0.0 1.2 subject Hello there
//     spam 2.0 count=20
//     buy 0.1 25
//     run 2h
//     snapshot
//     crash 1 20m        # durable store only: kill isp1, recover after 20m
//     crash bank1 20m    # durable store only: kill member bank 1
//     run 30m
//     day
//     flip 2
//     expect balance 1.2 51
//     expect violations 0
//     expect conservation
//     print balances
//
// Users are written `isp.user` (e.g. `1.2`) or as full simulated addresses
// (`u2@isp1.example`).  Durations take s/m/h/d suffixes.  `send`'s subject
// is every token after `subject` (default "scenario"); any other token
// after the recipient fails the line.  `expect` lines
// turn the script into a checked regression; `ScenarioResult::ok()` is
// false if any expectation failed.
//
// The same script runs against either world:
//   - the central-bank world (ShardedSystem, any shard count) supports every
//     verb; `crash` takes a compliant ISP index or `bank` / `bank0`;
//   - the federated world (FederatedZmailSystem, scenario_runner --banks N)
//     is all-compliant, so the mixed-deployment verbs `spam`, `flip` and
//     `policy` fail with "verb not supported in a federated world"; `crash`
//     takes `bank<k>` (only the member banks are durable there), and
//     `expect violations` reads the federation's last verify.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/federated_system.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"

namespace zmail::core {

struct ScenarioError {
  std::size_t line = 0;
  std::string message;
};

// A parsed script: the command list plus the world parameters.
class Scenario {
 public:
  // Parses the script text; returns nullopt and fills `error` on the first
  // syntax problem.
  static std::optional<Scenario> parse(const std::string& text,
                                       ScenarioError* error = nullptr);

  const ZmailParams& params() const noexcept { return params_; }
  // Harnesses overlay configuration the script language does not cover
  // (e.g. scenario_runner --store-dir enables the durable store) before
  // building the world and running the scenario.
  ZmailParams& mutable_params() noexcept { return params_; }

  // The world seed (from the script's `seed=` key, default 1).  Writable so
  // harnesses can run replica variations of one script (the scenario_runner
  // --replicas sweep derives one seed per replica).
  std::uint64_t seed() const noexcept { return seed_; }
  void set_seed(std::uint64_t s) noexcept { seed_ = s; }

  struct Command {
    std::size_t line = 0;
    std::string verb;
    std::vector<std::string> args;
  };
  const std::vector<Command>& commands() const noexcept { return commands_; }

 private:
  ZmailParams params_;
  std::uint64_t seed_ = 1;
  std::vector<Command> commands_;
};

struct ScenarioResult {
  std::vector<std::string> output;       // lines from `print` commands
  std::vector<ScenarioError> failures;   // failed `expect`s / runtime errors
  std::uint64_t commands_executed = 0;

  bool ok() const noexcept { return failures.empty(); }
  std::string output_text() const;
};

// Executes the scenario's commands in order against `world`, which the
// caller builds from params() and seed() and which outlives the run so the
// final state can be inspected:
//
//     ShardedSystem world(s.params(), s.seed(), ShardOptions{.shards = 4});
//     const ScenarioResult r = run(s, world);
//
// Both overloads share one command loop; see the header comment for what
// differs between the worlds.
ScenarioResult run(const Scenario& scenario, ShardedSystem& world);
ScenarioResult run(const Scenario& scenario, FederatedZmailSystem& world);

// --- Parsing helpers exposed for reuse and direct testing -----------------

// "1.2" or "u2@isp1.example" -> (isp, user).
std::optional<std::pair<std::size_t, std::size_t>> parse_user_ref(
    const std::string& token);

// "90s" / "15m" / "2h" / "1d" -> simulated duration.
std::optional<sim::Duration> parse_duration(const std::string& token);

}  // namespace zmail::core
