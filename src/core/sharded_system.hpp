// ShardedSystem — one Zmail world partitioned across shards, driven in
// parallel by the conservative sharded engine (sim::ShardedSimulator).
//
// Each shard is a slice-mode ZmailSystem (see core::ShardSlice): it
// registers every global host id, but owns state only for its ISPs (ISP i
// lives on shard i % shards) and, on shard 0, the Bank.  Traffic between
// hosts on different shards is resolved at the source (keyed latency +
// per-pair FIFO) and carried across the lookahead barrier in the engine's
// mailboxes; everything else never leaves its shard.
//
// With shards == 1 the facade holds a single *whole-world* ZmailSystem and
// no engine at all, so single-shard runs are byte-identical to the
// pre-sharding code path (same RNG stream, same event schedule).  With
// shards >= 2 and deterministic mode on, the merged observable state is
// bit-identical across shard counts and thread counts: keyed latency and
// fault draws, partition-independent construction seeds, a state-derived
// barrier schedule, and canonical mailbox merge order remove every source
// of partition dependence.
//
// The facade exposes the subset of ZmailSystem's API the harnesses drive
// (sends, trades, compliance flips, snapshots, crashes, time), routing each
// verb to the owning shard, plus merged observability (summed counters,
// sorted latency sample, global conservation) whose values do not depend on
// the partition.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "net/faults.hpp"
#include "sim/sharded.hpp"
#include "util/thread_pool.hpp"

namespace zmail::core {

struct ShardOptions {
  std::size_t shards = 1;
  // Worker threads driving the windows; 0 means one per shard.  Any value
  // yields the same merged world in deterministic mode.
  std::size_t threads = 0;
  // Deterministic barrier schedule + canonical mailbox merge (see
  // sim::ShardedOptions).  Off = free-running: fewer barriers, no cross-run
  // identity promise.
  bool deterministic = true;
  // Conservative lookahead override; 0 derives it from the network's
  // minimum latency (the only safe default — tests use the override to
  // exercise window edge cases, never to exceed the latency floor).
  sim::Duration lookahead = 0;
};

// Result of the engine's barrier-point audits: at every lookahead barrier
// all shards are quiescent on one global cut, and the zero-sum invariants
// must hold *there*, not just at the end of the run.
struct BarrierAudit {
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
  std::vector<std::string> messages;  // first few failures, for humans

  bool ok() const noexcept { return failures == 0; }
};

class ShardedSystem {
 public:
  explicit ShardedSystem(ZmailParams params, std::uint64_t seed = 42,
                         ShardOptions opts = {});
  ~ShardedSystem();

  // --- Verbs (routed to the owning shard) ----------------------------------
  SendOutcome send_email(const net::EmailAddress& from,
                         const net::EmailAddress& to, std::string subject,
                         std::string body,
                         net::MailClass truth = net::MailClass::kLegitimate);
  bool buy_epennies(const net::EmailAddress& user, EPenny n);
  bool sell_epennies(const net::EmailAddress& user, EPenny n);
  // End-of-day reset on every compliant ISP (the scenario `day` verb).
  void end_of_day();
  // Compliance flip, world-wide: asserts no paid mail is in flight
  // globally, reads the bank's period seq on shard 0, constructs the ISP on
  // its owner, and flips every other shard's published-compliant copy.
  void make_compliant(IspId isp);
  void start_snapshot();  // bank shard starts the round
  void crash_host(std::size_t host, sim::Duration down_for);

  // --- Periodic machinery (mirrors ZmailSystem) ----------------------------
  void enable_daily_resets();
  void enable_bank_trading(sim::Duration poll = 5 * sim::kMinute);
  void enable_periodic_snapshots(sim::Duration period);
  // Telemetry: one registry per shard, each sampling only its owned
  // entities at the same sim-time cadence, so the merged series (see
  // telemetry::merge_series) are bit-identical at any shard count.  The
  // Prometheus exposition path is single-registry-only and ignored here
  // when sharded (shards would race on the file).
  void enable_telemetry(const telemetry::TelemetryConfig& cfg);
  // Per-shard registries for merge/export (empty vector entries never
  // happen: all shards enable together).  Empty when telemetry is off.
  std::vector<const telemetry::TelemetryRegistry*> telemetry_registries()
      const;

  // Fault injection: one injector per shard, same plan and seed, keyed
  // per-pair draws (sharded mode) so the injected pattern is identical at
  // any shard count.  The facade owns the injectors.
  void attach_faults(const net::FaultPlan& plan, std::uint64_t fault_seed);

  // --- Time ----------------------------------------------------------------
  void run_for(sim::Duration d);
  void run_until_quiet(sim::Duration max = 365 * sim::kDay);
  sim::SimTime now() const noexcept;

  // --- Topology ------------------------------------------------------------
  bool sharded() const noexcept { return shards_.size() > 1; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  // Which shard owns global host id `host` (bank_index() for the bank).
  std::size_t owner_shard(std::size_t host) const noexcept;
  ZmailSystem& shard(std::size_t s) { return *shards_.at(s); }
  const ZmailSystem& shard(std::size_t s) const { return *shards_.at(s); }

  // --- Introspection (owner-routed; state lives wholly on its shard) -------
  const ZmailParams& params() const noexcept { return shards_[0]->params(); }
  bool is_compliant(std::size_t i) const {
    return shards_[0]->params().is_compliant(i);
  }
  std::size_t bank_index() const noexcept { return shards_[0]->bank_index(); }
  // The central world's one bank, named the way FederatedZmailSystem names
  // its member banks (bank_host(0) == bank_index()).
  std::size_t bank_count() const noexcept { return 1; }
  std::size_t bank_host(std::size_t) const noexcept { return bank_index(); }
  Isp& isp(IspId i);
  const Isp& isp(IspId i) const;
  Bank& bank() { return shards_[0]->bank(); }
  const Bank& bank() const { return shards_[0]->bank(); }

  // --- Merged observability (partition-independent values) -----------------
  IspMetrics total_isp_metrics() const;
  LegacyHostStats total_legacy_stats() const;
  // All shards' delivery latencies, sorted ascending.  The sort is what
  // makes the float reductions (mean/sum) independent of which shard
  // observed which email; Sample::mean adds in insertion order.
  Sample merged_delivery_latency() const;
  std::uint64_t datagrams_sent() const;  // cross-shard sends counted once
  std::uint64_t bytes_sent() const;
  std::uint64_t smtp_bytes_received(std::size_t isp) const;
  std::size_t pending_transfers() const noexcept;
  std::uint64_t state_recoveries() const noexcept;
  std::uint64_t calendar_rebases() const noexcept;
  ZmailSystem::StoreTotals store_totals() const;

  // --- Global zero-sum invariants ------------------------------------------
  EPenny total_epennies() const;
  EPenny epennies_in_flight() const noexcept;
  Money total_real_money() const;
  // Global conservation: sum of per-shard holdings (per-shard escrow counts
  // drift +/- across shards; only the sum is meaningful) against the owned
  // initial endowments plus the bank's net mint.
  bool conservation_holds() const;
  // World-wide initial e-penny endowment (Σ per-shard owned shares); the
  // conservation baseline telemetry's derived gap series subtracts from.
  EPenny initial_endowment() const;
  const BarrierAudit& barrier_audit() const noexcept { return audit_; }

  // --- Engine --------------------------------------------------------------
  // nullptr when shards == 1 (no engine runs).
  const sim::ShardedStats* engine_stats() const noexcept {
    return engine_ ? &engine_->stats() : nullptr;
  }
  // Lookahead-bound violations observed anywhere (destination-network
  // clamps + engine drain clamps).  Deterministic runs must keep this 0.
  std::uint64_t horizon_clamps() const noexcept;

 private:
  void wire_shard(std::size_t s);
  void audit_barrier(sim::SimTime at);

  ShardOptions opts_;
  std::vector<std::unique_ptr<ZmailSystem>> shards_;
  std::unique_ptr<util::ThreadPool> pool_;        // null when shards == 1
  std::unique_ptr<sim::ShardedSimulator> engine_; // null when shards == 1
  std::vector<std::unique_ptr<net::FaultInjector>> injectors_;
  Money initial_real_money_ = Money::zero();
  BarrierAudit audit_;
};

}  // namespace zmail::core
