// Sharded engine end to end: the merged observable state of a partitioned
// world must be bit-identical at any shard or thread count (fault-free and
// under an adversarial FaultPlan), the single-shard facade must be
// byte-equivalent to the plain whole-world system, cross-shard ARQ
// retransmit and refund chains must validate, an ISP living on a non-zero
// shard must crash and recover from its durable store, and the barrier
// audits must stay green throughout.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/obs.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "net/address.hpp"
#include "net/faults.hpp"
#include "trace/analyze.hpp"
#include "trace/trace.hpp"
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

// One fixed verb stream, replayed identically against any world (plain
// ZmailSystem or ShardedSystem at any shard count).  The draws depend only
// on the seed, never on world state, so every run issues the same verbs.
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

// The snapshot's world state (everything outside the run-dependent
// sections: the "engine" section reports windows/messages, which
// legitimately vary with the partition) is the bit-identity artifact.
std::string run_and_snapshot(std::size_t shards, std::size_t threads,
                             std::uint64_t seed) {
  ShardOptions o;
  o.shards = shards;
  o.threads = threads;
  ShardedSystem w(world_params(), seed, o);
  drive_mixed_traffic(w, seed + 1, 40);
  w.end_of_day();
  w.run_for(sim::kHour);
  EXPECT_EQ(w.horizon_clamps(), 0u) << "lookahead bound violated somewhere";
  EXPECT_TRUE(w.barrier_audit().ok())
      << (w.barrier_audit().messages.empty()
              ? ""
              : w.barrier_audit().messages.front());
  // The audit runs at every window edge.
  EXPECT_EQ(w.barrier_audit().checks, w.engine_stats()->windows);
  EXPECT_TRUE(w.conservation_holds());
  return obs::world_state(obs::snapshot(w)).dump();
}

TEST(ShardedDeterminismTest, MergedSnapshotBitIdenticalAcrossShardCounts) {
  const std::string s2 = run_and_snapshot(2, 0, 505);
  const std::string s4 = run_and_snapshot(4, 0, 505);
  const std::string s8 = run_and_snapshot(8, 0, 505);
  EXPECT_EQ(s2, s4);
  EXPECT_EQ(s4, s8);
}

TEST(ShardedDeterminismTest, MergedSnapshotIndependentOfThreadCount) {
  const std::string t1 = run_and_snapshot(4, 1, 606);
  const std::string t2 = run_and_snapshot(4, 2, 606);
  const std::string t4 = run_and_snapshot(4, 4, 606);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t2, t4);
}

TEST(ShardedDeterminismTest, SingleShardMatchesWholeSystemByteForByte) {
  ZmailSystem plain(world_params(), 707);
  drive_mixed_traffic(plain, 708, 40);

  ShardOptions o;  // shards == 1: facade holds one whole-world system
  ShardedSystem facade(world_params(), 707, o);
  EXPECT_FALSE(facade.sharded());
  EXPECT_EQ(facade.engine_stats(), nullptr);
  drive_mixed_traffic(facade, 708, 40);

  // The whole snapshot, run-dependent sections included.
  EXPECT_EQ(obs::snapshot(plain).dump(), obs::snapshot(facade).dump());
}

TEST(ShardedDeterminismTest, BitIdenticalUnderFaultPlan) {
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
    ShardedSystem w(p, 909, o);
    w.attach_faults(plan, 910);
    drive_mixed_traffic(w, 911, 40);
    // Bounded drain: the retry poller never lets the queue empty, so a
    // "run until quiet" would walk its entire 365-day horizon.
    w.run_for(4 * sim::kHour);
    EXPECT_EQ(w.pending_transfers(), 0u);
    // Delay spikes only ever push arrivals later than the latency floor, so
    // the conservative lookahead bound still holds under faults.
    EXPECT_EQ(w.horizon_clamps(), 0u);
    EXPECT_TRUE(w.barrier_audit().ok())
        << (w.barrier_audit().messages.empty()
                ? ""
                : w.barrier_audit().messages.front());
    EXPECT_TRUE(w.conservation_holds());
    EXPECT_GT(w.total_isp_metrics().emails_retransmitted, 0u);
    return obs::world_state(obs::snapshot(w)).dump();
  };

  const std::string s2 = run(2);
  const std::string s4 = run(4);
  const std::string s8 = run(8);
  EXPECT_EQ(s2, s4);
  EXPECT_EQ(s4, s8);
}

// The durable store's totals (checkpoints, WAL records and bytes, syncs)
// are world state too: every ISP and the bank log the same commands
// whichever shard they live on.
TEST(ShardedDeterminismTest, BitIdenticalWithDurableStore) {
  const auto run = [&](std::size_t shards) {
    ZmailParams p = world_params();
    p.store.enabled = true;
    p.store.dir = "sharded_store_identity_" + std::to_string(shards);
    ShardOptions o;
    o.shards = shards;
    json::Value world;
    {
      ShardedSystem w(p, 919, o);
      drive_mixed_traffic(w, 921, 40);
      w.start_snapshot();
      w.run_for(sim::kHour);
      EXPECT_TRUE(w.conservation_holds());
      world = obs::world_state(obs::snapshot(w));
    }
    std::filesystem::remove_all(p.store.dir);
    EXPECT_GT(world.find("store")->find("checkpoints")->as_uint64(), 0u);
    EXPECT_GT(world.find("store")->find("wal_records_appended")->as_uint64(),
              0u);
    return world.dump();
  };
  const std::string s2 = run(2);
  const std::string s4 = run(4);
  const std::string s8 = run(8);
  EXPECT_EQ(s2, s4);
  EXPECT_EQ(s4, s8);
}

class ShardedTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::clear();
    trace::set_enabled(true);
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::clear();
  }
};

TEST_F(ShardedTraceTest, CrossShardRetransmitChainValidates) {
  ZmailParams p = world_params();
  p.n_isps = 2;  // ISP 0 on shard 0, ISP 1 on shard 1: every email crosses
  p.reliable_email_transport = true;
  ShardOptions o;
  o.shards = 2;
  o.threads = 1;  // trace recorder sees one worker thread
  ShardedSystem w(p, 21, o);

  net::FaultPlan plan;
  plan.rates.drop = 0.30;
  w.attach_faults(plan, 22);

  for (int i = 0; i < 25; ++i) {
    w.send_email(net::make_user_address(0, i % 3),
                 net::make_user_address(1, (i + 1) % 3), "lossy",
                 "m" + std::to_string(i));
    w.run_for(30 * sim::kSecond);
  }
  w.run_for(2 * sim::kHour);

  const IspMetrics m = w.total_isp_metrics();
  EXPECT_EQ(m.emails_sent_compliant, 25u);
  EXPECT_EQ(m.emails_received_compliant, 25u);
  EXPECT_GT(m.emails_retransmitted, 0u);
  EXPECT_EQ(w.pending_transfers(), 0u);
  EXPECT_TRUE(w.conservation_holds());

  const trace::ValidationResult v = trace::validate(trace::collect());
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
  EXPECT_GT(v.chains_total, 0u);
}

TEST_F(ShardedTraceTest, CrossShardRefundChainValidates) {
  ZmailParams p = world_params();
  p.n_isps = 2;
  p.reliable_email_transport = true;
  p.email_max_retransmits = 2;  // abandon quickly -> refund path
  ShardOptions o;
  o.shards = 2;
  o.threads = 1;
  ShardedSystem w(p, 31, o);

  net::FaultPlan plan;
  plan.rates.drop = 1.0;  // total loss: retransmit to cap, abandon, refund
  w.attach_faults(plan, 32);

  ASSERT_EQ(w.send_email(net::make_user_address(0, 0),
                         net::make_user_address(1, 0), "doomed", "body"),
            SendResult::kSentPaid);
  w.run_for(sim::kHour);
  EXPECT_EQ(w.pending_transfers(), 0u);
  EXPECT_EQ(w.total_isp_metrics().emails_refunded, 1u);
  EXPECT_TRUE(w.conservation_holds());

  const auto events = trace::collect();
  bool refund_terminal = false;
  for (const auto& [id, c] : trace::build_chains(events))
    if (c.terminal == trace::Ev::kRefund) refund_terminal = true;
  EXPECT_TRUE(refund_terminal);
  const trace::ValidationResult v = trace::validate(events);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
}

TEST(ShardedRecoveryTest, CrashAndRecoverIspOnNonZeroShard) {
  const std::string dir = "sim_sharded_test_store";
  std::filesystem::remove_all(dir);
  ZmailParams p = world_params();
  p.n_isps = 4;
  p.store.enabled = true;
  p.store.dir = dir;
  ShardOptions o;
  o.shards = 4;
  o.threads = 1;
  ShardedSystem w(p, 41, o);
  drive_mixed_traffic(w, 42, 15);

  // ISP 1 lives on shard 1: the crash wipes its in-memory state there and
  // the restart rebuilds it from that shard's snapshot + WAL tail.
  ASSERT_EQ(w.owner_shard(1), 1u);
  w.crash_host(1, 2 * sim::kMinute);
  w.run_for(10 * sim::kMinute);
  drive_mixed_traffic(w, 43, 10);
  w.run_for(2 * sim::kHour);

  EXPECT_EQ(w.state_recoveries(), 1u);
  EXPECT_EQ(w.pending_transfers(), 0u);
  EXPECT_TRUE(w.conservation_holds());
  EXPECT_TRUE(w.barrier_audit().ok())
      << (w.barrier_audit().messages.empty()
              ? ""
              : w.barrier_audit().messages.front());
  EXPECT_EQ(w.horizon_clamps(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, SnapshotExportsEngineSection) {
  ShardOptions o;
  o.shards = 4;
  ShardedSystem w(world_params(), 51, o);
  drive_mixed_traffic(w, 52, 10);

  const sim::ShardedStats* st = w.engine_stats();
  ASSERT_NE(st, nullptr);
  EXPECT_GT(st->windows, 0u);
  EXPECT_GT(st->cross_shard_msgs, 0u);
  EXPECT_EQ(st->mailbox_overflows, 0u);
  EXPECT_GT(w.barrier_audit().checks, 0u);

  const json::Value j = obs::snapshot(w);
  const json::Value* eng = j.find("engine");
  ASSERT_NE(eng, nullptr);
  EXPECT_EQ(eng->find("windows")->as_uint64(), st->windows);
  EXPECT_EQ(eng->find("cross_shard_msgs")->as_uint64(), st->cross_shard_msgs);
  EXPECT_NE(eng->find("barrier_audit_failures"), nullptr);
  EXPECT_EQ(eng->find("calendar_rebase_count")->as_uint64(),
            w.calendar_rebases());
  // Nothing partition-dependent outside the run-dependent sections.
  EXPECT_EQ(j.find("calendar_rebase_count"), nullptr);
  EXPECT_EQ(obs::world_state(j).find("engine"), nullptr);
}

TEST(ShardedEngineTest, ComplianceFlipRoutesAcrossShards) {
  ZmailParams p = world_params();
  p.n_isps = 4;
  p.compliant = {true, true, false, true};  // ISP 2 starts legacy
  ShardOptions o;
  o.shards = 2;
  ShardedSystem w(p, 61, o);

  // Legacy mail is free; after the flip the same sender pays.
  w.send_email(net::make_user_address(2, 0), net::make_user_address(0, 0),
               "free", "b");
  w.run_for(sim::kMinute);
  EXPECT_FALSE(w.is_compliant(2));

  w.make_compliant(2);
  EXPECT_TRUE(w.is_compliant(2));
  // The flip publishes on every shard, not just the owner.
  for (std::size_t s = 0; s < w.shard_count(); ++s)
    EXPECT_TRUE(w.shard(s).params().is_compliant(2));

  drive_mixed_traffic(w, 62, 10);
  w.run_for(sim::kHour);
  EXPECT_TRUE(w.conservation_holds());
  EXPECT_TRUE(w.barrier_audit().ok());
}

// --- Barrier audits catch value creation -----------------------------------
// The barrier audit reads O(ISPs) running totals; value created between two
// windows must still trip it, and the next quiet point must fail too.

std::string audit_messages(const BarrierAudit& a) {
  std::string all;
  for (const std::string& m : a.messages) all += m + "\n";
  return all;
}

TEST(ShardedBarrierAuditTest, EPenniesCreatedBetweenWindowsAreCaught) {
  ShardOptions o;
  o.shards = 4;
  ShardedSystem w(world_params(), 71, o);
  drive_mixed_traffic(w, 72, 5);
  ASSERT_TRUE(w.barrier_audit().ok()) << audit_messages(w.barrier_audit());
  ASSERT_TRUE(w.conservation_holds());

  w.isp(5).user(1).balance += 5;  // e-pennies from nowhere, off shard 0
  const std::uint64_t checks = w.barrier_audit().checks;
  drive_mixed_traffic(w, 73, 1);  // windows only run while events are due
  ASSERT_GT(w.barrier_audit().checks, checks);

  const BarrierAudit& a = w.barrier_audit();
  EXPECT_GT(a.failures, 0u);
  ASSERT_FALSE(a.messages.empty());
  EXPECT_EQ(a.messages.front().rfind("e-pennies created from nothing", 0), 0u)
      << a.messages.front();
  EXPECT_EQ(audit_messages(a).find("real money"), std::string::npos);
  EXPECT_FALSE(w.conservation_holds());  // drive_mixed_traffic ends quiet
}

TEST(ShardedBarrierAuditTest, RealMoneyCreatedBetweenWindowsIsCaught) {
  ShardOptions o;
  o.shards = 4;
  ShardedSystem w(world_params(), 81, o);
  drive_mixed_traffic(w, 82, 5);
  ASSERT_TRUE(w.barrier_audit().ok()) << audit_messages(w.barrier_audit());

  w.isp(3).user(2).account += Money::from_dollars(1.0);
  const std::uint64_t checks = w.barrier_audit().checks;
  drive_mixed_traffic(w, 83, 1);
  ASSERT_GT(w.barrier_audit().checks, checks);

  const BarrierAudit& a = w.barrier_audit();
  EXPECT_GT(a.failures, 0u);
  ASSERT_FALSE(a.messages.empty());
  EXPECT_EQ(a.messages.front().rfind("real money created from nothing", 0),
            0u)
      << a.messages.front();
  EXPECT_EQ(audit_messages(a).find("e-pennies"), std::string::npos);
}

// A write that bypasses the tracked columns leaves a running total stale;
// the barrier (which trusts the totals) cannot see it, but the quiet-point
// conservation check's full scan must, on both engine paths.
TEST(ShardedBarrierAuditTest, QuietPointScanCatchesStaleRunningTotal) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardOptions o;
    o.shards = shards;
    ShardedSystem w(world_params(), 91, o);
    drive_mixed_traffic(w, 92, 5);
    ASSERT_TRUE(w.conservation_holds()) << shards;

    const Population& users = w.isp(6).users();
    const_cast<EPenny*>(users.balances().data())[0] += 1;
    EXPECT_FALSE(users.totals_agree()) << shards;
    EXPECT_FALSE(w.conservation_holds()) << shards;
    const_cast<EPenny*>(users.balances().data())[0] -= 1;
    EXPECT_TRUE(w.conservation_holds()) << shards;

    const_cast<Money*>(users.accounts().data())[2] += Money::from_cents(1);
    EXPECT_FALSE(w.conservation_holds()) << shards;
  }
}

// A decodable address outside the world (ISP 70 of 8, user 999 of 3) is
// refused at any shard count.
TEST(ShardedEngineTest, TradesRefuseOutOfRangeAddresses) {
  for (const std::size_t shards : {1u, 4u}) {
    ShardOptions o;
    o.shards = shards;
    ShardedSystem w(world_params(), 71, o);
    for (const auto& who : {net::make_user_address(70, 0),
                            net::make_user_address(8, 0),
                            net::make_user_address(0, 999)}) {
      EXPECT_FALSE(w.buy_epennies(who, 5)) << who.str();
      EXPECT_FALSE(w.sell_epennies(who, 5)) << who.str();
    }
    EXPECT_TRUE(w.buy_epennies(net::make_user_address(5, 2), 5));
    EXPECT_TRUE(w.conservation_holds());
  }
}

}  // namespace
}  // namespace zmail::core
