// Columnar user-state core: UserId semantics, Population column/arena
// behavior, and the ISP's "ZSNP" v2 columnar snapshot sections: exact
// round trips, the mmap restore path, and rejection of malformed or
// pre-columnar snapshots.
#include "core/population.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/bank.hpp"
#include "core/isp.hpp"
#include "isp_state.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace zmail::core {
namespace {

// --- UserId ----------------------------------------------------------------

TEST(UserIdTest, ImplicitFromIndexExplicitBackOut) {
  const UserId u = 7;  // implicit, like IspId
  EXPECT_EQ(u.slot(), 7u);
  EXPECT_TRUE(u.valid());
  EXPECT_EQ(u, UserId(7));
  EXPECT_NE(u, UserId(8));
  EXPECT_LT(UserId(3), UserId(4));
}

TEST(UserIdTest, InvalidSentinelMatchesLegacyNoUser) {
  EXPECT_FALSE(kInvalidUser.valid());
  // The historical kNoUser was size_t(-1); it must truncate to the same
  // sentinel so old call sites keep meaning "no user".
  EXPECT_EQ(UserId(static_cast<std::size_t>(-1)), kInvalidUser);
}

TEST(UserIdTest, WireEncodingRoundTripsAndPreservesLegacyBytes) {
  EXPECT_EQ(user_to_wire(UserId(42)), 42u);
  EXPECT_EQ(user_to_wire(kInvalidUser), ~std::uint64_t{0});
  EXPECT_EQ(user_from_wire(42), UserId(42));
  EXPECT_EQ(user_from_wire(~std::uint64_t{0}), kInvalidUser);
  // Anything at or past the sentinel slot reads back as "no user".
  EXPECT_EQ(user_from_wire(0xFFFFFFFFull), kInvalidUser);
}

// --- Population ------------------------------------------------------------

TEST(PopulationTest, ResetInitializesEveryColumn) {
  Population p;
  p.reset(3, Money::from_dollars(5.0), 10, 4);
  ASSERT_EQ(p.size(), 3u);
  p.for_each_active([](UserId, ConstUserRef u) {
    EXPECT_EQ(u.account, Money::from_dollars(5.0));
    EXPECT_EQ(u.balance, 10);
    EXPECT_EQ(u.limit, 4);
    EXPECT_EQ(u.sent, 0);
    EXPECT_EQ(u.blocked_today, 0);
    EXPECT_EQ(u.warnings, 0);
    EXPECT_EQ(u.quarantined, 0);
    EXPECT_EQ(u.lifetime_sent, 0);
  });
}

TEST(PopulationTest, ProxyWritesLandInColumns) {
  Population p;
  p.reset(4, Money::zero(), 10, 5);
  p.at(2).balance -= 3;
  p.at(2).sent += 1;
  p.at(2).blocked_today = true;
  EXPECT_EQ(p.balances()[2], 7);
  EXPECT_EQ(p.sent_today()[2], 1);
  EXPECT_EQ(p.blocked_today()[2], 1);
  EXPECT_EQ(p.balances()[1], 10);  // neighbors untouched
}

TEST(PopulationTest, ResetDayClearsOnlyTheDayArena) {
  Population p;
  p.reset(5, Money::zero(), 10, 5);
  p.at(1).sent = 4;
  p.at(1).blocked_today = true;
  p.at(1).warnings = 2;  // persistent: survives the day boundary
  p.at(1).balance = 6;
  p.reset_day();
  EXPECT_EQ(p.at(UserId(1)).sent, 0);
  EXPECT_EQ(p.at(UserId(1)).blocked_today, 0);
  EXPECT_EQ(p.at(UserId(1)).warnings, 2);
  EXPECT_EQ(p.at(UserId(1)).balance, 6);
}

TEST(PopulationTest, PolicySideTableIsSparseAndOrdered) {
  Population p;
  p.reset(8, Money::zero(), 10, 5);
  EXPECT_EQ(p.policy_override(UserId(3)), std::nullopt);
  EXPECT_EQ(p.policy_or(UserId(3), NonCompliantPolicy::kAccept),
            NonCompliantPolicy::kAccept);
  p.set_policy_override(5, NonCompliantPolicy::kDiscard);
  p.set_policy_override(2, NonCompliantPolicy::kSegregate);
  EXPECT_EQ(p.policy_or(UserId(5), NonCompliantPolicy::kAccept),
            NonCompliantPolicy::kDiscard);
  ASSERT_EQ(p.policy_overrides().size(), 2u);
  EXPECT_EQ(p.policy_overrides().begin()->first, 2u);  // slot-ordered
  p.set_policy_override(5, std::nullopt);
  EXPECT_EQ(p.policy_override(UserId(5)), std::nullopt);
  // reset() drops the table.
  p.reset(8, Money::zero(), 10, 5);
  EXPECT_TRUE(p.policy_overrides().empty());
}

TEST(PopulationTest, ColumnSpansAndRawBytes) {
  Population p;
  p.reset(4, Money::from_epennies(2), 9, 5);
  EXPECT_EQ(p.column_span<EPenny>(Population::Column::kBalance)[0], 9);
  EXPECT_EQ(p.column_span<Money>(Population::Column::kAccount)[3],
            Money::from_epennies(2));
  EXPECT_EQ(p.column_span<std::uint8_t>(Population::Column::kQuarantined)[0],
            0);
  EXPECT_EQ(p.column_bytes(Population::Column::kBalance), 4 * 8u);
  EXPECT_EQ(p.column_bytes(Population::Column::kBlockedToday), 4u);

  // Raw round trip of one column through load_column.
  p.at(1).balance = 123;
  Population q;
  q.reset(4, Money::zero(), 0, 0);
  ASSERT_TRUE(q.load_column(Population::Column::kBalance,
                            p.column_data(Population::Column::kBalance),
                            p.column_bytes(Population::Column::kBalance)));
  EXPECT_EQ(q.balances()[1], 123);
  // Wrong length refused.
  EXPECT_FALSE(q.load_column(Population::Column::kBalance,
                             p.column_data(Population::Column::kBalance), 7));
}

// --- Running totals of the tracked columns ---------------------------------

void expect_totals_match_scan(const Population& p) {
  EXPECT_EQ(p.balance_total(), p.scan_balance_total());
  EXPECT_EQ(p.account_total(), p.scan_account_total());
  EXPECT_TRUE(p.totals_agree());
}

TEST(PopulationTotalsTest, ResetSetsTotalsToNTimesStart) {
  Population p;
  p.reset(5, Money::from_dollars(2.5), 7, 4);
  EXPECT_EQ(p.balance_total(), 35);
  EXPECT_EQ(p.account_total(), Money::from_dollars(12.5));
  expect_totals_match_scan(p);
  p.at(0).balance += 3;
  p.reset(3, Money::zero(), 1, 4);  // a reset forgets earlier writes
  EXPECT_EQ(p.balance_total(), 3);
  EXPECT_EQ(p.account_total(), Money::zero());
  expect_totals_match_scan(p);
  p.reset(0, Money::from_dollars(1.0), 9, 4);
  EXPECT_EQ(p.balance_total(), 0);
  expect_totals_match_scan(p);
}

TEST(PopulationTotalsTest, ProxyAssignAddSubtractMoveTotals) {
  Population p;
  p.reset(4, Money::from_epennies(10), 10, 5);
  p.at(1).balance = 3;  // -7
  EXPECT_EQ(p.balance_total(), 33);
  expect_totals_match_scan(p);
  p.at(2).balance += 5;
  EXPECT_EQ(p.balance_total(), 38);
  expect_totals_match_scan(p);
  p.at(3).balance -= 10;
  EXPECT_EQ(p.balance_total(), 28);
  expect_totals_match_scan(p);

  p.at(0).account = Money::from_epennies(1);  // -9
  EXPECT_EQ(p.account_total(), Money::from_epennies(31));
  p.at(1).account += Money::from_epennies(4);
  p.at(2).account -= Money::from_epennies(20);  // may go negative
  EXPECT_EQ(p.account_total(), Money::from_epennies(15));
  expect_totals_match_scan(p);

  // Row-to-row assignment copies the value and tracks the difference.
  p.at(0).balance = p.at(2).balance;
  EXPECT_EQ(p.balances()[0], 15);
  EXPECT_EQ(p.balance_total(), 33);
  expect_totals_match_scan(p);

  // Untracked columns do not touch the totals.
  p.at(0).sent += 3;
  p.at(0).lifetime_epennies_bought += 100;
  EXPECT_EQ(p.balance_total(), 33);
  expect_totals_match_scan(p);
}

TEST(PopulationTotalsTest, LoadColumnRecomputesTrackedTotals) {
  Population src;
  src.reset(6, Money::from_epennies(3), 4, 5);
  src.at(1).balance += 50;
  src.at(4).account -= Money::from_epennies(2);

  Population dst;
  dst.reset(6, Money::zero(), 0, 0);
  ASSERT_TRUE(dst.load_column(Population::Column::kBalance,
                              src.column_data(Population::Column::kBalance),
                              src.column_bytes(Population::Column::kBalance)));
  EXPECT_EQ(dst.balance_total(), src.balance_total());
  EXPECT_EQ(dst.account_total(), Money::zero());  // not loaded yet
  expect_totals_match_scan(dst);
  ASSERT_TRUE(dst.load_column(Population::Column::kAccount,
                              src.column_data(Population::Column::kAccount),
                              src.column_bytes(Population::Column::kAccount)));
  EXPECT_EQ(dst.account_total(), src.account_total());
  expect_totals_match_scan(dst);
  // A refused load leaves the totals alone.
  EXPECT_FALSE(dst.load_column(Population::Column::kBalance,
                               src.column_data(Population::Column::kBalance),
                               3));
  EXPECT_EQ(dst.balance_total(), src.balance_total());
}

TEST(PopulationTotalsTest, SeededRandomMutationsKeepTotalsExact) {
  Population p;
  p.reset(64, Money::from_dollars(1.0), 20, 5);
  Rng rng(2024);
  EPenny expect_balance = 64 * 20;
  Money expect_account = Money::from_dollars(64.0);
  for (int step = 0; step < 5'000; ++step) {
    const UserId u(rng.next_below(64));
    const EPenny d = static_cast<EPenny>(rng.next_below(41)) - 20;
    const Money m = Money::from_micros(d * 1'234);
    switch (rng.next_below(6)) {
      case 0: expect_balance += d; p.at(u).balance += d; break;
      case 1: expect_balance -= d; p.at(u).balance -= d; break;
      case 2:
        expect_balance += d - p.balances()[u.slot()];
        p.at(u).balance = d;
        break;
      case 3: expect_account += m; p.at(u).account += m; break;
      case 4: expect_account -= m; p.at(u).account -= m; break;
      default:
        expect_account = expect_account + m - p.accounts()[u.slot()];
        p.at(u).account = m;
        break;
    }
    if (step % 500 == 0) expect_totals_match_scan(p);
  }
  EXPECT_EQ(p.balance_total(), expect_balance);
  EXPECT_EQ(p.account_total(), expect_account);
  expect_totals_match_scan(p);
}

TEST(PopulationTotalsTest, ScanCatchesAWriteAroundTheTotal) {
  Population p;
  p.reset(3, Money::zero(), 10, 5);
  ASSERT_TRUE(p.totals_agree());
  // A write that bypasses TrackedRef (the bug the agreement check exists
  // to catch) leaves the running total stale.
  const_cast<EPenny*>(p.balances().data())[1] += 1;
  EXPECT_EQ(p.balance_total(), 30);
  EXPECT_EQ(p.scan_balance_total(), 31);
  EXPECT_FALSE(p.totals_agree());
  p.at(1).balance = 10;  // tracked write of -1 against the stale total
  EXPECT_FALSE(p.totals_agree());

  Population q;
  q.reset(3, Money::from_dollars(1.0), 0, 5);
  const_cast<Money*>(q.accounts().data())[0] = Money::zero();
  EXPECT_FALSE(q.totals_agree());
}

// --- ISP snapshot renditions ------------------------------------------------

ZmailParams small_params() {
  ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 4;
  p.default_daily_limit = 5;
  p.initial_user_balance = 10;
  p.initial_avail = 100;
  p.minavail = 50;
  p.maxavail = 200;
  return p;
}

net::EmailMessage mail(std::size_t fi, std::size_t fu, std::size_t ti,
                       std::size_t tu) {
  return net::make_email(net::make_user_address(fi, fu),
                         net::make_user_address(ti, tu), "s", "b");
}

class PopulationSnapshotTest : public ::testing::Test {
 protected:
  PopulationSnapshotTest() : keys_(crypto::generate_keypair(key_rng_)) {}

  // Drives the ISP through enough traffic to dirty every kind of state:
  // balances, sent/limit, lifetime counters, a policy override, credit.
  void dirty(Isp& isp) {
    isp.user_send(0, 0, 1, mail(0, 0, 0, 1));  // local paid send
    isp.user_send(1, 1, 2, mail(0, 1, 1, 2));  // remote paid send
    isp.user_buy(2, 3);
    isp.users().set_policy_override(3, NonCompliantPolicy::kDiscard);
    isp.user(3).warnings = 2;
    (void)isp.take_outbox();
  }

  Rng key_rng_{101};
  crypto::KeyPair keys_;
  ZmailParams params_ = small_params();
};

TEST_F(PopulationSnapshotTest, ColumnarSectionsRoundTripExactly) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);

  std::vector<store::SnapshotSection> sections;
  a.serialize_sections(sections);
  ASSERT_EQ(sections.size(), 1 + Population::kColumnCount);

  Isp b(0, params_, keys_.pub, 7);  // different seed: fully overwritten
  ASSERT_NE(isp_state(b), isp_state(a));
  ASSERT_TRUE(b.restore_columnar(raw_sections(sections)));
  // The sections are a complete rendition of ISP state; byte equality of
  // a re-serialization proves the round trip restored everything.
  EXPECT_EQ(isp_state(b), isp_state(a));
  EXPECT_EQ(b.users().policy_override(UserId(3)),
            NonCompliantPolicy::kDiscard);
}

TEST_F(PopulationSnapshotTest, MissingColumnSectionIsRejected) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);
  std::vector<store::SnapshotSection> sections;
  a.serialize_sections(sections);
  sections.pop_back();  // drop the last column
  Isp b(0, params_, keys_.pub, 7);
  EXPECT_FALSE(b.restore_columnar(raw_sections(sections)));
}

// Restore rejects enum bytes outside their enum.  An override policy that
// no case of Isp::on_email's policy switch matches would count the mail
// as received and neither deliver nor discard it.
TEST_F(PopulationSnapshotTest, OutOfRangePolicyByteIsRejected) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);
  std::vector<store::SnapshotSection> sections;
  a.serialize_sections(sections);

  // Scalar section: version u8, users u32, override count u32, then the
  // one override dirty() set, (slot u32, policy u8) for user 3.
  crypto::Bytes& scalars = sections.front().payload;
  constexpr std::size_t kPolicyByte = 1 + 4 + 4 + 4;
  ASSERT_EQ(sections.front().id, store::kIspScalarsSection);
  ASSERT_EQ(scalars[kPolicyByte],
            static_cast<std::uint8_t>(NonCompliantPolicy::kDiscard));
  scalars[kPolicyByte] = 9;

  Isp b(0, params_, keys_.pub, 7);
  EXPECT_FALSE(b.restore_columnar(raw_sections(sections)));
}

TEST_F(PopulationSnapshotTest, OutOfRangeMisbehaviorByteIsRejected) {
  Isp honest(0, params_, keys_.pub, 42);
  Isp free_rider(0, params_, keys_.pub, 42);
  free_rider.set_misbehavior(Isp::Misbehavior::kFreeRide);
  std::vector<store::SnapshotSection> a, b;
  honest.serialize_sections(a);
  free_rider.serialize_sections(b);

  // The two scalar sections differ in the misbehavior byte alone.
  const crypto::Bytes& ha = a.front().payload;
  crypto::Bytes& hb = b.front().payload;
  ASSERT_EQ(ha.size(), hb.size());
  std::vector<std::size_t> diff;
  for (std::size_t i = 0; i < ha.size(); ++i)
    if (ha[i] != hb[i]) diff.push_back(i);
  ASSERT_EQ(diff.size(), 1u);
  hb[diff[0]] = 2;

  Isp c(0, params_, keys_.pub, 7);
  EXPECT_FALSE(c.restore_columnar(raw_sections(b)));
}

// The retired v1 rendition (a v1 container holding one row-blob section)
// is refused before any state is touched.
TEST_F(PopulationSnapshotTest, V1SnapshotIsRejected) {
  store::SnapshotData snap;  // meta.version defaults to v1
  snap.sections.push_back(store::SnapshotSection{
      store::kStateSection, crypto::Bytes{1, 0, 0, 0, 4}});
  const std::string path = "core_population_test_v1.zsnap";
  std::string err;
  ASSERT_EQ(store::write_snapshot_file(path, snap, true, &err),
            store::StoreStatus::kOk)
      << err;

  store::SnapshotFileView view;
  ASSERT_EQ(view.open(path), store::StoreStatus::kOk);
  ASSERT_EQ(view.meta().version, store::kSnapshotVersion);
  Isp b(0, params_, keys_.pub, 7);
  dirty(b);
  const crypto::Bytes before = isp_state(b);
  EXPECT_FALSE(b.restore_snapshot(view));
  EXPECT_EQ(isp_state(b), before);
  view.close();
  std::remove(path.c_str());
}

TEST_F(PopulationSnapshotTest, V2SnapshotRestoresViaMmapView) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);

  store::SnapshotData snap;
  snap.meta.version = store::kSnapshotVersionColumnar;
  snap.meta.features = store::kFeatureColumnarUserState;
  a.serialize_sections(snap.sections);
  const std::string path = "core_population_test.zsnap";
  std::string err;
  ASSERT_EQ(store::write_snapshot_file(path, snap, true, &err),
            store::StoreStatus::kOk)
      << err;

  store::SnapshotFileView view;
  ASSERT_EQ(view.open(path), store::StoreStatus::kOk);
  Isp b(0, params_, keys_.pub, 7);
  ASSERT_TRUE(b.restore_snapshot(view));
  EXPECT_EQ(isp_state(b), isp_state(a));
  view.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zmail::core
