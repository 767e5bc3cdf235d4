#include "core/system.hpp"

#include <gtest/gtest.h>

#include "net/faults.hpp"
#include "trace/analyze.hpp"
#include "trace/trace.hpp"

namespace zmail::core {
namespace {

ZmailParams two_isps() {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 3;
  p.initial_user_balance = 20;
  return p;
}

net::EmailAddress user(std::size_t i, std::size_t u) {
  return net::make_user_address(i, u);
}

TEST(System, CrossIspMailMovesOneEPenny) {
  ZmailSystem sys(two_isps(), 1);
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 1), "hi", "there"),
            SendResult::kSentPaid);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(0).user(0).balance, 19);
  EXPECT_EQ(sys.isp(1).user(1).balance, 21);
  EXPECT_EQ(sys.isp(0).credit()[1], 1);
  EXPECT_EQ(sys.isp(1).credit()[0], -1);
  ASSERT_EQ(sys.isp(1).inbox(1).size(), 1u);
  EXPECT_EQ(sys.isp(1).inbox(1)[0].msg.subject(), "hi");
}

TEST(System, MailTravelsThroughRealSmtp) {
  ZmailSystem sys(two_isps(), 2);
  sys.send_email(user(0, 0), user(1, 0), "subject line", "body\n.dots\nok");
  sys.run_for(sim::kMinute);
  EXPECT_GT(sys.smtp_bytes_received(1), 100u);
  ASSERT_EQ(sys.isp(1).inbox(0).size(), 1u);
  EXPECT_EQ(sys.isp(1).inbox(0)[0].msg.body, "body\n.dots\nok");
}

TEST(System, ConservationHoldsAfterTraffic) {
  ZmailSystem sys(two_isps(), 3);
  for (int i = 0; i < 20; ++i) {
    sys.send_email(user(i % 2, i % 3), user((i + 1) % 2, (i + 1) % 3), "s",
                   "b");
  }
  sys.run_for(sim::kHour);
  EXPECT_EQ(sys.epennies_in_flight(), 0);
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(System, InFlightEPenniesCountedMidFlight) {
  ZmailSystem sys(two_isps(), 4);
  const EPenny before = sys.total_epennies();
  sys.send_email(user(0, 0), user(1, 0), "s", "b");
  // Not yet delivered: the e-penny is in flight but still counted.
  EXPECT_EQ(sys.epennies_in_flight(), 1);
  EXPECT_EQ(sys.total_epennies(), before);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.epennies_in_flight(), 0);
  EXPECT_EQ(sys.total_epennies(), before);
}

TEST(System, UserTradesViaFacade) {
  ZmailSystem sys(two_isps(), 5);
  EXPECT_TRUE(sys.buy_epennies(user(0, 0), 10));
  EXPECT_EQ(sys.isp(0).user(0).balance, 30);
  EXPECT_TRUE(sys.sell_epennies(user(0, 0), 5));
  EXPECT_EQ(sys.isp(0).user(0).balance, 25);
  EXPECT_FALSE(sys.buy_epennies({"nobody", "unknown.example"}, 1));
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(System, RealMoneyIsConservedByUserTrades) {
  ZmailSystem sys(two_isps(), 6);
  const Money before = sys.total_real_money();
  sys.buy_epennies(user(0, 0), 10);
  sys.sell_epennies(user(1, 2), 3);
  EXPECT_EQ(sys.total_real_money(), before);
}

TEST(System, SnapshotRoundCompletesOverNetwork) {
  ZmailSystem sys(two_isps(), 7);
  sys.send_email(user(0, 0), user(1, 0), "s", "b");
  sys.run_for(sim::kMinute);
  sys.start_snapshot();
  // Requests travel, ISPs quiesce 10 minutes, replies return.
  sys.run_for(30 * sim::kMinute);
  EXPECT_FALSE(sys.bank().round_open());
  EXPECT_TRUE(sys.bank().last_violations().empty());
  EXPECT_EQ(sys.bank().seq(), 1u);
  EXPECT_EQ(sys.isp(0).seq(), 1u);
  EXPECT_EQ(sys.isp(1).seq(), 1u);
  // Settlement: ISP 0 paid ISP 1 one e-penny's worth.
  EXPECT_EQ(sys.bank().account(0),
            sys.params().initial_isp_bank_account - Money::from_epennies(1));
}

TEST(System, MailSentDuringQuiesceArrivesAfter) {
  ZmailSystem sys(two_isps(), 8);
  sys.start_snapshot();
  sys.run_for(sim::kMinute);  // requests delivered; ISPs quiescing
  ASSERT_TRUE(sys.isp(0).in_quiesce());
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "during", "quiesce"),
            SendResult::kBuffered);
  EXPECT_TRUE(sys.isp(1).inbox(0).empty());
  sys.run_for(15 * sim::kMinute);  // quiesce expires, mail flushes
  ASSERT_EQ(sys.isp(1).inbox(0).size(), 1u);
  EXPECT_EQ(sys.isp(1).inbox(0)[0].msg.subject(), "during");
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(System, MisbehavingIspDetectedBySnapshot) {
  ZmailSystem sys(two_isps(), 9);
  sys.isp(0).set_misbehavior(Isp::Misbehavior::kFreeRide);
  for (int i = 0; i < 5; ++i)
    sys.send_email(user(0, 0), user(1, 0), "free", "ride");
  sys.run_for(sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  ASSERT_EQ(sys.bank().last_violations().size(), 1u);
  EXPECT_EQ(sys.bank().last_violations()[0].discrepancy, -5);
}

TEST(System, LegacySenderDeliversFreeMail) {
  ZmailParams p = two_isps();
  p.n_isps = 3;
  p.compliant = {true, true, false};
  ZmailSystem sys(p, 10);
  EXPECT_EQ(sys.send_email(user(2, 0), user(0, 1), "free", "smtp"),
            SendResult::kSentFree);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.legacy_stats(2).emails_sent, 1u);
  ASSERT_EQ(sys.isp(0).inbox(1).size(), 1u);
  EXPECT_EQ(sys.isp(0).inbox(1)[0].paid, 0);
  EXPECT_EQ(sys.isp(0).user(1).balance, p.initial_user_balance);
}

TEST(System, CompliantToLegacyIsFree) {
  ZmailParams p = two_isps();
  p.n_isps = 3;
  p.compliant = {true, true, false};
  ZmailSystem sys(p, 11);
  EXPECT_EQ(sys.send_email(user(0, 0), user(2, 1), "to", "legacy"),
            SendResult::kSentFree);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(0).user(0).balance, p.initial_user_balance);
  EXPECT_EQ(sys.legacy_stats(2).emails_received, 1u);
}

TEST(System, FilterPolicyScreensLegacySpam) {
  ZmailParams p = two_isps();
  p.n_isps = 3;
  p.compliant = {true, true, false};
  p.noncompliant_policy = NonCompliantPolicy::kFilter;
  ZmailSystem sys(p, 12);
  sys.set_spam_filter([](const net::EmailMessage& m) {
    return m.truth == net::MailClass::kSpam;
  });
  sys.send_email(user(2, 0), user(0, 0), "buy now", "spam",
                 net::MailClass::kSpam);
  sys.send_email(user(2, 0), user(0, 0), "hello", "ham");
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(0).metrics().emails_filtered_out, 1u);
  EXPECT_EQ(sys.isp(0).inbox(0).size(), 1u);
}

TEST(System, BankTradingRefillsDepletedPool) {
  ZmailParams p = two_isps();
  p.initial_avail = 60;
  p.minavail = 50;
  p.maxavail = 200;
  ZmailSystem sys(p, 13);
  sys.enable_bank_trading(sim::kMinute);
  // Drain the pool below minavail with user purchases.
  sys.buy_epennies(user(0, 0), 15);
  EXPECT_EQ(sys.isp(0).avail(), 45);
  sys.run_for(10 * sim::kMinute);
  EXPECT_EQ(sys.isp(0).avail(), 200);
  EXPECT_TRUE(sys.conservation_holds());
  EXPECT_GT(sys.bank().epennies_outstanding(), 0);
}

TEST(System, DailyResetsRestoreSendingCapacity) {
  ZmailParams p = two_isps();
  p.default_daily_limit = 2;
  ZmailSystem sys(p, 14);
  sys.enable_daily_resets();
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "1", "b"),
            SendResult::kSentPaid);
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "2", "b"),
            SendResult::kSentPaid);
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "3", "b"),
            SendResult::kDailyLimit);
  sys.run_for(25 * sim::kHour);  // crosses the daily boundary
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "4", "b"),
            SendResult::kSentPaid);
}

TEST(System, PeriodicSnapshotsAdvanceSeq) {
  ZmailSystem sys(two_isps(), 15);
  sys.enable_periodic_snapshots(2 * sim::kHour);
  sys.send_email(user(0, 0), user(1, 0), "s", "b");
  sys.run_for(7 * sim::kHour);
  EXPECT_GE(sys.bank().metrics().snapshot_rounds, 3u);
  EXPECT_EQ(sys.bank().seq(), sys.isp(0).seq());
}

TEST(System, DeliveryLatencyIsSampled) {
  ZmailSystem sys(two_isps(), 17);
  for (int i = 0; i < 10; ++i)
    sys.send_email(user(0, 0), user(1, 0), "s", "b");
  sys.run_for(sim::kMinute);
  ASSERT_EQ(sys.delivery_latency().size(), 10u);
  EXPECT_GT(sys.delivery_latency().min(), 0.0);
  EXPECT_LT(sys.delivery_latency().max(), 1.0);  // well under a second
}

TEST(System, QuiesceBufferingShowsUpInLatency) {
  ZmailSystem sys(two_isps(), 18);
  sys.start_snapshot();
  sys.run_for(sim::kMinute);
  ASSERT_TRUE(sys.isp(0).in_quiesce());
  sys.send_email(user(0, 0), user(1, 0), "held", "b");
  sys.run_for(20 * sim::kMinute);
  ASSERT_EQ(sys.delivery_latency().size(), 1u);
  // ~9 minutes of buffer time.
  EXPECT_GT(sys.delivery_latency().max(), 8.0 * 60.0);
  EXPECT_LT(sys.delivery_latency().max(), 10.0 * 60.0);
}

// A corrupt fault on the plain (non-ARQ) transport flips one payload bit.
// The receiver then delivers the message, or counts a bad envelope and ends
// the message's trace chain: no email vanishes silently.
TEST(System, CorruptedMailIsCountedAndItsChainEnds) {
  trace::set_enabled(false);
  trace::clear();
  trace::set_enabled(true);

  ZmailParams p = two_isps();
  p.initial_user_balance = 100;
  p.default_daily_limit = 1000;
  ZmailSystem sys(p, 21);
  net::FaultPlan plan;
  plan.rates.corrupt = 0.5;
  plan.only_types = {kMsgEmail};
  net::FaultInjector faults(plan, 5);
  sys.attach_faults(&faults);

  std::uint64_t sent = 0, refused = 0;
  for (int i = 0; i < 150; ++i) {
    const SendOutcome r =
        sys.send_email(user(i % 2, i % 3), user((i + 1) % 2, (i + 2) % 3),
                       "subject " + std::to_string(i), "body\nline " +
                                                           std::to_string(i));
    if (r == SendResult::kSentPaid)
      ++sent;
    else
      ++refused;
  }
  sys.run_for(sim::kHour);
  const auto events = trace::collect();
  trace::set_enabled(false);
  trace::clear();

  const IspMetrics m = sys.total_isp_metrics();
  EXPECT_GT(faults.counters().corrupted, 20u);
  EXPECT_GT(m.bad_envelopes, 0u);
  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(m.emails_refunded, 0u);
  // Every send: delivered, refused, refunded or a bad envelope.
  EXPECT_EQ(m.emails_delivered + m.bad_envelopes + refused + m.emails_refunded,
            sent + refused);

  // Every message chain reached a terminal and closed its root span.
  std::size_t rejected = 0;
  for (const auto& [id, c] : trace::build_chains(events)) {
    if (!c.has_root) continue;
    EXPECT_TRUE(c.root_closed) << "open chain 0x" << std::hex << id;
    EXPECT_NE(c.terminal, trace::Ev::kNone) << "chain 0x" << std::hex << id;
    if (c.terminal == trace::Ev::kReject) ++rejected;
  }
  EXPECT_EQ(rejected, m.bad_envelopes);
  const trace::ValidationResult v = trace::validate(events);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
}

TEST(SendOutcome, CarriesResultAndPerRecipientCounts) {
  ZmailSystem sys(two_isps(), 21);
  const SendOutcome ok = sys.send_email(user(0, 0), user(1, 1), "s", "b");
  EXPECT_EQ(ok.result, SendResult::kSentPaid);
  EXPECT_EQ(ok.sent, 1u);
  EXPECT_EQ(ok.refused, 0u);
  EXPECT_TRUE(ok.all_sent());
  // Implicit conversion keeps pre-redesign call sites working.
  const SendResult legacy = ok;
  EXPECT_EQ(legacy, SendResult::kSentPaid);
  switch (ok) {
    case SendResult::kSentPaid:
      break;
    default:
      FAIL() << "switch over SendOutcome must use the embedded result";
  }
}

TEST(SendOutcome, MultiRecipientCountsRefusals) {
  ZmailParams p = two_isps();
  p.initial_user_balance = 2;  // enough for two stamps only
  ZmailSystem sys(p, 22);
  net::EmailMessage msg = net::make_email(user(0, 0), user(1, 0), "s", "b");
  msg.to.push_back(user(1, 1));
  msg.to.push_back(user(1, 2));
  const SendOutcome r = sys.send_email_multi(msg);
  EXPECT_EQ(r.sent, 2u);
  EXPECT_EQ(r.refused, 1u);
  EXPECT_FALSE(r.all_sent());
  EXPECT_EQ(r.result, SendResult::kNoBalance);  // first refusal wins
}

TEST(IspId, ImplicitFromIndexAndComparable) {
  const IspId a = 2;  // implicit: indices keep working at call sites
  const IspId b(2);
  const IspId c = 3;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a.index(), 2u);

  ZmailSystem sys(two_isps(), 23);
  sys.send_email(user(0, 0), user(1, 1), "s", "b");
  sys.run_for(sim::kMinute);
  const IspId receiver = 1;
  EXPECT_TRUE(sys.is_compliant(receiver));
  EXPECT_EQ(sys.isp(receiver).user(1).balance, 21);
  EXPECT_GT(sys.smtp_bytes_received(receiver), 0u);
}

TEST(System, AccessingLegacyIspAsCompliantAborts) {
  ZmailParams p = two_isps();
  p.n_isps = 3;
  p.compliant = {true, true, false};
  ZmailSystem sys(p, 16);
  EXPECT_DEATH((void)sys.isp(2), "non-compliant");
}

// A decodable address outside the world (ISP 7 of 2, user 999 of 3) is
// refused, never indexed: with or without a compliant mask.
TEST(System, TradesRefuseOutOfRangeAddresses) {
  for (const bool masked : {false, true}) {
    ZmailParams p = two_isps();
    if (masked) p.compliant = {true, true};
    ZmailSystem sys(p, 1);
    for (const auto& who : {user(7, 0), user(0, 999)}) {
      EXPECT_FALSE(sys.buy_epennies(who, 5)) << who.str();
      EXPECT_FALSE(sys.sell_epennies(who, 5)) << who.str();
    }
    EXPECT_EQ(sys.isp(0).metrics().bank_buys_attempted, 0u);
    EXPECT_TRUE(sys.buy_epennies(user(0, 2), 5));
    EXPECT_TRUE(sys.conservation_holds());
  }
}

}  // namespace
}  // namespace zmail::core
