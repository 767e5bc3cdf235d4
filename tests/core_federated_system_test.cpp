#include "core/federated_system.hpp"

#include <gtest/gtest.h>

namespace zmail::core {
namespace {

net::EmailAddress user(std::size_t i, std::size_t u) {
  return net::make_user_address(i, u);
}

ZmailParams fed_params() {
  ZmailParams p;
  p.n_isps = 6;
  p.users_per_isp = 3;
  p.initial_user_balance = 30;
  p.minavail = 100;
  p.maxavail = 1'000;
  p.initial_avail = 500;
  return p;
}

TEST(FederatedSystem, MailFlowsAcrossBankBoundaries) {
  FederatedZmailSystem sys(fed_params(), 3, 1);
  // ISP 0 (bank 0) -> ISP 1 (bank 1), ISP 4 (bank 1) -> ISP 5 (bank 2).
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "x", "b"),
            SendResult::kSentPaid);
  EXPECT_EQ(sys.send_email(user(4, 0), user(5, 0), "y", "b"),
            SendResult::kSentPaid);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(1).user(0).balance, 31);
  EXPECT_EQ(sys.isp(5).user(0).balance, 31);
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(FederatedSystem, TradesGoToTheHomeBankOverTheNetwork) {
  ZmailParams p = fed_params();
  p.initial_avail = 120;  // near minavail: the first purchase triggers a buy
  FederatedZmailSystem sys(p, 3, 2);
  sys.enable_bank_trading(sim::kMinute);
  sys.buy_epennies(user(4, 0), 30);  // ISP 4's pool drops to 90 < 100
  sys.run_for(10 * sim::kMinute);
  EXPECT_EQ(sys.isp(4).avail(), 1'000);  // refilled to maxavail
  // The home bank (4 % 3 == 1) paid out of ISP 4's account.
  EXPECT_LT(sys.federation().isp_account(4), p.initial_isp_bank_account);
  EXPECT_GT(sys.federation().metrics().epennies_minted, 0);
  EXPECT_TRUE(sys.conservation_holds());
  EXPECT_GT(sys.bank_host_bytes(), 0u);
}

TEST(FederatedSystem, SnapshotRoundSettlesAcrossBanks) {
  FederatedZmailSystem sys(fed_params(), 2, 3);
  for (int k = 0; k < 4; ++k)
    sys.send_email(user(0, 0), user(1, 0), "s", "b");  // bank0 -> bank1
  sys.run_for(sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);

  EXPECT_FALSE(sys.federation().round_open());
  EXPECT_TRUE(sys.federation().last_violations().empty());
  EXPECT_EQ(sys.federation().metrics().rounds_completed, 1u);
  EXPECT_EQ(sys.federation().isp_account(0),
            fed_params().initial_isp_bank_account - Money::from_epennies(4));
  EXPECT_EQ(sys.federation().isp_account(1),
            fed_params().initial_isp_bank_account + Money::from_epennies(4));
  EXPECT_EQ(sys.federation().metrics().settlements_cross_bank, 1u);
  EXPECT_EQ(sys.federation().metrics().clearing_transfers, 1u);
  // Clearing nets to zero across the federation.
  Money net = Money::zero();
  for (std::size_t b = 0; b < 2; ++b) net += sys.federation().clearing_position(b);
  EXPECT_TRUE(net.is_zero());
}

TEST(FederatedSystem, CheatDetectionStillWorksEndToEnd) {
  FederatedZmailSystem sys(fed_params(), 3, 4);
  sys.isp(2).set_misbehavior(Isp::Misbehavior::kFreeRide);
  for (int k = 0; k < 3; ++k)
    sys.send_email(user(2, 0), user(3, 0), "s", "b");
  sys.run_for(sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  ASSERT_EQ(sys.federation().last_violations().size(), 1u);
  EXPECT_EQ(sys.federation().last_violations()[0].isp_i, 2u);
  EXPECT_EQ(sys.federation().last_violations()[0].isp_j, 3u);
}

TEST(FederatedSystem, QuiesceBuffersAcrossTheRound) {
  FederatedZmailSystem sys(fed_params(), 2, 5);
  sys.start_snapshot();
  sys.run_for(sim::kMinute);
  ASSERT_TRUE(sys.isp(0).in_quiesce());
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "held", "b"),
            SendResult::kBuffered);
  sys.run_for(15 * sim::kMinute);
  EXPECT_EQ(sys.isp(1).user(0).balance,
            fed_params().initial_user_balance + 1);
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(FederatedSystem, SingleBankMatchesCentralBehaviour) {
  FederatedZmailSystem sys(fed_params(), 1, 6);
  for (int k = 0; k < 5; ++k)
    sys.send_email(user(0, 0), user(3, 1), "s", "b");
  sys.run_for(sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  EXPECT_TRUE(sys.federation().last_violations().empty());
  EXPECT_EQ(sys.federation().metrics().interbank_messages, 0u);
  EXPECT_EQ(sys.federation().metrics().settlements_intra_bank, 1u);
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(FederatedSystem, ConservationRequiresRunningTotalsToMatchTheScan) {
  FederatedZmailSystem sys(fed_params(), 3, 4);
  sys.send_email(user(0, 0), user(4, 1), "x", "b");
  sys.buy_epennies(user(2, 2), 5);
  sys.run_for(sim::kMinute);
  ASSERT_TRUE(sys.conservation_holds());
  const Money before = sys.total_real_money();

  // A balance write that bypasses the tracked column: the running totals
  // (and so total_epennies()) still balance, only the full scan sees it.
  const Population& users = sys.isp(4).users();
  const_cast<EPenny*>(users.balances().data())[1] += 1;
  EXPECT_FALSE(sys.conservation_holds());
  const_cast<EPenny*>(users.balances().data())[1] -= 1;
  ASSERT_TRUE(sys.conservation_holds());

  // total_real_money() sums the running account totals, not the column.
  const_cast<Money*>(users.accounts().data())[0] += Money::from_cents(3);
  EXPECT_EQ(sys.total_real_money(), before);
  EXPECT_FALSE(sys.conservation_holds());
}

// A decodable address outside the world (ISP 7, user 999) is a bad address,
// not an out-of-range index.
TEST(FederatedSystem, TradesRefuseOutOfRangeAddresses) {
  FederatedZmailSystem sys(fed_params(), 2, 7);
  for (const auto& who : {net::make_user_address(7, 0),
                          net::make_user_address(0, 999)}) {
    EXPECT_EQ(sys.buy_epennies(who, 5).result, TradeResult::kBadAddress)
        << who.str();
    EXPECT_EQ(sys.sell_epennies(who, 5).result, TradeResult::kBadAddress)
        << who.str();
  }
  EXPECT_TRUE(sys.buy_epennies(net::make_user_address(0, 0), 5).ok());
  EXPECT_TRUE(sys.conservation_holds());
}

}  // namespace
}  // namespace zmail::core
