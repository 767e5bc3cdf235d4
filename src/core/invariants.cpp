#include "core/invariants.hpp"

#include "util/assert.hpp"

namespace zmail::core {

namespace {

constexpr std::size_t kMaxMessages = 16;

void fail(InvariantReport& report, std::string msg) {
  ++report.violations;
  if (report.messages.size() < kMaxMessages)
    report.messages.push_back(std::move(msg));
}

// Invariant 3 for both auditors: per-user limit safety and non-negative
// pools at every compliant ISP (the federated facade is all-compliant).
template <class System>
void check_limits_and_pools(const System& sys, InvariantReport& report) {
  const ZmailParams& params = sys.params();
  for (std::size_t i = 0; i < params.n_isps; ++i) {
    if (!params.is_compliant(i)) continue;
    const Isp& isp = sys.isp(i);
    if (isp.avail() < 0)
      fail(report, "negative avail pool at isp " + std::to_string(i));
    if (isp.buffered_paid() < 0)
      fail(report, "negative buffered-paid escrow at isp " + std::to_string(i));
    isp.users().for_each_active([&](UserId u, ConstUserRef acc) {
      if (acc.balance < 0)
        fail(report, "negative balance: user " + std::to_string(u.slot()) +
                         " at isp " + std::to_string(i));
      if (acc.sent > acc.limit)
        fail(report, "daily limit exceeded: user " + std::to_string(u.slot()) +
                         " at isp " + std::to_string(i));
    });
  }
}

}  // namespace

InvariantAuditor::InvariantAuditor(ZmailSystem& sys)
    : sys_(&sys),
      initial_real_money_(
          sys.total_real_money() +
          Money::from_epennies(sys.bank().epennies_outstanding())) {}

void InvariantAuditor::check_now() {
  const ZmailSystem& sys = *sys_;

  // 1. e-penny conservation: holdings == endowment + net mint.
  if (!sys.conservation_holds())
    fail(report_,
         "e-penny conservation broken: holdings != initial + minted - burned");
  if (sys.epennies_in_flight() < 0)
    fail(report_, "negative in-flight escrow");

  // 2. real money is only ever moved, never created.  A mint swaps dollars
  //    out of the measured accounts into the bank's vault (where they back
  //    the outstanding e-pennies) and a burn swaps them back, so the
  //    conserved quantity is accounts + vault, not accounts alone.
  if (!(sys.total_real_money() +
            Money::from_epennies(sys.bank().epennies_outstanding()) ==
        initial_real_money_))
    fail(report_,
         "real-money total (accounts + e-penny backing) drifted from its"
         " initial value");

  // 3. per-user limit safety and non-negative pools.
  check_limits_and_pools(sys, report_);

  // 4. nonce non-reuse: duplicates were absorbed, not re-applied.  A
  //    re-applied nonce mints or burns twice, which invariant (1) catches;
  //    here we tally how much duplication the shields ate.
  const BankMetrics& bm = sys.bank().metrics();
  report_.replays_absorbed = bm.duplicate_buys + bm.duplicate_sells +
                             bm.stale_trades + bm.stale_reports +
                             sys.total_isp_metrics().duplicate_emails_dropped;
  if (sys.bank().epennies_outstanding() < 0)
    fail(report_, "bank burned more e-pennies than it minted");

  // 5. credit consistency (unless misbehaviour was injected on purpose).
  //    Persistent drift only: a snapshot recovered after a lost request
  //    legitimately skews one pair by +/-d across two adjacent rounds, and
  //    that skew nets out; a dishonest pair keeps drifting and is counted.
  if (expect_consistent_ && sys.bank().persistent_drift_pairs() != 0)
    fail(report_, "bank saw " +
                      std::to_string(sys.bank().persistent_drift_pairs()) +
                      " ISP pair(s) in persistent credit drift without"
                      " injected misbehaviour");

  ++report_.checks;
}

void InvariantAuditor::run_continuously(sim::Duration period) {
  sys_->simulator().schedule_every(period, [this] {
    check_now();
    return true;
  });
}

void InvariantAuditor::assert_ok() const {
  ZMAIL_ASSERT_MSG(report_.ok(), report_.messages.empty()
                                     ? "invariant violated"
                                     : report_.messages.front().c_str());
}

// --- FederationAuditor ------------------------------------------------------

FederationAuditor::FederationAuditor(FederatedZmailSystem& sys)
    : sys_(&sys),
      initial_real_money_(
          sys.total_real_money() +
          Money::from_epennies(sys.federation().metrics().epennies_minted -
                               sys.federation().metrics().epennies_burned)) {}

void FederationAuditor::check_now() {
  const FederatedZmailSystem& sys = *sys_;
  const BankFederation& fed = sys.federation();
  const std::size_t k = fed.bank_count();
  const FederationMetrics total = fed.metrics();

  // 1. e-penny conservation against the federation-wide net mint.
  if (!sys.conservation_holds())
    fail(report_,
         "e-penny conservation broken: holdings != initial + minted - burned");
  if (total.epennies_minted < total.epennies_burned)
    fail(report_, "federation burned more e-pennies than it minted");

  // 2. real money: accounts + the vault backing the summed outstanding
  //    supply of all member banks is constant.
  if (!(sys.total_real_money() +
            Money::from_epennies(total.epennies_minted -
                                 total.epennies_burned) ==
        initial_real_money_))
    fail(report_,
         "real-money total (accounts + e-penny backing) drifted from its"
         " initial value");

  // 3. per-user limit safety and non-negative pools.
  check_limits_and_pools(sys, report_);

  // 4. duplicate / stale deliveries were absorbed, never re-applied (a
  //    re-application would surface in 1, 2, or 5).
  report_.replays_absorbed = total.duplicate_trades + total.stale_trades +
                             total.duplicate_interbank + total.stale_interbank;

  // 5. clearing zero-sum at globally idle cuts.  Mid-round a pair is
  //    legitimately lopsided (one side combined its partials, the other
  //    still awaits a clearing wire), so these only run when every round
  //    is closed and no inter-bank wire is unacked.
  if (fed.idle()) {
    Money net_sum = Money::zero();
    for (std::size_t b = 0; b < k; ++b) net_sum += fed.clearing_position(b);
    if (!(net_sum == Money::zero()))
      fail(report_,
           "clearing positions do not sum to zero across the federation");
    for (std::size_t a = 0; a < k; ++a)
      for (std::size_t b = a + 1; b < k; ++b)
        if (!(fed.clearing_pair(a, b) + fed.clearing_pair(b, a) ==
              Money::zero()))
          fail(report_, "clearing pair (" + std::to_string(a) + "," +
                            std::to_string(b) + ") is not antisymmetric");
    // 6. no round double-applies: every bank agrees on how many rounds
    //    settled, even across crash + WAL replay.
    for (std::size_t b = 1; b < k; ++b)
      if (fed.seq(b) != fed.seq(0))
        fail(report_, "bank " + std::to_string(b) + " round seq " +
                          std::to_string(fed.seq(b)) + " != bank 0 seq " +
                          std::to_string(fed.seq(0)));
  }

  ++report_.checks;
}

void FederationAuditor::run_continuously(sim::Duration period) {
  sys_->simulator().schedule_every(period, [this] {
    check_now();
    return true;
  });
}

void FederationAuditor::assert_ok() const {
  ZMAIL_ASSERT_MSG(report_.ok(), report_.messages.empty()
                                     ? "invariant violated"
                                     : report_.messages.front().c_str());
}

}  // namespace zmail::core
