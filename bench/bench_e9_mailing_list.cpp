// E9 — Mailing-list acknowledgment economics (paper Section 5).
//
// Claim: the automatic acknowledgment "returns the e-penny back to the
// distributor", and "the email distributor can keep its subscriber
// database clean and up-to-date" by pruning addresses that stop
// acknowledging.
//
// Regenerates:
//   E9.a  list-size sweep: distributor net e-penny cost with vs without
//         acknowledgments
//   E9.b  dead-subscriber sweep: pruning converges to the live population
//   E9.c  the distributor's working-capital requirement (max float)
#include "bench_common.hpp"
#include "core/mailing_list.hpp"
#include "util/table.hpp"

using namespace zmail;

namespace {

core::ZmailParams list_world(bool acks) {
  core::ZmailParams p;
  p.n_isps = 4;
  p.users_per_isp = 400;
  p.initial_user_balance = 5'000;
  p.default_daily_limit = 10'000;
  p.auto_acknowledge_lists = acks;
  p.record_inboxes = false;
  return p;
}

void subscribe_n(core::MailingList& list, std::size_t n) {
  for (std::size_t k = 1; k <= n; ++k)
    list.subscribe(net::make_user_address(k % 4, (k / 4) % 400));
}

void e9a_size_sweep() {
  Table t({"subscribers", "net cost with acks", "net cost without acks"});
  bool ack_world_free = true;
  for (std::size_t size : {100u, 400u, 1'200u}) {
    std::int64_t with_acks = 0, without_acks = 0;
    for (bool acks : {true, false}) {
      core::ZmailSystem sys(list_world(acks), 91);
      core::MailingList list(sys, net::make_user_address(0, 0), "dev");
      subscribe_n(list, size);
      list.post("issue", "body");
      sys.run_for(3 * sim::kHour);
      list.reconcile_and_prune();
      (acks ? with_acks : without_acks) = list.net_epenny_cost();
    }
    t.add_row({Table::num(std::uint64_t{size}), Table::num(with_acks),
               Table::num(without_acks)});
    if (with_acks != 0) ack_world_free = false;
  }
  t.print("E9.a  distributor cost per post vs list size");
  bench::check(ack_world_free,
               "with acknowledgments the distributor's net cost is zero");
}

void e9b_pruning() {
  // Dead subscribers modelled as users of non-compliant ISPs (their side
  // never acknowledges).
  Table t({"dead fraction", "initial subscribers", "pruned after 2 posts",
           "posts to a clean database"});
  bool pruning_exact = true;
  for (double dead_frac : {0.0, 0.1, 0.3}) {
    core::ZmailParams p = list_world(true);
    p.compliant = {true, true, true, false};  // ISP 3 is the dead zone
    core::ZmailSystem sys(p, 92);
    core::MailingList list(sys, net::make_user_address(0, 0), "dev",
                           /*prune_after=*/2);
    const std::size_t total = 300;
    const auto dead =
        static_cast<std::size_t>(static_cast<double>(total) * dead_frac);
    for (std::size_t k = 0; k < total - dead; ++k)
      list.subscribe(net::make_user_address(k % 3, k % 400));
    for (std::size_t k = 0; k < dead; ++k)
      list.subscribe(net::make_user_address(3, k % 400));

    std::size_t pruned_total = 0;
    for (int post = 0; post < 2; ++post) {
      list.post("n", "b");
      sys.run_for(3 * sim::kHour);
      pruned_total += list.reconcile_and_prune();
    }
    t.add_row({Table::pct(dead_frac, 0), Table::num(std::uint64_t{total}),
               Table::num(std::uint64_t{pruned_total}), "2"});
    if (pruned_total != dead) pruning_exact = false;
  }
  t.print("E9.b  automatic subscriber-database cleaning");
  bench::check(pruning_exact,
               "exactly the non-acknowledging subscribers are pruned");
}

void e9c_working_capital() {
  // The distributor fronts size e-pennies until acks return: its minimum
  // balance during a post cycle is (start - size + acks_so_far).
  core::ZmailSystem sys(list_world(true), 93);
  core::MailingList list(sys, net::make_user_address(0, 0), "dev");
  subscribe_n(list, 500);
  const EPenny start = sys.isp(0).user(0).balance;
  list.post("big", "issue");
  // Immediately after the post, every remote copy's e-penny is outstanding
  // (local subscribers' acks settle synchronously); the float then returns
  // as acknowledgments arrive over the network.
  EPenny min_balance = sys.isp(0).user(0).balance;
  for (int step = 0; step < 600; ++step) {
    sys.run_for(sim::kMinute);
    min_balance = std::min<EPenny>(min_balance, sys.isp(0).user(0).balance);
  }
  list.reconcile_and_prune();

  Table t({"metric", "value"});
  t.add_row({"subscribers", "500"});
  t.add_row({"distributor balance before", Table::num(start)});
  t.add_row({"minimum balance during the cycle", Table::num(min_balance)});
  t.add_row({"balance after acks returned",
             Table::num(sys.isp(0).user(0).balance)});
  t.print("E9.c  distributor float: e-pennies outstanding until acks return");

  // 375 of the 500 subscribers are remote (their acks take network time);
  // the 125 local ones settle synchronously inside post().
  bench::check(min_balance <= start - 300,
               "the distributor fronts roughly one e-penny per remote "
               "subscriber until the acks return");
  bench::check(sys.isp(0).user(0).balance == start,
               "the float fully returns after acknowledgment");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench harness("e9_mailing_list", argc, argv);
  std::printf("=== E9: mailing-list acknowledgments ===\n");
  e9a_size_sweep();
  e9b_pruning();
  e9c_working_capital();
  return harness.finish();
}
