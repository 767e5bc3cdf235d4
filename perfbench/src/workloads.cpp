#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "net/address.hpp"
#include "util/money.hpp"
#include "util/rng.hpp"
#include "workload/corpus.hpp"

namespace perfbench {

using namespace zmail;

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> v;

  {
    // ROADMAP's north-star world: 1M users; the traffic model gives
    // 1M x 8 / 86,400 = 92.6 sends/s.
    Workload w;
    w.name = "mail_1m";
    w.params.n_isps = 16;
    w.params.users_per_isp = 62'500;
    w.params.record_inboxes = false;
    w.seconds = 45 * 60;  // one snapshot round at 30 min, quiet by 40 min
    v.push_back(w);
  }
  {
    // Bank-trade churn: min == max avail makes nearly every trading poll
    // fire a sealed ISP<->bank trade; frequent snapshot rounds seal
    // credit reports.  The traffic model gives 1.5 sends/s on 16,000
    // users; the stress rate of one trade per user-minute (267/s) makes
    // trades over 99% of the ops, so SMTP is bypassed.
    Workload w;
    w.name = "bank_market";
    w.params.n_isps = 64;
    w.params.users_per_isp = 250;
    w.params.record_inboxes = false;
    w.params.initial_avail = 2'000;
    w.params.minavail = 2'000;
    w.params.maxavail = 2'000;
    w.trading_poll = sim::kSecond;
    w.snapshot_period = 12 * sim::kMinute;  // > the 10-minute quiesce
    w.seconds = 20 * 60;  // one round at 12 min, quiet by 22 min
    w.trades_per_user_min = 1.0;
    v.push_back(w);
  }
  {
    // The mail mix with every durability and fault-tolerance path on, on
    // a quarter of mail_1m's population (23 sends/s).
    Workload w;
    w.name = "durable_lossy";
    w.params.n_isps = 16;
    w.params.users_per_isp = 15'625;
    w.params.record_inboxes = false;
    w.params.reliable_email_transport = true;
    w.params.retry.enabled = true;
    w.params.store.enabled = true;
    w.params.store.fsync_data = false;  // measure the program, not the disk
    w.snapshot_period = 12 * sim::kMinute;
    w.seconds = 23 * 60;  // one round at 12 min, quiet by 22 min
    w.fault_rate = 0.01;
    w.crash_at_s = 5 * 60;
    w.crash_isp = 3;
    w.crash_down_s = 30;
    v.push_back(w);
  }
  {
    // The mail_1m world on a quarter of its population (23 sends/s): the
    // engine's per-window barrier audit scans every user, and at 1M users
    // that memory-bound scan swings too much with the host's neighbours to
    // give a steady figure.
    Workload w = v.front();
    w.name = "mail_sharded4";
    w.params.users_per_isp = 15'625;
    w.shards = 4;
    v.push_back(w);
  }
  return v;
}

// A send or trade before the balance shadow admits it.
struct Candidate {
  std::uint64_t at;  // sort key: a uniform instant in the window
  Op op;
};

// Recipient of one send: contact `k` of the sender, drawn the way
// workload::TrafficGenerator::build_contacts draws it (local with
// probability local_recipient_prob, else a uniform ISP; a uniform user;
// never the sender).  Keyed by (sender, k) so the 12-contact graph of a
// large world needs no memory.
void contact(const Workload& w, std::uint64_t seed, std::size_t isp,
             std::size_t usr, std::uint64_t k, Op& op) {
  const std::size_t n = w.params.n_isps, u = w.params.users_per_isp;
  Rng rng = pair_keyed_rng(seed, isp * u + usr, k, 0);
  const std::size_t to =
      rng.bernoulli(w.traffic.local_recipient_prob) ? isp : rng.next_below(n);
  std::size_t user = rng.next_below(u);
  if (to == isp && user == usr) user = (user + 1) % u;
  op.to_isp = static_cast<std::uint16_t>(to);
  op.to_user = static_cast<std::uint32_t>(user);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> v = make_workloads();
  return v;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Inputs generate(const Workload& w, std::uint64_t seed) {
  Inputs in;
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  in.world_seed = rng.next_u64();
  in.fault_seed = rng.next_u64();
  const std::uint64_t contact_seed = rng.next_u64();

  // Text pool: legitimate messages from the repo's corpus generator.
  constexpr std::size_t kTexts = 512;
  workload::CorpusGenerator corpus(workload::CorpusParams{}, rng.split());
  const net::EmailAddress a = net::make_user_address(0, 0);
  for (std::size_t i = 0; i < kTexts; ++i) {
    net::EmailMessage m =
        corpus.make_message(a, a, net::MailClass::kLegitimate);
    in.subjects.push_back(m.subject());
    in.bodies.push_back(std::move(m.body));
  }

  const std::size_t n = w.params.n_isps, u = w.params.users_per_isp;
  const std::uint64_t window = std::uint64_t{w.seconds} * sim::kSecond;
  auto down = [&](std::size_t isp, std::uint64_t at) {
    const std::uint64_t s = at / sim::kSecond;
    return w.crash_at_s >= 0 && isp == w.crash_isp &&
           s >= static_cast<std::uint64_t>(w.crash_at_s) &&
           s < static_cast<std::uint64_t>(w.crash_at_s) + w.crash_down_s + 5;
  };

  // Mail, as TrafficGenerator::schedule_day draws it: each user's daily
  // rate is lognormal with mean mean_sends_per_user_day, and the user's
  // sends in the window are Poisson at that rate, at uniform instants.
  // Sends from an ISP while it is down are not submitted.
  std::vector<Candidate> cand;
  const double sigma = w.traffic.lognormal_sigma;
  const double mu = std::log(w.traffic.mean_sends_per_user_day) -
                    sigma * sigma / 2.0;
  const double day_share =
      static_cast<double>(window) / static_cast<double>(sim::kDay);
  for (std::size_t isp = 0; isp < n; ++isp) {
    for (std::size_t usr = 0; usr < u; ++usr) {
      const std::uint64_t k = rng.poisson(rng.lognormal(mu, sigma) * day_share);
      for (std::uint64_t j = 0; j < k; ++j) {
        Candidate c;
        c.at = rng.next_below(window);
        c.op.kind = Op::kSend;
        c.op.from_isp = static_cast<std::uint16_t>(isp);
        c.op.from_user = static_cast<std::uint32_t>(usr);
        contact(w, contact_seed, isp, usr,
                rng.next_below(w.traffic.contacts_per_user), c.op);
        c.op.text = static_cast<std::uint32_t>(rng.next_below(kTexts));
        if (!down(isp, c.at)) cand.push_back(c);
      }
    }
  }
  // User trades: Poisson arrivals from uniform users; the kind and amount
  // are settled by the shadow below.
  const std::uint64_t trades = rng.poisson(
      w.trades_per_user_min * static_cast<double>(n * u) * w.seconds / 60.0);
  for (std::uint64_t j = 0; j < trades; ++j) {
    Candidate c;
    c.at = rng.next_below(window);
    c.op.kind = Op::kBuy;
    c.op.from_isp = static_cast<std::uint16_t>(rng.next_below(n));
    c.op.from_user = static_cast<std::uint32_t>(rng.next_below(u));
    c.op.amount = static_cast<std::int32_t>(rng.uniform_int(1, 10));
    c.op.text = rng.bernoulli(0.5);  // 1: try a sell first
    if (!down(c.op.from_isp, c.at)) cand.push_back(c);
  }
  std::sort(cand.begin(), cand.end(),
            [](const Candidate& x, const Candidate& y) { return x.at < y.at; });

  // Shadow of each user's e-penny balance, real-money account (in
  // e-pennies) and daily send count, in submission order.  It never
  // credits mail a user receives and assumes every buy succeeds; so
  // every scheduled send and sell passes the paper's guards unless an
  // earlier buy of that user was refused, which only the ISP's avail
  // guard can do.  The driver checks exactly that.
  const EPenny account0 =
      w.params.initial_user_account.micros() / Money::kMicrosPerEPenny;
  std::vector<EPenny> balance(n * u, w.params.initial_user_balance);
  std::vector<EPenny> account(n * u, account0);
  std::vector<std::int64_t> sent(n * u, 0);

  in.slice_begin.assign(1, 0);
  for (const Candidate& c : cand) {
    while (c.at >= in.slice_begin.size() * std::uint64_t{sim::kSecond})
      in.slice_begin.push_back(static_cast<std::uint32_t>(in.ops.size()));
    Op op = c.op;
    const std::size_t me = op.from_isp * u + op.from_user;
    if (op.kind == Op::kSend) {
      if (balance[me] < 1 || sent[me] >= w.params.default_daily_limit)
        continue;
      balance[me] -= 1;
      sent[me] += 1;
    } else {
      const EPenny x = op.amount;
      const bool sell_first = op.text == 1;
      op.text = 0;
      if (sell_first && balance[me] >= x) {
        op.kind = Op::kSell;
      } else if (account[me] >= x) {
        op.kind = Op::kBuy;
      } else if (balance[me] >= x) {
        op.kind = Op::kSell;
      } else {
        continue;
      }
      const EPenny sign = op.kind == Op::kBuy ? 1 : -1;
      balance[me] += sign * x;
      account[me] -= sign * x;
    }
    in.ops.push_back(op);
  }
  while (in.slice_begin.size() <= w.seconds)
    in.slice_begin.push_back(static_cast<std::uint32_t>(in.ops.size()));
  return in;
}

}  // namespace perfbench
