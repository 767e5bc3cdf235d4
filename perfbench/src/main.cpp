// perfbench — the repo benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// Closed loop: one thread submits a pre-generated, seeded schedule
// of sends and trades one simulated second at a time through the public
// facade (core::ZmailSystem, or core::ShardedSystem for sharded
// workloads), then calls run_for(1 s).  The host runs the world as fast
// as it can.
//
// A run is a sequence of episodes.  Each builds a fresh world, plays the
// whole schedule, drains to a quiet point and checks the correctness gates
// there.  An untimed warm-up episode comes first; then episodes, each
// after a group of set-up-only repeats, continue until --seconds of host
// time are spent.  Every episode of one seed must end in the same
// determinism digest, and the timing figures compare each simulated
// second across episodes (see Phase).
//
// --trace 0 reports the end-to-end metrics.  --trace 1 first repeats the
// untraced measurement for half the budget (the tracing-overhead base),
// then runs one traced episode: perfbench records spans around its own
// calls into the facade, turns on the library's profile scopes, and
// afterwards replays public net/crypto calls on samples of the workload's
// own messages.  The last stdout line is the JSON result.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/invariants.hpp"
#include "core/messages.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "crypto/rsa.hpp"
#include "ledger.hpp"
#include "net/address.hpp"
#include "net/email.hpp"
#include "net/faults.hpp"
#include "net/smtp.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

using namespace zmail;
using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Spans -------------------------------------------------------------------

enum SpanName : std::uint32_t {
  kSlice,
  kSend,
  kTrade,
  kRunFor,
  kNames
};
constexpr const char* kSpanNames[kNames] = {"slice", "core.send",
                                            "core.trade", "sim.run_for"};

// In-memory span store; written out once at the end of a traced run.
class Recorder {
 public:
  bool on = false;

  std::uint32_t open(SpanName name, std::uint32_t parent, std::uint64_t op) {
    if (!on) return Span::kNoParent;
    spans_.push_back(Span{name, parent, op, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t i) {
    if (i != Span::kNoParent) spans_[i].end_ns = now_ns();
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  // Durations (ns) of every span called `name`.
  std::vector<double> durations(SpanName name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    return out;
  }

  bool write_csv(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    const std::vector<std::int64_t> self = self_times(spans_);
    f << "index,name,op,parent,start_ns,end_ns,self_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << i << ',' << kSpanNames[s.name] << ',' << s.op << ','
        << (s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent))
        << ',' << s.start_ns << ',' << s.end_ns << ',' << self[i] << '\n';
    }
    return static_cast<bool>(f);
  }

 private:
  std::vector<Span> spans_;
};

// --- Facade differences ------------------------------------------------------

using core::ShardedSystem;
using core::ZmailSystem;

std::uint64_t events(const ZmailSystem& s) {
  return s.simulator().events_executed();
}
std::uint64_t events(const ShardedSystem& s) {
  const sim::ShardedStats* st = s.engine_stats();
  return st ? st->events_executed : s.shard(0).simulator().events_executed();
}
std::uint64_t rebases(const ZmailSystem& s) {
  return s.simulator().calendar_rebases();
}
std::uint64_t rebases(const ShardedSystem& s) { return s.calendar_rebases(); }
std::vector<double> latency(const ZmailSystem& s) {
  return s.delivery_latency().values();
}
std::vector<double> latency(const ShardedSystem& s) {
  return s.merged_delivery_latency().values();
}
std::uint64_t datagrams(const ZmailSystem& s) {
  return s.network().datagrams_sent();
}
std::uint64_t datagrams(const ShardedSystem& s) { return s.datagrams_sent(); }
std::uint64_t wire_bytes(const ZmailSystem& s) {
  return s.network().bytes_sent();
}
std::uint64_t wire_bytes(const ShardedSystem& s) { return s.bytes_sent(); }

// --- Determinism digest (FNV-1a over public end state) ---------------------

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void add_isp_metrics(Digest& d, const core::IspMetrics& m) {
  for (std::uint64_t v :
       {m.emails_sent_local, m.emails_sent_compliant,
        m.emails_sent_noncompliant, m.emails_received_compliant,
        m.emails_received_noncompliant, m.emails_delivered,
        m.refused_no_balance, m.refused_daily_limit,
        m.emails_buffered_during_quiesce, m.snapshots_answered,
        m.bank_buys_attempted, m.bank_buys_accepted, m.bank_sells,
        m.bad_nonce_replies, m.bad_envelopes, m.stale_requests,
        m.bank_retries, m.report_retries, m.emails_retransmitted,
        m.emails_refunded, m.emails_shed, m.duplicate_emails_dropped})
    d.add(v);
}

template <class Sys>
std::string digest_of(const Sys& sys) {
  Digest d;
  const std::size_t n = sys.params().n_isps;
  for (std::size_t i = 0; i < n; ++i) {
    const core::Isp& isp = sys.isp(i);
    add_isp_metrics(d, isp.metrics());
    d.add(static_cast<std::uint64_t>(isp.avail()));
    d.add(static_cast<std::uint64_t>(isp.till().micros()));
    d.add(isp.seq());
    for (EPenny c : isp.credit()) d.add(static_cast<std::uint64_t>(c));
  }
  const core::Bank& bank = sys.bank();
  const core::BankMetrics& b = bank.metrics();
  for (std::uint64_t v :
       {b.buys_received, b.buys_accepted, b.buys_rejected, b.sells_received,
        b.snapshot_rounds, b.credit_reports_received,
        b.inconsistent_pairs_found, b.duplicate_buys, b.duplicate_sells,
        b.settlement_transfers, b.settlement_bytes})
    d.add(v);
  d.add(static_cast<std::uint64_t>(b.epennies_minted));
  d.add(static_cast<std::uint64_t>(b.epennies_burned));
  for (std::size_t i = 0; i < n; ++i)
    d.add(static_cast<std::uint64_t>(bank.account(i).micros()));
  for (double x : latency(sys)) d.add(x);
  return d.hex();
}

// --- One episode -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Episode {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::vector<double> slice_ms;  // one per scheduled second
  std::vector<double> drain_ms;  // one per second drained to the quiet point
  std::uint64_t ops = 0, sends = 0, trades = 0, trades_refused = 0,
                failed = 0;
  std::vector<std::string> gate_failures;
  std::string digest;
  std::vector<Metric> counters;  // per-layer counters

  double counter(const std::string& name) const {
    for (const Metric& m : counters)
      if (m.name == name) return m.value;
    return 0.0;
  }
  // Quiet-point spans (ms), the traced episode only where noted.
  double audit_ms = 0.0;       // conservation_holds + InvariantAuditor
  double audit_scan_ms = 0.0;  // the scans the barrier audit repeats
  double checkpoint_ms = 0.0;  // traced, store worlds only
  double recover_ms = 0.0;     // traced, store worlds only
  double runfor_ns = 0.0;      // Σ run_for host time (slices + drain)
  std::uint64_t remote_delivered = 0;
};

struct Context {
  const Workload* w = nullptr;
  const Inputs* in = nullptr;
  std::string workdir;
  Recorder* rec = nullptr;  // spans and quiet-point store spans when on
  std::uint64_t next_op = 1;
};

template <class Sys>
bool quiet(Sys& sys) {
  if (sys.pending_transfers() != 0 || sys.epennies_in_flight() != 0 ||
      sys.bank().round_open())
    return false;
  for (std::size_t i = 0; i < sys.params().n_isps; ++i) {
    const core::Isp& isp = sys.isp(i);
    if (isp.in_quiesce() || isp.buffered_count() != 0 ||
        isp.bank_exchange_pending() || !isp.outbox_empty())
      return false;
  }
  return true;
}

// A constructed, armed world.  The injector is declared first: the world
// holds a pointer to it, so it must be destroyed last.
template <class Sys>
struct World {
  std::unique_ptr<net::FaultInjector> injector;
  std::unique_ptr<Sys> sys;
  double setup_s = 0.0;  // construction + arming, host time
};

template <class Sys>
World<Sys> build_world(const Context& cx) {
  const Workload& w = *cx.w;
  const Inputs& in = *cx.in;
  core::ZmailParams params = w.params;
  if (params.store.enabled) {
    params.store.dir = cx.workdir + "/store";
    std::filesystem::remove_all(params.store.dir);
  }
  net::FaultPlan plan;
  plan.rates.drop = w.fault_rate;
  plan.rates.duplicate = w.fault_rate;
  const bool lossy = w.fault_rate > 0.0;

  World<Sys> world;
  const std::int64_t t0 = now_ns();
  if constexpr (std::is_same_v<Sys, ShardedSystem>) {
    // One worker thread drives all shards.  With a thread per shard every
    // window's barrier waits for the slowest vCPU, and on a shared host
    // that made run-to-run spread exceed any usable bound (see CHANGES.md).
    core::ShardOptions o;
    o.shards = w.shards;
    o.threads = 1;
    world.sys = std::make_unique<Sys>(params, in.world_seed, o);
    if (lossy) world.sys->attach_faults(plan, in.fault_seed);
  } else {
    world.sys = std::make_unique<Sys>(params, in.world_seed);
    if (lossy) {
      world.injector =
          std::make_unique<net::FaultInjector>(plan, in.fault_seed);
      world.sys->attach_faults(world.injector.get());
    }
  }
  world.sys->enable_bank_trading(w.trading_poll);
  world.sys->enable_periodic_snapshots(w.snapshot_period);
  world.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return world;
}

template <class Sys>
Episode run_episode(Context& cx) {
  const Workload& w = *cx.w;
  const Inputs& in = *cx.in;
  Recorder& rec = *cx.rec;
  Episode ep;
  auto gate = [&ep](bool ok, const std::string& what) {
    if (!ok) ep.gate_failures.push_back(what);
  };

  World<Sys> world = build_world<Sys>(cx);
  Sys* sys = world.sys.get();
  ep.setup_s = world.setup_s;

  // The real-money baseline is captured outside the timers.
  std::optional<core::InvariantAuditor> auditor;
  if constexpr (std::is_same_v<Sys, ZmailSystem>) auditor.emplace(*sys);

  // Refusals.  The generator's shadow keeps every send and sell within
  // the paper's guards, except for a user whose earlier buy the ISP's
  // avail guard refused (the shadow credited it).  Any other refusal is
  // unpredicted and counts as failed.
  std::uint64_t refused = 0, unpredicted = 0;
  std::vector<bool> short_user(w.params.n_isps * w.params.users_per_isp);
  EPenny bought = 0, sold = 0;
  const std::int64_t t_timed = now_ns();
  ep.slice_ms.reserve(in.slices());

  auto advance = [&](std::uint32_t slice) {
    const std::uint32_t r = rec.open(kRunFor, slice, 0);
    const std::int64_t a = now_ns();
    sys->run_for(sim::kSecond);
    ep.runfor_ns += static_cast<double>(now_ns() - a);
    rec.close(r);
  };

  for (std::size_t s = 0; s < in.slices(); ++s) {
    const std::int64_t t0 = now_ns();
    const std::uint32_t slice = rec.open(kSlice, Span::kNoParent, 0);
    if (w.crash_at_s == static_cast<std::int64_t>(s))
      sys->crash_host(w.crash_isp, w.crash_down_s * sim::kSecond);
    for (std::uint32_t k = in.slice_begin[s]; k < in.slice_begin[s + 1]; ++k) {
      const Op& op = in.ops[k];
      const net::EmailAddress from =
          net::make_user_address(op.from_isp, op.from_user);
      const std::uint64_t id = cx.next_op++;
      const std::size_t me = op.from_isp * w.params.users_per_isp + op.from_user;
      if (op.kind == Op::kSend) {
        const net::EmailAddress to =
            net::make_user_address(op.to_isp, op.to_user);
        const std::uint32_t sp = rec.open(kSend, slice, id);
        const core::SendResult r = sys->send_email(
            from, to, in.subjects[op.text], in.bodies[op.text]);
        rec.close(sp);
        ++ep.sends;
        if (core::SendOutcome::counts_as_refused(r)) {
          ++refused;
          unpredicted += !short_user[me];
        }
      } else {
        const std::uint32_t sp = rec.open(kTrade, slice, id);
        const bool ok = op.kind == Op::kBuy
                            ? sys->buy_epennies(from, op.amount)
                            : sys->sell_epennies(from, op.amount);
        rec.close(sp);
        ++ep.trades;
        if (ok) {
          (op.kind == Op::kBuy ? bought : sold) += op.amount;
        } else {
          ++ep.trades_refused;
          if (op.kind == Op::kBuy && sys->isp(op.from_isp).avail() < op.amount)
            short_user[me] = true;
          else
            unpredicted += op.kind == Op::kBuy || !short_user[me];
        }
      }
    }
    advance(slice);
    rec.close(slice);
    ep.slice_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  // Drain to the final quiet point (bounded; a world that never settles
  // fails the gate below).
  bool settled = quiet(*sys);
  for (int k = 0; !settled && k < 3600; ++k) {
    const std::int64_t t0 = now_ns();
    const std::uint32_t slice = rec.open(kSlice, Span::kNoParent, 0);
    advance(slice);
    rec.close(slice);
    ep.drain_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    settled = quiet(*sys);
  }
  const std::int64_t t_end = now_ns();
  ep.timed_s = static_cast<double>(t_end - t_timed) / 1e9;
  ep.ops = ep.sends + ep.trades;

  // --- Correctness gates at the quiet point -----------------------------
  gate(settled, "world did not reach a quiet point");
  std::int64_t t0 = now_ns();
  const bool conserved = sys->conservation_holds();
  if (auditor) auditor->check_now();
  ep.audit_ms = static_cast<double>(now_ns() - t0) / 1e6;
  gate(conserved, "conservation_holds() is false");
  if (auditor) {
    const core::InvariantReport& rep = auditor->report();
    gate(rep.ok(), "InvariantAuditor: " +
                       (rep.messages.empty() ? std::string("violation")
                                             : rep.messages.front()));
  }
  if (w.crash_at_s >= 0)
    gate(sys->state_recoveries() == 1,
         "the scheduled crash was not recovered exactly once");
  if constexpr (std::is_same_v<Sys, ShardedSystem>) {
    gate(sys->horizon_clamps() == 0, "horizon_clamps != 0");
    gate(sys->barrier_audit().ok(), "barrier audit failed");
  }

  // The O(population) scans the sharded barrier audit repeats per window.
  t0 = now_ns();
  const EPenny held = sys->total_epennies();
  const Money money = sys->total_real_money();
  ep.audit_scan_ms = static_cast<double>(now_ns() - t0) / 1e6;
  gate(held >= 0 && !money.is_negative(), "negative holdings");

  // Every op accounted for: sends delivered, refused by the paper's
  // guards, shed or refunded; trades settled or refused by the avail
  // guard, with the settled amounts visible in the users' lifetime
  // columns.
  const core::IspMetrics m = sys->total_isp_metrics();
  const std::uint64_t accounted =
      m.emails_delivered + refused + m.emails_shed + m.emails_refunded;
  const std::uint64_t unaccounted = accounted > ep.sends
                                        ? accounted - ep.sends
                                        : ep.sends - accounted;
  gate(unaccounted == 0, "sends unaccounted: " + std::to_string(unaccounted));
  gate(refused == m.refused_no_balance + m.refused_daily_limit,
       "refusal counters disagree with facade results");
  EPenny col_bought = 0, col_sold = 0;
  for (std::size_t i = 0; i < w.params.n_isps; ++i) {
    const core::Isp& isp = sys->isp(i);
    for (std::size_t u = 0; u < isp.user_count(); ++u) {
      const core::ConstUserRef row = isp.user(u);
      col_bought += row.lifetime_epennies_bought;
      col_sold += row.lifetime_epennies_sold;
    }
  }
  const bool trades_ok = col_bought == bought && col_sold == sold;
  gate(trades_ok, "settled trades disagree with user columns");
  gate(unpredicted == 0,
       "refusals the schedule did not predict: " + std::to_string(unpredicted));
  ep.failed = unaccounted + unpredicted + (trades_ok ? 0 : ep.trades);

  ep.digest = digest_of(*sys);

  // --- Per-layer counters (public accessors) ------------------------------
  const core::BankMetrics& bm = sys->bank().metrics();
  const ZmailSystem::StoreTotals st = sys->store_totals();
  const net::FaultInjector* inj = world.injector.get();
  ep.remote_delivered = m.emails_delivered - m.emails_sent_local;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double sends = d(ep.sends), ops = d(ep.ops), ev = d(events(*sys));
  double windows = 0, cross = 0, max_window = 0;
  if constexpr (std::is_same_v<Sys, ShardedSystem>) {
    if (const sim::ShardedStats* es = sys->engine_stats()) {
      windows = d(es->windows);
      cross = d(es->cross_shard_msgs);
      max_window = d(es->max_window_events);
    }
  }
  std::uint64_t smtp = 0;
  for (std::size_t i = 0; i < w.params.n_isps; ++i)
    smtp += sys->smtp_bytes_received(i);
  ep.counters = {
      {"core.emails_delivered", d(m.emails_delivered), "count"},
      {"core.refused", d(m.refused_no_balance + m.refused_daily_limit),
       "count"},
      {"core.quiesce_buffered", d(m.emails_buffered_during_quiesce), "count"},
      {"core.snapshot_rounds", d(bm.snapshot_rounds), "count"},
      {"core.trades_refused", d(ep.trades_refused), "count"},
      {"core.bank_trades", d(bm.buys_received + bm.sells_received), "count"},
      {"core.trade_accept_frac", per(d(bm.buys_accepted), d(bm.buys_received)),
       "ratio"},
      {"failed_frac", failed_frac(ep.ops, ep.failed), "ratio"},
      {"sim.events", ev, "count"},
      {"sim.events_per_op", per(ev, ops), "events/op"},
      {"sim.calendar_rebases", d(rebases(*sys)), "count"},
      {"sharded.windows", windows, "count"},
      {"sharded.events_per_window", per(ev, windows), "events/window"},
      {"sharded.max_window_events", max_window, "count"},
      {"sharded.cross_shard_msgs", cross, "count"},
      {"net.datagrams_per_email", per(d(datagrams(*sys)), sends),
       "dgrams/send"},
      {"net.bytes_per_email", per(d(wire_bytes(*sys)), sends), "B/send"},
      {"net.smtp_bytes_per_email", per(d(smtp), sends), "B/send"},
      {"net.retransmits", d(m.emails_retransmitted), "count"},
      {"net.duplicates_dropped", d(m.duplicate_emails_dropped), "count"},
      {"net.faults_injected", inj ? d(inj->counters().total_injected()) : 0.0,
       "count"},
      {"net.useful_frac",
       per(d(ep.remote_delivered),
           d(m.emails_sent_compliant + m.emails_retransmitted)),
       "ratio"},
      {"store.wal_records", d(st.wal_records_appended), "count"},
      {"store.wal_bytes_per_op", per(d(st.wal_bytes_appended), ops), "B/op"},
      {"store.wal_syncs", d(st.wal_syncs), "count"},
      {"store.checkpoints", d(st.checkpoints), "count"},
      {"store.snapshot_bytes", d(st.snapshot_bytes), "B"},
  };

  // --- Store spans at the quiet point (traced episodes) -------------------
  if constexpr (std::is_same_v<Sys, ZmailSystem>) {
    if (rec.on && w.params.store.enabled) {
      t0 = now_ns();
      sys->checkpoint_all();
      ep.checkpoint_ms = static_cast<double>(now_ns() - t0) / 1e6;
      t0 = now_ns();
      sys->recover_host(w.crash_isp);
      ep.recover_ms = static_cast<double>(now_ns() - t0) / 1e6;
      gate(sys->conservation_holds() && digest_of(*sys) == ep.digest,
           "state changed across checkpoint + recover at the quiet point");
    }
  }
  return ep;
}

// --- Replays of public layer calls on the workload's own messages ----------

struct Replay {
  double serialize_ns = 0, deserialize_ns = 0, render_ns = 0, smtp_ns = 0;
  // [0]: trade-request-sized plaintext, [1]: credit-report-sized.
  double seal_ns[2] = {0, 0}, unseal_ns[2] = {0, 0};
  bool ok = true;
};

template <class F>
double per_call_ns(std::size_t calls, F&& f) {
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < calls; ++i) f(i);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
}

Replay replay_layers(const Inputs& in, std::size_t n_isps) {
  Replay r;
  std::vector<net::EmailMessage> msgs;
  for (const Op& op : in.ops) {
    if (op.kind != Op::kSend) continue;
    net::EmailMessage m = net::make_email(
        net::make_user_address(op.from_isp, op.from_user),
        net::make_user_address(op.to_isp, op.to_user), in.subjects[op.text],
        in.bodies[op.text]);
    m.set_header("X-Zmail-Sent-At", std::to_string(msgs.size()));
    msgs.push_back(std::move(m));
    if (msgs.size() == 2000) break;
  }
  if (!msgs.empty()) {
    const std::size_t n = msgs.size();
    std::vector<crypto::Bytes> wires(n);
    r.serialize_ns = per_call_ns(n, [&](std::size_t i) {
      wires[i] = msgs[i].serialize();
    });
    std::size_t parsed = 0;
    r.deserialize_ns = per_call_ns(n, [&](std::size_t i) {
      parsed += net::EmailMessage::deserialize(wires[i]).has_value();
    });
    std::size_t rendered = 0;
    r.render_ns = per_call_ns(n, [&](std::size_t i) {
      rendered += msgs[i].to_rfc822().size();
    });
    std::size_t accepted = 0;
    r.smtp_ns = per_call_ns(n, [&](std::size_t i) {
      std::optional<net::EmailMessage> got;
      net::SmtpServerSession session(
          net::isp_domain(1), [&got](const net::EmailMessage& m) { got = m; });
      accepted += net::smtp_transfer(msgs[i], net::isp_domain(0), session)
                      .accepted &&
                  got && got->body == msgs[i].body;
    });
    r.ok = parsed == n && accepted == n && rendered > 0;
  }

  // Crypto: trade-request-sized and credit-report-sized plaintexts,
  // timed apart so the caller can weight them by the run's own mix.
  Rng rng(in.world_seed ^ 0x5EA1ULL);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  core::BuyRequest buy;
  buy.buyvalue = 1234;
  core::CreditReport report;
  report.seq = 7;
  report.credit.assign(n_isps, -3);
  const crypto::Bytes plains[2] = {buy.serialize(), report.serialize()};
  // Like the protocol code, reuse one envelope and one output buffer;
  // one untimed pass first warms the caches and buffers.
  constexpr std::size_t kSeals = 2000;
  crypto::Envelope env;
  crypto::Bytes wire, plain;
  std::size_t opened = 0;
  for (int k = 0; k < 2; ++k) {
    for (int pass = 0; pass < 2; ++pass) {
      r.seal_ns[k] = per_call_ns(kSeals, [&](std::size_t) {
        core::seal_into(keys.pub, plains[k], rng, env, wire);
      });
      r.unseal_ns[k] = per_call_ns(kSeals, [&](std::size_t) {
        opened += core::unseal_into(keys.priv, wire, env, plain) &&
                  plain == plains[k];
      });
    }
  }
  r.ok = r.ok && opened == 4 * kSeals;
  return r;
}

// --- Output ------------------------------------------------------------------

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  return 0.0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Every episode replays one schedule, so second k of the timed phase does
// the same work in every episode and its host time differs only by what
// the host did meanwhile.  On a shared host a vCPU alternates, on a scale
// of seconds, between having its core to itself and sharing it, about
// 1.6x slower, and the share of each differs from run to run; a run's
// mean or median slice follows that share.  A second's 90th percentile
// over the run's episodes, and never its slowest episode, is its time on
// a shared core as long as two episodes (a tenth of them, in long runs)
// shared the core there, while a one-off stall in a single episode (a
// page-cache flush, an interrupt burst) does not count.  The timing
// figures are built on these per-second times.
struct Phase {
  std::vector<Episode> episodes;
  // One median per episode of the set-ups run just before it.
  std::vector<double> setups;

  // Per-second host time (ms) over the episodes: the scheduled seconds,
  // then with `drain` the seconds drained to the quiet point.
  std::vector<double> per_second_ms(bool drain) const {
    std::vector<std::vector<double>> reps;
    for (const Episode& e : episodes) {
      reps.push_back(e.slice_ms);
      if (drain)
        reps.back().insert(reps.back().end(), e.drain_ms.begin(),
                           e.drain_ms.end());
    }
    return per_index_quantile(reps, episode_quantile(reps.size()));
  }
  // One episode's ops over the sum of the per-second times of its whole
  // timed phase.
  double ops_per_s() const {
    if (episodes.empty()) return 0.0;
    double ms = 0.0;
    for (double x : per_second_ms(true)) ms += x;
    return ms > 0 ? static_cast<double>(episodes.front().ops) / (ms / 1e3)
                  : 0.0;
  }
  // Quantile q of the per-second times of the scheduled seconds.  Every
  // schedule has at least 1000 seconds, so p99 keeps >= 10 beyond it.
  // q = 1 is the slowest second: the one that holds the snapshot round's
  // quiesce flush, a checkpoint or the crash recovery, which p99 cannot
  // see (an episode has one of each).
  double slice_ms(double q) const { return quantile(per_second_ms(false), q); }
  // Set-up time by the same rule, over the per-episode medians.
  double setup_s() const {
    return quantile(setups, episode_quantile(setups.size()));
  }
  // Median over episodes of each episode's own rate and slice quantile,
  // printed beside the per-second figures: the gap shows how much of the
  // run the host's cores were shared.
  double episode_ops_per_s() const {
    std::vector<double> rates;
    for (const Episode& e : episodes)
      rates.push_back(static_cast<double>(e.ops) / e.timed_s);
    return median(rates);
  }
  double episode_slice_ms(double q) const {
    std::vector<double> per_episode;
    for (const Episode& e : episodes)
      per_episode.push_back(quantile(e.slice_ms, q));
    return median(per_episode);
  }
};

Episode run_episode(Context& cx) {
  return cx.w->shards > 1 ? run_episode<ShardedSystem>(cx)
                          : run_episode<ZmailSystem>(cx);
}
double setup_once(const Context& cx) {
  return cx.w->shards > 1 ? build_world<ShardedSystem>(cx).setup_s
                          : build_world<ZmailSystem>(cx).setup_s;
}

// Set-up-only repeats before each episode of an untraced run: at least
// kSetupGroupMin and until kSetupGroupS of host time has passed, so even
// a world that sets up in a fraction of a millisecond gives a median that
// one slow set-up does not move.
constexpr std::size_t kSetupGroupMin = 3;
constexpr double kSetupGroupS = 0.05;

// Runs episodes while another one of the last one's length still ends
// within `budget_s` of host time (at least `min_episodes`), so a run's
// length does not depend on how far its last episode overshoots.  With
// `sample_setups` each episode is preceded by a group of set-ups.
Phase run_phase(Context& cx, double budget_s, std::size_t min_episodes,
                bool sample_setups) {
  Phase ph;
  const std::int64_t t0 = now_ns();
  double last_s = 0.0;
  while (ph.episodes.size() < min_episodes ||
         static_cast<double>(now_ns() - t0) / 1e9 + last_s <= budget_s) {
    const std::int64_t e0 = now_ns();
    if (sample_setups) {
      std::vector<double> group;
      while (group.size() < kSetupGroupMin ||
             static_cast<double>(now_ns() - e0) / 1e9 < kSetupGroupS)
        group.push_back(setup_once(cx));
      ph.setups.push_back(median(group));
    }
    ph.episodes.push_back(run_episode(cx));
    const Episode& e = ph.episodes.back();
    last_s = static_cast<double>(now_ns() - e0) / 1e9;
    std::printf("episode %zu%s: setup %.3f s, timed %.3f s, total %.3f s, "
                "slice p50 %.3f ms\n",
                ph.episodes.size(), cx.rec->on ? " (traced)" : "", e.setup_s,
                e.timed_s, last_s, quantile(e.slice_ms, 0.5));
  }
  return ph;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir>\nworkloads:");
  for (const Workload& w : workloads())
    std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  int traced = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") traced = std::atoi(v.c_str());
    else if (k == "--workdir") workdir = v;
    else return usage();
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || seconds <= 0) return usage();
  std::filesystem::create_directories(workdir);

  std::printf("workload %s seed %" PRIu64 " trace %d\n", w->name.c_str(),
              seed, traced);
  std::printf("hardware_threads %u build_type %s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);

  const std::int64_t g0 = now_ns();
  const Inputs in = generate(*w, seed);
  const double gen_s = static_cast<double>(now_ns() - g0) / 1e9;
  std::printf("inputs: %zu ops over %zu slices, generated in %.3f s\n",
              in.ops.size(), in.slices(), gen_s);

  Recorder rec;
  Context cx;
  cx.w = w;
  cx.in = &in;
  cx.workdir = workdir;
  cx.rec = &rec;

  // One untimed warm-up episode fills the caches and the allocator's free
  // lists; its gates still count.  Then the untraced measurement: the rest
  // of the budget for --trace 0, half of it as the overhead base for
  // --trace 1.
  const std::int64_t w0 = now_ns();
  Phase warm;
  warm.episodes.push_back(run_episode(cx));
  const double warm_s = static_cast<double>(now_ns() - w0) / 1e9;
  std::printf("warm-up episode: %.3f s\n", warm_s);
  const Phase plain =
      traced ? run_phase(cx, seconds / 2 - warm_s, 1, false)
             : run_phase(cx, seconds - warm_s, 3, true);
  Phase tr;
  if (traced) {
    rec.on = true;
    trace::reset_profiles();
    trace::set_profiling_enabled(true);
    tr = run_phase(cx, 0, 1, false);  // one traced episode
    trace::set_profiling_enabled(false);
  }

  // Gates across every episode of the run.
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  const std::string digest = plain.episodes.front().digest;
  for (const Phase* ph : {&std::as_const(warm), &plain, &std::as_const(tr)}) {
    for (const Episode& e : ph->episodes) {
      attempted += e.ops;
      failed += e.failed;
      for (const std::string& g : e.gate_failures) {
        std::printf("GATE FAILED: %s\n", g.c_str());
        correct = false;
      }
      if (e.digest != digest) {
        std::printf("GATE FAILED: digest %s != %s across episodes\n",
                    e.digest.c_str(), digest.c_str());
        correct = false;
      }
    }
  }
  std::printf("digest %s (%zu episodes agree)\n", digest.c_str(),
              1 + plain.episodes.size() + tr.episodes.size());

  const std::size_t seconds_n = plain.per_second_ms(false).size();
  const double slices = static_cast<double>(seconds_n * plain.episodes.size());
  const double tail = resolvable_percentile(seconds_n);
  std::printf("per-second times: %zu seconds, each the p%g of %zu episodes; "
              "highest resolvable percentile p%g = %.4f ms\n",
              seconds_n, 100 * episode_quantile(plain.episodes.size()),
              plain.episodes.size(), tail * 100, plain.slice_ms(tail));
  std::printf("episode medians: ops_per_s %.6g, slice_p50_ms %.6g, "
              "slice_p99_ms %.6g\n",
              plain.episode_ops_per_s(), plain.episode_slice_ms(0.5),
              plain.episode_slice_ms(0.99));
  std::printf("failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              failed_frac(attempted, failed), failed, attempted);

  std::vector<Metric> out;
  if (!traced) {
    out = {{"ops_per_s", plain.ops_per_s(), "ops/s"},
           {"slice_p50_ms", plain.slice_ms(0.5), "ms"},
           {"slice_p99_ms", plain.slice_ms(0.99), "ms"},
           {"setup_s", plain.setup_s(), "s"},
           {"peak_rss_mb", peak_rss_mb(), "MB"}};
    print_result(correct, attempted, failed, out);
    return correct ? 0 : 1;
  }

  // --- Per-layer metrics from the traced episode -------------------------
  const Episode& te = tr.episodes.front();
  const double timed_ns = te.timed_s * 1e9;
  const double ev = te.counter("sim.events");
  const double parties = static_cast<double>(w->params.n_isps + 1);
  const auto prof = [](const char* name) {
    return trace::profile(name).snapshot();
  };
  const auto mean_ns = [](const trace::ProfileHistogram::Snapshot& s) {
    return s.count ? static_cast<double>(s.total_ns) /
                         static_cast<double>(s.count)
                   : 0.0;
  };
  // Read the profiles before the replays below add calls of their own.
  const auto dispatch = prof("sim.dispatch");
  const auto seal = prof("crypto.seal");
  const auto unseal = prof("crypto.unseal");
  const auto wal_sync = prof("store.wal_sync");

  const Replay rp = replay_layers(in, w->params.n_isps);
  if (!rp.ok) {
    std::printf("GATE FAILED: layer replay round trip\n");
    correct = false;
  }
  // Weight the two replay sizes by the run's mix: every credit report of
  // every snapshot round is report-sized, every other seal trade-sized.
  const double reports = te.counter("core.snapshot_rounds") *
                         static_cast<double>(w->params.n_isps);
  const double big = seal.count ? std::min(1.0, reports / static_cast<double>(
                                                              seal.count))
                                : 0.0;
  const double seal_ns = (1 - big) * rp.seal_ns[0] + big * rp.seal_ns[1];
  const double unseal_ns = (1 - big) * rp.unseal_ns[0] + big * rp.unseal_ns[1];
  std::printf("crypto cross-check: replay seal %.0f ns vs in-run %.0f ns; "
              "unseal %.0f ns vs %.0f ns (report-sized share %.4f)\n",
              seal_ns, mean_ns(seal), unseal_ns, mean_ns(unseal), big);

  const std::vector<double> sends = rec.durations(kSend);
  const std::vector<double> trades = rec.durations(kTrade);
  double op_ns = 0;
  for (double d : sends) op_ns += d;
  for (double d : trades) op_ns += d;
  const double ops = static_cast<double>(te.ops);
  const double remote = static_cast<double>(te.remote_delivered);
  const double windows = te.counter("sharded.windows");

  // Cost ledger over the traced episode.  Per remote email the facade
  // serializes and deserializes twice (sender outbox and SMTP re-serialize;
  // delivery and the receiving ISP) and runs one SMTP dialogue.  sim.queue
  // is what run_for spends outside event handlers and barrier audits:
  // calendar, window and mailbox work, per event.
  const double audit_ns = te.audit_scan_ms * 1e6 * windows;
  const double queue_ns =
      ev ? std::max(0.0, te.runfor_ns - static_cast<double>(dispatch.total_ns) -
                             audit_ns) /
               ev
         : 0.0;
  const std::vector<LedgerEntry> ledger = {
      {"core.ops", ops ? op_ns / ops : 0.0, ops},
      {"sim.queue", queue_ns, ev},
      {"net.codec", 2 * (rp.serialize_ns + rp.deserialize_ns), remote},
      {"net.smtp", rp.smtp_ns, remote},
      {"crypto.seal", seal_ns, static_cast<double>(seal.count)},
      {"crypto.unseal", unseal_ns, static_cast<double>(unseal.count)},
      {"store.wal_sync", mean_ns(wal_sync), te.counter("store.wal_syncs")},
      {"store.checkpoint", te.checkpoint_ms * 1e6 / parties,
       te.counter("store.checkpoints")},
      {"sharded.audit", te.audit_scan_ms * 1e6, windows},
  };
  for (const LedgerEntry& e : ledger)
    std::printf("ledger %-20s %12.1f ns x %12.0f = %8.3f s (%.1f%%)\n",
                e.layer.c_str(), e.ns_per_call, e.calls, e.total_ns() / 1e9,
                timed_ns > 0 ? 100 * e.total_ns() / timed_ns : 0.0);

  const std::string span_file = workdir + "/spans_" + w->name + ".csv";
  if (rec.write_csv(span_file))
    std::printf("spans: %zu written to %s\n", rec.spans().size(),
                span_file.c_str());

  const double traced_ops_s = tr.episode_ops_per_s();
  out = {
      {"core.send_ns_p50", quantile(sends, 0.5), "ns"},
      {"core.send_ns_p99", quantile(sends, 0.99), "ns"},
      {"core.trade_ns_p50", quantile(trades, 0.5), "ns"},
      {"core.audit_ms", te.audit_ms, "ms"},
      {"sim.advance_ns_per_event", ev ? te.runfor_ns / ev : 0.0, "ns"},
      {"sim.dispatch_ns_mean", mean_ns(dispatch), "ns"},
      {"sharded.audit_scan_ms", te.audit_scan_ms, "ms"},
      {"sharded.audit_share", timed_ns > 0 ? audit_ns / timed_ns : 0.0,
       "ratio"},
      {"net.serialize_ns", rp.serialize_ns, "ns"},
      {"net.deserialize_ns", rp.deserialize_ns, "ns"},
      {"net.rfc822_render_ns", rp.render_ns, "ns"},
      {"net.smtp_transfer_ns", rp.smtp_ns, "ns"},
      {"crypto.seal_ns", seal_ns, "ns"},
      {"crypto.unseal_ns", unseal_ns, "ns"},
      {"crypto.seals", static_cast<double>(seal.count), "count"},
      {"crypto.unseals", static_cast<double>(unseal.count), "count"},
      {"store.checkpoint_ms", te.checkpoint_ms, "ms"},
      {"store.recover_ms", te.recover_ms, "ms"},
      {"store.wal_sync_ns", mean_ns(wal_sync), "ns"},
      {"trace.overhead_frac",
       plain.episode_ops_per_s() > 0
           ? traced_ops_s / plain.episode_ops_per_s() - 1.0
           : 0.0,
       "ratio"},
      {"ledger.attributed_frac", attributed_frac(ledger, timed_ns), "ratio"},
      {"workload.gen_s", gen_s, "s"},
      {"slice_samples", slices, "count"},
      {"slice_max_ms", plain.slice_ms(1.0), "ms"},
  };
  out.insert(out.end(), te.counters.begin(), te.counters.end());
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}
