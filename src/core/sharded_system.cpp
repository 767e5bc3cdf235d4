#include "core/sharded_system.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace zmail::core {

namespace {
constexpr std::size_t kMaxAuditMessages = 8;
}  // namespace

ShardedSystem::ShardedSystem(ZmailParams params, std::uint64_t seed,
                             ShardOptions opts)
    : opts_(opts) {
  ZMAIL_ASSERT_MSG(opts_.shards > 0, "need at least one shard");

  if (opts_.shards == 1) {
    // Whole world, no engine: the legacy single-threaded path, byte-stable
    // against pre-sharding builds (shared RNG stream, unkeyed latency).
    shards_.push_back(std::make_unique<ZmailSystem>(std::move(params), seed));
    return;
  }

  shards_.reserve(opts_.shards);
  for (std::size_t s = 0; s < opts_.shards; ++s) {
    ShardSlice slice;
    slice.shard = s;
    slice.shards = opts_.shards;
    slice.keyed_seed = seed;
    shards_.push_back(std::make_unique<ZmailSystem>(params, seed, slice));
  }

  // The conservative window length: nothing crosses shards faster than the
  // network's latency floor (jitter, FIFO clamps, and fault delay spikes
  // only push deliveries later).
  sim::Duration lookahead = opts_.lookahead;
  if (lookahead == 0)
    lookahead = shards_[0]->network().latency().min_latency();
  ZMAIL_ASSERT_MSG(
      lookahead <= shards_[0]->network().latency().min_latency(),
      "lookahead must not exceed the network's minimum latency");

  pool_ = std::make_unique<util::ThreadPool>(
      opts_.threads != 0 ? opts_.threads : opts_.shards);
  sim::ShardedOptions eo;
  eo.shards = opts_.shards;
  eo.lookahead = lookahead;
  eo.deterministic = opts_.deterministic;
  engine_ = std::make_unique<sim::ShardedSimulator>(eo, *pool_);

  for (std::size_t s = 0; s < opts_.shards; ++s) wire_shard(s);
  engine_->set_barrier_hook([this](sim::SimTime at) { audit_barrier(at); });
  initial_real_money_ =
      total_real_money() + Money::from_epennies(bank().epennies_outstanding());
}

ShardedSystem::~ShardedSystem() = default;

void ShardedSystem::wire_shard(std::size_t s) {
  ZmailSystem* sys = shards_[s].get();
  engine_->attach(s, &sys->simulator());
  // Cross-shard datagrams: the source network resolved the delivery time
  // (keyed latency + FIFO + fault delay); the engine carries the datagram
  // over the barrier and the owner's network injects it on schedule.
  sys->network().set_remote_route(
      [this, s](net::Datagram&& d, sim::SimTime at) {
        const std::size_t dst = owner_shard(d.to);
        ZmailSystem* owner = shards_[dst].get();
        engine_->post(s, dst, at,
                      [owner, d = std::move(d), at]() mutable {
                        owner->network().deliver_remote(std::move(d), at);
                      });
      });
  // Snapshot quiesce timeouts arm on the bank shard with one common
  // absolute deadline but must fire on the ISP's owner.
  sys->set_remote_quiesce_hook([this, s](std::size_t isp, sim::SimTime at) {
    const std::size_t dst = owner_shard(isp);
    ZmailSystem* owner = shards_[dst].get();
    engine_->post(s, dst, at, [owner, isp] { owner->quiesce_timeout(isp); });
  });
}

std::size_t ShardedSystem::owner_shard(std::size_t host) const noexcept {
  if (!sharded()) return 0;
  if (host == bank_index()) return ShardSlice::owner_of_bank(shards_.size());
  return ShardSlice::owner_of_isp(host, shards_.size());
}

// --- Verbs ------------------------------------------------------------------

SendOutcome ShardedSystem::send_email(const net::EmailAddress& from,
                                      const net::EmailAddress& to,
                                      std::string subject, std::string body,
                                      net::MailClass truth) {
  std::size_t from_isp = 0, from_user = 0;
  ZMAIL_ASSERT_MSG(net::decode_user_address(from, from_isp, from_user),
                   "sender must be a simulated user address");
  return shards_[owner_shard(from_isp)]->send_email(
      from, to, std::move(subject), std::move(body), truth);
}

bool ShardedSystem::buy_epennies(const net::EmailAddress& user, EPenny n) {
  std::size_t i = 0, u = 0;
  if (!net::decode_user_address(user, i, u)) return false;
  return shards_[owner_shard(i)]->buy_epennies(user, n);
}

bool ShardedSystem::sell_epennies(const net::EmailAddress& user, EPenny n) {
  std::size_t i = 0, u = 0;
  if (!net::decode_user_address(user, i, u)) return false;
  return shards_[owner_shard(i)]->sell_epennies(user, n);
}

void ShardedSystem::end_of_day() {
  for (std::size_t i = 0; i < params().n_isps; ++i)
    if (is_compliant(i)) shards_[owner_shard(i)]->isp(i).end_of_day();
}

void ShardedSystem::make_compliant(IspId isp) {
  if (!sharded()) {
    shards_[0]->make_compliant(isp);
    return;
  }
  const std::size_t i = isp.index();
  ZMAIL_ASSERT(i < params().n_isps);
  if (is_compliant(i)) return;
  ZMAIL_ASSERT_MSG(epennies_in_flight() == 0 && pending_transfers() == 0,
                   "flip compliance only while no paid mail is in flight");
  // The bank (shard 0) publishes the flip; the owner joins the current
  // billing period; every shard's published-compliant copy must agree
  // before any further traffic touches ISP i.
  const std::uint64_t bank_seq = bank().seq();
  const std::size_t owner = owner_shard(i);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (s == owner)
      shards_[s]->make_compliant_owned(isp, bank_seq);
    else
      shards_[s]->adopt_compliance(isp);
  }
  // The flip brings a fresh set of user wallets (and their endowment) into
  // the measured world at a quiet point; rebase the real-money baseline so
  // the barrier audits keep comparing against a current total.
  initial_real_money_ =
      total_real_money() + Money::from_epennies(bank().epennies_outstanding());
}

void ShardedSystem::start_snapshot() {
  shards_[owner_shard(bank_index())]->start_snapshot();
}

void ShardedSystem::crash_host(std::size_t host, sim::Duration down_for) {
  shards_[owner_shard(host)]->crash_host(host, down_for);
}

// --- Periodic machinery ------------------------------------------------------

void ShardedSystem::enable_daily_resets() {
  // Every shard schedules the same tick; each resets only its owned ISPs.
  for (auto& s : shards_) s->enable_daily_resets();
}

void ShardedSystem::enable_bank_trading(sim::Duration poll) {
  for (auto& s : shards_) s->enable_bank_trading(poll);
}

void ShardedSystem::enable_periodic_snapshots(sim::Duration period) {
  // Rounds start where the bank lives; requests fan out over the network.
  shards_[owner_shard(bank_index())]->enable_periodic_snapshots(period);
}

void ShardedSystem::enable_telemetry(const telemetry::TelemetryConfig& cfg) {
  telemetry::TelemetryConfig per_shard = cfg;
  if (sharded() && !per_shard.prom_path.empty()) {
    ZMAIL_LOG(LogLevel::kWarn, "telemetry",
              "prometheus exposition is single-registry only; ignoring "
              "prom_path on a %zu-shard world",
              shards_.size());
    per_shard.prom_path.clear();
  }
  for (auto& s : shards_) s->enable_telemetry(per_shard);
}

std::vector<const telemetry::TelemetryRegistry*>
ShardedSystem::telemetry_registries() const {
  std::vector<const telemetry::TelemetryRegistry*> out;
  for (const auto& s : shards_)
    if (const telemetry::TelemetryRegistry* r = s->telemetry())
      out.push_back(r);
  return out;
}

void ShardedSystem::attach_faults(const net::FaultPlan& plan,
                                  std::uint64_t fault_seed) {
  ZMAIL_ASSERT_MSG(injectors_.empty(), "faults already attached");
  for (auto& s : shards_) {
    auto inj = std::make_unique<net::FaultInjector>(plan, fault_seed);
    // Keyed per-pair fate draws: shard k's decision for (from,to,k) equals
    // any other partition's decision for the same triple, so the injected
    // fault pattern is a property of the world, not of the sharding.
    if (sharded()) inj->enable_keyed(params().n_isps + 1);
    s->attach_faults(inj.get());
    injectors_.push_back(std::move(inj));
  }
}

// --- Time --------------------------------------------------------------------

void ShardedSystem::run_for(sim::Duration d) {
  if (!sharded()) {
    shards_[0]->run_for(d);
    return;
  }
  engine_->run(now() + d);
}

void ShardedSystem::run_until_quiet(sim::Duration max) {
  if (!sharded()) {
    shards_[0]->run_until_quiet(max);
    return;
  }
  engine_->run(now() + max);
}

sim::SimTime ShardedSystem::now() const noexcept { return shards_[0]->now(); }

// --- Introspection -----------------------------------------------------------

Isp& ShardedSystem::isp(IspId i) {
  return shards_[owner_shard(i.index())]->isp(i);
}

const Isp& ShardedSystem::isp(IspId i) const {
  return shards_[owner_shard(i.index())]->isp(i);
}

// --- Merged observability ----------------------------------------------------

IspMetrics ShardedSystem::total_isp_metrics() const {
  IspMetrics total;
  // Owner order (ISP index order via per-shard scans would interleave);
  // counters are sums so any order gives the same value, but walking ISP
  // index order keeps this trivially partition-independent.
  for (std::size_t i = 0; i < params().n_isps; ++i)
    if (is_compliant(i)) total.merge(isp(i).metrics());
  return total;
}

LegacyHostStats ShardedSystem::total_legacy_stats() const {
  LegacyHostStats total;
  for (const auto& s : shards_) {
    const LegacyHostStats t = s->total_legacy_stats();
    total.emails_sent += t.emails_sent;
    total.emails_received += t.emails_received;
    total.emails_received_spam += t.emails_received_spam;
  }
  return total;
}

Sample ShardedSystem::merged_delivery_latency() const {
  if (!sharded()) return shards_[0]->delivery_latency();
  std::vector<double> all;
  for (const auto& s : shards_) {
    const auto& xs = s->delivery_latency().values();
    all.insert(all.end(), xs.begin(), xs.end());
  }
  // Ascending order pins the float-summation order of mean()/sum(): which
  // shard observed which email stops mattering.
  std::sort(all.begin(), all.end());
  Sample out;
  for (double x : all) out.add(x);
  return out;
}

std::uint64_t ShardedSystem::datagrams_sent() const {
  std::uint64_t total = 0;
  // Each datagram is counted once, at its source network's send(); the
  // destination's deliver_remote() does not re-count.
  for (const auto& s : shards_) total += s->network().datagrams_sent();
  return total;
}

std::uint64_t ShardedSystem::bytes_sent() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->network().bytes_sent();
  return total;
}

std::uint64_t ShardedSystem::smtp_bytes_received(std::size_t i) const {
  return shards_[owner_shard(i)]->smtp_bytes_received(i);
}

std::size_t ShardedSystem::pending_transfers() const noexcept {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->pending_transfers();
  return total;
}

std::uint64_t ShardedSystem::state_recoveries() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->state_recoveries();
  return total;
}

std::uint64_t ShardedSystem::calendar_rebases() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->simulator().calendar_rebases();
  return total;
}

ZmailSystem::StoreTotals ShardedSystem::store_totals() const {
  ZmailSystem::StoreTotals total;
  for (const auto& s : shards_) {
    const ZmailSystem::StoreTotals t = s->store_totals();
    total.checkpoints += t.checkpoints;
    total.snapshot_bytes += t.snapshot_bytes;
    total.wal_records_truncated += t.wal_records_truncated;
    total.wal_records_appended += t.wal_records_appended;
    total.wal_bytes_appended += t.wal_bytes_appended;
    total.wal_syncs += t.wal_syncs;
    total.wal_fsyncs += t.wal_fsyncs;
  }
  return total;
}

std::uint64_t ShardedSystem::horizon_clamps() const noexcept {
  std::uint64_t total = engine_ ? engine_->stats().horizon_clamps : 0;
  for (const auto& s : shards_) total += s->network().horizon_clamps();
  return total;
}

// --- Global zero-sum invariants ----------------------------------------------

EPenny ShardedSystem::total_epennies() const {
  EPenny total = 0;
  for (const auto& s : shards_) total += s->total_epennies();
  return total;
}

EPenny ShardedSystem::epennies_in_flight() const noexcept {
  EPenny total = 0;
  for (const auto& s : shards_) total += s->epennies_in_flight();
  return total;
}

Money ShardedSystem::total_real_money() const {
  Money total = Money::zero();
  for (const auto& s : shards_) total += s->total_real_money();
  return total;
}

bool ShardedSystem::conservation_holds() const {
  if (!sharded()) return shards_[0]->conservation_holds();
  // Per-shard escrow (in_flight_paid_) drifts: the source shard debits when
  // a paid email leaves, the destination credits when it lands, so only the
  // global sum balances.  Endowments count where the ISP lives; the net
  // mint counts on the bank shard.
  EPenny initial = 0;
  for (const auto& s : shards_) {
    if (!s->running_totals_agree()) return false;
    initial += s->initial_endowment_owned();
  }
  return total_epennies() == initial + bank().epennies_outstanding();
}

EPenny ShardedSystem::initial_endowment() const {
  EPenny initial = 0;
  for (const auto& s : shards_) initial += s->initial_endowment_owned();
  return initial;
}

void ShardedSystem::audit_barrier(sim::SimTime at) {
  ++audit_.checks;
  auto fail = [&](const char* what) {
    ++audit_.failures;
    if (audit_.messages.size() < kMaxAuditMessages)
      audit_.messages.push_back(std::string(what) + " at barrier t=" +
                                std::to_string(at));
  };
  // The barrier is a globally consistent cut (all shards parked at the
  // window edge, mailboxes empty) — but not necessarily a *quiet* one: a
  // buy may sit between the bank's mint and the ISP's avail credit, so
  // holdings can legitimately run BELOW endowment + net mint by exactly the
  // trade value in flight.  What can never happen at any cut is value
  // creation: holdings above endowment + mint means a double-mint,
  // double-credit, or replayed refund got through.  The strict equality is
  // still enforced at quiet points via conservation_holds().
  //
  // Both totals are O(ISPs): they read each population's running holdings
  // totals, never a per-user column.  conservation_holds() does the full
  // scan and checks that it agrees with those totals.
  EPenny initial = 0;
  for (const auto& s : shards_) initial += s->initial_endowment_owned();
  if (total_epennies() > initial + bank().epennies_outstanding())
    fail("e-pennies created from nothing");
  if (initial_real_money_ <
      total_real_money() +
          Money::from_epennies(bank().epennies_outstanding()))
    fail("real money created from nothing");
}

}  // namespace zmail::core
