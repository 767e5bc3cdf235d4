#include "core/federated_system.hpp"

#include "core/telemetry_wiring.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace zmail::core {

namespace {
constexpr sim::Duration kQuiesceWindow = 10 * sim::kMinute;

// Inter-bank datagram types (interned once).  Index = FedMsg value - 1.
net::MsgType fed_msg_type(std::uint8_t kind) {
  static const net::MsgType kTypes[4] = {
      net::MsgType::intern("fed-columns"),
      net::MsgType::intern("fed-columns-ack"),
      net::MsgType::intern("fed-clearing"),
      net::MsgType::intern("fed-clearing-ack"),
  };
  ZMAIL_ASSERT(kind >= 1 && kind <= 4);
  return kTypes[kind - 1];
}

std::uint8_t fed_msg_kind(net::MsgType t) {
  for (std::uint8_t k = 1; k <= 4; ++k)
    if (t == fed_msg_type(k)) return k;
  return 0;
}
}  // namespace

FederatedZmailSystem::FederatedZmailSystem(ZmailParams params,
                                           std::size_t n_banks,
                                           std::uint64_t seed)
    : params_(std::move(params)),
      n_banks_(n_banks),
      rng_(seed),
      seed_(seed),
      sim_(),
      net_(sim_, Rng(seed ^ 0xFEDE7ULL), net::LatencyModel{}) {
  const auto problems = params_.validate();
  ZMAIL_ASSERT_MSG(problems.empty(),
                   problems.empty() ? "" : problems.front().c_str());
  ZMAIL_ASSERT_MSG(params_.compliant.empty(),
                   "FederatedZmailSystem models an all-compliant world");
  ZMAIL_ASSERT(n_banks_ >= 1);

  fed_ = std::make_unique<BankFederation>(params_, n_banks_, seed ^ 0xFE);

  isps_.resize(params_.n_isps);
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    isps_[i] = std::make_unique<Isp>(i, params_, fed_->public_key_for(i),
                                     seed * 0x2545F4914F6CDD1DULL + i);
    const net::HostId h = net_.add_host(
        net::isp_domain(i),
        [this, i](const net::Datagram& d) { on_isp_datagram(i, d); });
    ZMAIL_ASSERT(h == i);
  }
  for (std::size_t b = 0; b < n_banks_; ++b) {
    const net::HostId h = net_.add_host(
        "bank" + std::to_string(b) + ".example",
        [this, b](const net::Datagram& d) { on_bank_datagram(b, d); });
    ZMAIL_ASSERT(h == bank_host(b));
  }

  // Hardened mode: the inter-bank plane leaves the synchronous loopback
  // and becomes real datagrams between bank hosts.  Strictly additive —
  // with store and retry both off nothing below runs, so legacy callers
  // stay bit-identical.
  hardened_ = params_.store.enabled || params_.retry.enabled;
  if (hardened_) {
    fed_->set_interbank_sink([this](std::size_t from, std::size_t to,
                                    std::uint8_t kind, crypto::Bytes wire) {
      net_.send(bank_host(from), bank_host(to), fed_msg_type(kind),
                std::move(wire));
    });
  }

  if (params_.store.enabled) {
    std::string err;
    ZMAIL_ASSERT_MSG(store::ensure_dir(params_.store.dir, &err), err.c_str());
    stores_.resize(n_banks_);
    checkpointed_seq_.assign(n_banks_, 0);
    for (std::size_t b = 0; b < n_banks_; ++b) open_store(b);
    if (params_.store.checkpoint_interval_us > 0) {
      sim_.schedule_every(
          static_cast<sim::Duration>(params_.store.checkpoint_interval_us),
          [this] {
            checkpoint_all();
            return true;
          });
    }
  }

  if (params_.retry.enabled) {
    sim::Duration poll = params_.retry.base / 2;
    if (poll < 100 * sim::kMillisecond) poll = 100 * sim::kMillisecond;
    sim_.schedule_every(poll, [this] {
      poll_fault_recovery();
      return true;
    });
  }
}

SendOutcome FederatedZmailSystem::send_email(const net::EmailAddress& from,
                                             const net::EmailAddress& to,
                                             std::string subject,
                                             std::string body) {
  std::size_t fi = 0, fu = 0, ti = 0, tu = 0;
  ZMAIL_ASSERT(net::decode_user_address(from, fi, fu) &&
               net::decode_user_address(to, ti, tu));
  const SendResult r = isps_.at(fi)->user_send(fu, ti, tu,
                                               net::make_email(from, to,
                                                               std::move(subject),
                                                               std::move(body)));
  pump_isp(fi);
  return SendOutcome::from(r);
}

TradeOutcome FederatedZmailSystem::buy_epennies(const net::EmailAddress& user,
                                                EPenny n) {
  std::size_t i = 0, u = 0;
  if (!net::decode_user_address(user, i, u) || i >= params_.n_isps ||
      u >= params_.users_per_isp)
    return TradeOutcome{TradeResult::kBadAddress};
  const bool ok = isps_.at(i)->user_buy(u, n);
  pump_isp(i);
  return TradeOutcome{ok ? TradeResult::kAccepted : TradeResult::kRefused};
}

TradeOutcome FederatedZmailSystem::sell_epennies(const net::EmailAddress& user,
                                                 EPenny n) {
  std::size_t i = 0, u = 0;
  if (!net::decode_user_address(user, i, u) || i >= params_.n_isps ||
      u >= params_.users_per_isp)
    return TradeOutcome{TradeResult::kBadAddress};
  const bool ok = isps_.at(i)->user_sell(u, n);
  pump_isp(i);
  return TradeOutcome{ok ? TradeResult::kAccepted : TradeResult::kRefused};
}

void FederatedZmailSystem::enable_bank_trading(sim::Duration poll) {
  sim_.schedule_every(poll, [this] {
    for (std::size_t i = 0; i < isps_.size(); ++i) {
      isps_[i]->maybe_trade_with_bank(sim_.now());
      pump_isp(i);
    }
    return true;
  });
}

void FederatedZmailSystem::start_snapshot() {
  if (!hardened_) {
    auto requests = fed_->start_snapshot();
    if (requests.empty()) return;
    const sim::SimTime deadline = sim_.now() + kQuiesceWindow;
    for (auto& [isp_index, wire] : requests) {
      net_.send(bank_host(fed_->home_bank(isp_index)), isp_index, kMsgRequest,
                std::move(wire));
      sim_.schedule_at(deadline, [this, i = isp_index] {
        if (isps_[i]->in_quiesce()) {
          isps_[i]->on_quiesce_timeout();
          pump_isp(i);
        }
      });
    }
    return;
  }
  // Hardened: a round still in flight blocks a new one, and banks that are
  // down right now simply sit this round out — the recovery poll re-enrols
  // them (same seq) once they come back, and their peers' column wires
  // retransmit until then.
  if (fed_->round_open()) return;
  std::vector<std::pair<std::size_t, crypto::Bytes>> requests;
  for (std::size_t b = 0; b < n_banks_; ++b) {
    if (bank_down(b)) continue;
    auto r = fed_->start_snapshot_for(b);
    for (auto& rw : r) requests.emplace_back(std::move(rw));
  }
  if (requests.empty()) return;
  const sim::SimTime deadline = sim_.now() + kQuiesceWindow;
  snapshot_deadline_ = deadline;
  send_requests(std::move(requests), deadline);
}

void FederatedZmailSystem::enable_periodic_snapshots(sim::Duration period) {
  sim_.schedule_every(period, [this] {
    start_snapshot();
    return true;
  });
}

void FederatedZmailSystem::enable_telemetry(
    const telemetry::TelemetryConfig& cfg) {
  ZMAIL_ASSERT_MSG(!telemetry_, "telemetry already enabled");
  telemetry_ = std::make_unique<telemetry::TelemetryRegistry>(cfg);
  telemetry::TelemetryRegistry& t = *telemetry_;

  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    const std::string tag = "isp" + std::to_string(i);
    detail::register_isp_telemetry(
        t, tag, [this, i]() -> const Isp& { return *isps_[i]; });
  }

  // Federation-wide supply, named like the central bank's so the derived
  // conservation-gap series finds it in either topology.
  t.add_gauge("econ", "bank.epenny_supply", [this] {
    const FederationMetrics m = fed_->metrics();
    return static_cast<double>(m.epennies_minted - m.epennies_burned);
  });
  t.add_rate("econ", "fed.rounds", [this] {
    return static_cast<double>(fed_->metrics().rounds_completed);
  });
  t.add_rate("econ", "fed.clearing_transfers", [this] {
    return static_cast<double>(fed_->metrics().clearing_transfers);
  });
  t.add_rate("econ", "fed.violations", [this] {
    return static_cast<double>(fed_->metrics().violations_found);
  });
  t.add_rate("net", "fed.interbank_msgs", [this] {
    return static_cast<double>(fed_->metrics().interbank_messages);
  });
  t.add_rate("net", "fed.interbank_retries", [this] {
    return static_cast<double>(fed_->metrics().interbank_retries);
  });

  for (std::size_t b = 0; b < n_banks_; ++b) {
    const std::string tag = "bank" + std::to_string(b);
    t.add_gauge("econ", tag + ".clearing_position_micros", [this, b] {
      return static_cast<double>(fed_->clearing_position(b).micros());
    });
    if (const store::Checkpointer* cp = host_store(bank_host(b)))
      detail::register_store_telemetry(t, tag, cp);
  }

  // engine — this facade is single-process; the engine series keep the
  // shard0 naming so zmail_top's panels work unchanged.
  t.add_engine_gauge("sim", "shard0.event_backlog", [this] {
    return static_cast<double>(sim_.pending());
  });
  t.add_engine_rate("sim", "shard0.events", [this] {
    return static_cast<double>(sim_.events_executed());
  });
  t.add_engine_rate("net", "shard0.datagrams", [this] {
    return static_cast<double>(net_.datagrams_sent());
  });
  t.add_engine_rate("net", "shard0.bytes", [this] {
    return static_cast<double>(net_.bytes_sent());
  });

  sim_.schedule_every(telemetry_->config().sample_period, [this] {
    telemetry_->sample(sim_.now());
    return true;
  });
}

void FederatedZmailSystem::send_requests(
    std::vector<std::pair<std::size_t, crypto::Bytes>> requests,
    sim::SimTime deadline) {
  for (auto& [isp_index, wire] : requests) {
    net_.send(bank_host(fed_->home_bank(isp_index)), isp_index, kMsgRequest,
              std::move(wire));
    sim_.schedule_at(deadline, [this, i = isp_index] {
      if (isps_[i]->in_quiesce()) {
        isps_[i]->on_quiesce_timeout(sim_.now());
        pump_isp(i);
      }
    });
  }
}

bool FederatedZmailSystem::bank_down(std::size_t bank) const {
  return faults_ != nullptr &&
         faults_->down_until(sim_.now(), bank_host(bank)) > sim_.now();
}

void FederatedZmailSystem::poll_fault_recovery() {
  const sim::SimTime now = sim_.now();
  for (std::size_t i = 0; i < isps_.size(); ++i) {
    isps_[i]->poll_retries(now);
    pump_isp(i);
  }
  // Retransmit unacked inter-bank wires whose backoff expired.
  for (std::size_t b = 0; b < n_banks_; ++b) {
    if (bank_down(b)) continue;
    fed_->poll_interbank(b, now);
    maybe_checkpoint(b);
  }
  if (!fed_->round_open()) return;
  // A recovered bank that missed the round opening (crashed across
  // start_snapshot, or WAL-lost its kStartRound) rejoins at the same seq;
  // its peers have been waiting on its columns all along.
  for (std::size_t b = 0; b < n_banks_; ++b) {
    if (bank_down(b) || fed_->round_open(b)) continue;
    if (fed_->seq(b) != fed_->seq()) continue;
    auto requests = fed_->start_snapshot_for(b);
    if (requests.empty()) continue;
    const sim::SimTime deadline = now + kQuiesceWindow;
    if (deadline > snapshot_deadline_) snapshot_deadline_ = deadline;
    send_requests(std::move(requests), deadline);
  }
  // Banks whose gather is still open past the deadline lost requests or
  // reports in transit: re-request every silent member and push the
  // deadline out a full window so re-requests back off.
  if (now < snapshot_deadline_) return;
  std::vector<std::pair<std::size_t, crypto::Bytes>> requests;
  for (std::size_t b = 0; b < n_banks_; ++b) {
    if (bank_down(b) || !fed_->round_open(b)) continue;
    auto r = fed_->resend_requests(b);
    for (auto& rw : r) requests.emplace_back(std::move(rw));
  }
  if (requests.empty()) return;
  const sim::SimTime deadline = now + kQuiesceWindow;
  snapshot_deadline_ = deadline;
  send_requests(std::move(requests), deadline);
}

// --- Faults & the durable store ---------------------------------------------

void FederatedZmailSystem::attach_faults(net::FaultInjector* injector) {
  faults_ = injector;
  net_.attach_faults(injector);
  if (!injector || stores_.empty()) return;
  // With the durable store on, each planned bank outage is a real crash:
  // the bank restarts with wiped memory and recovers from snapshot + WAL.
  for (const net::HostOutage& o : injector->plan().outages) {
    if (o.host < params_.n_isps) continue;  // ISPs keep in-memory state here
    const std::size_t b = o.host - params_.n_isps;
    if (b >= stores_.size() || !stores_[b]) continue;
    sim_.schedule_at(o.until, [this, h = o.host] { recover_host(h); });
  }
}

void FederatedZmailSystem::open_store(std::size_t bank) {
  auto cp = std::make_unique<store::Checkpointer>();
  std::string err;
  const std::string party = "bank" + std::to_string(bank);
  ZMAIL_ASSERT_MSG(cp->open(params_.store, party, &err), err.c_str());
  stores_[bank] = std::move(cp);
  // Recover-at-open: reopening an existing store directory resumes the
  // persisted shard; on a fresh directory neither callback fires.
  rebuild_from_store(bank);
}

void FederatedZmailSystem::maybe_checkpoint(std::size_t bank) {
  if (stores_.empty() || !params_.store.checkpoint_at_snapshot) return;
  // One checkpoint per closed round per bank (the round close is the
  // consistent cut worth persisting; mid-gather state rides in the WAL).
  if (fed_->round_open(bank)) return;
  if (fed_->seq(bank) <= checkpointed_seq_[bank]) return;
  checkpoint_host(bank_host(bank));
}

void FederatedZmailSystem::checkpoint_host(std::size_t host) {
  const std::size_t b = host - params_.n_isps;
  if (host < params_.n_isps || b >= stores_.size() || !stores_[b]) return;
  if (trace::enabled()) trace::set_sim_now(sim_.now());
  trace::SpanScope ckpt_span(trace::Ev::kCheckpoint, 0,
                             static_cast<std::uint16_t>(host));
  std::string err;
  const auto sim_us = static_cast<std::uint64_t>(sim_.now());
  ZMAIL_ASSERT_MSG(
      stores_[b]->checkpoint(fed_->serialize_state(b), sim_us, &err),
      err.c_str());
  checkpointed_seq_[b] = fed_->seq(b);
  ckpt_span.set_end_arg0(stores_[b]->stats().last_snapshot_bytes);
}

void FederatedZmailSystem::checkpoint_all() {
  for (std::size_t b = 0; b < stores_.size(); ++b)
    if (stores_[b]) checkpoint_host(bank_host(b));
}

void FederatedZmailSystem::crash_host(std::size_t host,
                                      sim::Duration down_for) {
  ZMAIL_ASSERT_MSG(!stores_.empty(), "crash_host requires params.store.enabled");
  ZMAIL_ASSERT_MSG(host >= params_.n_isps &&
                       host - params_.n_isps < stores_.size() &&
                       stores_[host - params_.n_isps] != nullptr,
                   "only bank hosts are durable in the federated facade");
  if (!faults_) {
    // An outage-only injector: empty rates draw no RNG per datagram, so
    // attaching it perturbs nothing but the crashed host's traffic.
    crash_faults_ = std::make_unique<net::FaultInjector>(net::FaultPlan{},
                                                         seed_ ^ 0xC4A5ULL);
    faults_ = crash_faults_.get();
    net_.attach_faults(faults_);
  }
  faults_->add_outage({host, sim_.now(), sim_.now() + down_for});
  sim_.schedule_at(sim_.now() + down_for,
                   [this, host] { recover_host(host); });
}

void FederatedZmailSystem::recover_host(std::size_t host) {
  const std::size_t b = host - params_.n_isps;
  ZMAIL_ASSERT(host >= params_.n_isps && b < stores_.size() &&
               stores_[b] != nullptr);
  // Process death first: whatever the WAL buffered but never synced is
  // gone (empty under the default group_commit_records = 1).
  stores_[b]->simulate_crash();
  rebuild_from_store(b);
  ++state_recoveries_;
  if (faults_) faults_->note_state_recovery();
}

void FederatedZmailSystem::rebuild_from_store(std::size_t bank) {
  store::Checkpointer* cp = stores_[bank].get();
  store::RecoveryStats rs;
  std::string err;
  if (trace::enabled()) trace::set_sim_now(sim_.now());
  // Span first, guard second: the guard's destructor runs before the
  // span's, so the kRecovery end still emits.  While the guard lives, WAL
  // replay can neither mint ids nor emit.
  trace::SpanScope recovery_span(trace::Ev::kRecovery, 0,
                                 static_cast<std::uint16_t>(bank_host(bank)));
  trace::ReplayGuard replay_guard;
  fed_->reset_bank(bank);
  const bool ok = cp->recover(
      [this, bank](const crypto::Bytes& s) {
        ZMAIL_ASSERT(fed_->restore_state(bank, s));
      },
      [this, bank](std::uint8_t t, const crypto::Bytes& p) {
        fed_->apply_wal_record(bank, t, p);
      },
      &rs, &err);
  ZMAIL_ASSERT_MSG(ok, err.c_str());
  fed_->attach_wal(bank, &cp->wal());
  recovery_span.set_end_arg0(rs.wal_records_replayed);
}

FederatedZmailSystem::StoreTotals FederatedZmailSystem::store_totals() const {
  StoreTotals t;
  for (const auto& cp : stores_) {
    if (!cp) continue;
    const store::Checkpointer::Stats& cs = cp->stats();
    t.checkpoints += cs.checkpoints;
    t.snapshot_bytes += cs.last_snapshot_bytes;
    t.wal_records_truncated += cs.wal_records_truncated;
    const store::WalWriter::Stats& ws = cp->wal().stats();
    t.wal_records_appended += ws.records_appended;
    t.wal_bytes_appended += ws.bytes_appended;
    t.wal_syncs += ws.syncs;
    t.wal_fsyncs += ws.fsyncs;
  }
  return t;
}

void FederatedZmailSystem::run_for(sim::Duration d) {
  sim_.run(sim_.now() + d);
}

void FederatedZmailSystem::pump_isp(std::size_t i) {
  for (Outbound& o : isps_[i]->take_outbox()) {
    if (o.dest == Outbound::Dest::kBank) {
      net_.send(i, bank_host(fed_->home_bank(i)), std::move(o.type),
                std::move(o.payload));
      continue;
    }
    if (o.type == kMsgEmail) in_flight_paid_ += 1;
    net_.send(i, o.isp_index, std::move(o.type), std::move(o.payload));
  }
}

void FederatedZmailSystem::on_isp_datagram(std::size_t isp_index,
                                           const net::Datagram& d) {
  Isp& isp = *isps_.at(isp_index);
  if (d.type == kMsgEmail) {
    in_flight_paid_ -= 1;
    isp.on_email(d.from, d.payload);
  } else if (d.type == kMsgBuyReply) {
    isp.on_buyreply(d.payload);
  } else if (d.type == kMsgSellReply) {
    isp.on_sellreply(d.payload);
  } else if (d.type == kMsgRequest) {
    isp.on_request(d.payload);
  }
  pump_isp(isp_index);
}

void FederatedZmailSystem::on_bank_datagram(std::size_t bank_index,
                                            const net::Datagram& d) {
  const std::size_t g = d.from;
  if (g >= params_.n_isps) {
    // Inter-bank plane (hardened mode only: loopback wires never touch
    // the network).
    const std::size_t from_bank = g - params_.n_isps;
    const std::uint8_t kind = fed_msg_kind(d.type);
    if (kind != 0 && from_bank < n_banks_) {
      fed_->on_interbank(bank_index, from_bank, kind, d.payload);
      maybe_checkpoint(bank_index);
    }
    return;
  }
  ZMAIL_ASSERT_MSG(fed_->home_bank(g) == bank_index,
                   "ISP contacted a foreign bank");
  if (d.type == kMsgBuy) {
    crypto::Bytes reply = fed_->on_buy(g, d.payload);
    if (!reply.empty())
      net_.send(bank_host(bank_index), g, kMsgBuyReply, std::move(reply));
  } else if (d.type == kMsgSell) {
    crypto::Bytes reply = fed_->on_sell(g, d.payload);
    if (!reply.empty())
      net_.send(bank_host(bank_index), g, kMsgSellReply, std::move(reply));
  } else if (d.type == kMsgReply) {
    fed_->on_reply(g, d.payload);
    maybe_checkpoint(bank_index);
  }
}

std::uint64_t FederatedZmailSystem::bank_host_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < n_banks_; ++b)
    total += net_.bytes_sent_to(bank_host(b));
  return total;
}

IspMetrics FederatedZmailSystem::total_isp_metrics() const {
  IspMetrics total;
  for (const auto& isp : isps_) total.merge(isp->metrics());
  return total;
}

EPenny FederatedZmailSystem::total_epennies() const {
  EPenny total = in_flight_paid_;
  for (const auto& isp : isps_)
    total += isp->epennies_held() + isp->buffered_paid();
  return total;
}

Money FederatedZmailSystem::total_real_money() const {
  Money total = Money::zero();
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    total += fed_->isp_account(i);
    total += isps_[i]->till() + isps_[i]->users().account_total();
  }
  return total;
}

EPenny FederatedZmailSystem::initial_endowment() const {
  return static_cast<EPenny>(params_.n_isps) *
         (params_.initial_avail +
          static_cast<EPenny>(params_.users_per_isp) *
              params_.initial_user_balance);
}

bool FederatedZmailSystem::conservation_holds() const {
  const EPenny outstanding = fed_->metrics().epennies_minted -
                             fed_->metrics().epennies_burned;
  return running_totals_agree(isps_) &&
         total_epennies() == initial_endowment() + outstanding;
}

}  // namespace zmail::core
