// FederatedZmailSystem — the timed, end-to-end rendition of the Section 5
// collaborating-banks extension.
//
// Like ZmailSystem, but the central bank is replaced by a BankFederation
// whose k banks run on separate network hosts: each ISP talks (buy/sell/
// snapshot) only to its home bank over the latency-modelled network, and
// the banks' column exchange is accounted as real inter-host traffic.
// All ISPs are compliant in this facade — the mixed-deployment machinery
// lives in ZmailSystem; this one isolates the federation topology.
//
// Hardened mode (params.store.enabled || params.retry.enabled) upgrades the
// federation from the synchronous loopback inter-bank plane to sealed
// datagrams between bank hosts, gives every bank its own WAL + checkpoint
// pair (party "bank<b>" under params.store.dir), and arms the fault-
// recovery poll.  With a net::FaultPlan attached, any bank can be crashed
// mid-round and rebuilds from snapshot + WAL replay; unacked inter-bank
// wires retransmit with RetryPolicy backoff until the round closes.  The
// default (store and retry both off) schedules no extra events and stays
// bit-identical to the pre-hardening facade.
#pragma once

#include <memory>
#include <vector>

#include "core/federation.hpp"
#include "core/isp.hpp"
#include "core/system.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "store/checkpoint.hpp"

namespace zmail::core {

// Protocol outcome of a facade-initiated bank trade.  Converts to bool so
// `if (sys.buy_epennies(...))` call sites keep compiling, while retry and
// refund paths can tell a malformed address from an economic refusal.
enum class TradeResult : std::uint8_t {
  kAccepted = 0,    // local books updated (bank settlement may still be
                    // in flight behind the avail pool)
  kBadAddress = 1,  // address didn't decode to an in-range compliant user
  kRefused = 2,     // insufficient account / avail pool (refunded: no
                    // money moved)
};

struct TradeOutcome {
  TradeResult result = TradeResult::kAccepted;
  bool ok() const noexcept { return result == TradeResult::kAccepted; }
  constexpr explicit operator bool() const noexcept {
    return result == TradeResult::kAccepted;
  }
};

class FederatedZmailSystem {
 public:
  FederatedZmailSystem(ZmailParams params, std::size_t n_banks,
                       std::uint64_t seed = 42);

  SendOutcome send_email(const net::EmailAddress& from,
                         const net::EmailAddress& to, std::string subject,
                         std::string body);

  TradeOutcome buy_epennies(const net::EmailAddress& user, EPenny n);
  TradeOutcome sell_epennies(const net::EmailAddress& user, EPenny n);
  void enable_bank_trading(sim::Duration poll = 5 * sim::kMinute);
  void start_snapshot();
  void enable_periodic_snapshots(sim::Duration period);
  // Telemetry: one registry for the whole federation — per-ISP econ/core
  // series (same names as ZmailSystem's), per-bank clearing positions and
  // WAL backlogs, federation-wide supply/round/violation series.  Read-only
  // sampling, off by default; see src/telemetry.
  void enable_telemetry(const telemetry::TelemetryConfig& cfg);
  telemetry::TelemetryRegistry* telemetry() noexcept {
    return telemetry_.get();
  }
  const telemetry::TelemetryRegistry* telemetry() const noexcept {
    return telemetry_.get();
  }
  void run_for(sim::Duration d);
  sim::SimTime now() const { return sim_.now(); }

  const ZmailParams& params() const noexcept { return params_; }
  std::size_t bank_count() const noexcept { return n_banks_; }
  Isp& isp(IspId i) { return *isps_.at(i.index()); }
  const Isp& isp(IspId i) const { return *isps_.at(i.index()); }
  BankFederation& federation() noexcept { return *fed_; }
  const BankFederation& federation() const noexcept { return *fed_; }
  net::Network& network() noexcept { return net_; }
  const net::Network& network() const noexcept { return net_; }
  sim::Simulator& simulator() noexcept { return sim_; }
  const sim::Simulator& simulator() const noexcept { return sim_; }

  // Network host id of bank b (banks live after the ISPs).
  net::HostId bank_host(std::size_t bank_index) const {
    return params_.n_isps + bank_index;
  }

  // Network bytes that arrived at bank hosts (ISP->bank protocol traffic).
  std::uint64_t bank_host_bytes() const;

  IspMetrics total_isp_metrics() const;

  EPenny total_epennies() const;
  Money total_real_money() const;
  bool conservation_holds() const;
  // World-wide initial e-penny endowment (every ISP is compliant here); the
  // conservation baseline telemetry's derived gap series subtracts from.
  EPenny initial_endowment() const;

  // --- Faults & the durable store -----------------------------------------
  // Attaches a fault plan to the network.  With the store enabled, every
  // planned HostOutage of a bank host becomes a real crash: at the
  // window's end the bank's in-memory shard is wiped and rebuilt from its
  // snapshot + WAL tail.
  void attach_faults(net::FaultInjector* injector);
  // Crashes bank host `host` for `down_for` (requires store.enabled): the
  // network isolates it, and at restart the bank rebuilds from disk.
  void crash_host(std::size_t host, sim::Duration down_for);
  void recover_host(std::size_t host);
  void checkpoint_host(std::size_t host);
  void checkpoint_all();
  store::Checkpointer* host_store(std::size_t host) noexcept {
    const std::size_t b = host - params_.n_isps;
    return host >= params_.n_isps && b < stores_.size() ? stores_[b].get()
                                                        : nullptr;
  }
  std::uint64_t state_recoveries() const noexcept { return state_recoveries_; }
  using StoreTotals = ZmailSystem::StoreTotals;
  StoreTotals store_totals() const;

 private:
  void on_isp_datagram(std::size_t isp_index, const net::Datagram& d);
  void on_bank_datagram(std::size_t bank_index, const net::Datagram& d);
  void pump_isp(std::size_t i);
  void open_store(std::size_t bank);
  void rebuild_from_store(std::size_t bank);
  void maybe_checkpoint(std::size_t bank);
  void poll_fault_recovery();
  bool bank_down(std::size_t bank) const;
  void send_requests(
      std::vector<std::pair<std::size_t, crypto::Bytes>> requests,
      sim::SimTime deadline);

  ZmailParams params_;
  std::size_t n_banks_;
  Rng rng_;
  std::uint64_t seed_;
  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<BankFederation> fed_;
  std::vector<std::unique_ptr<Isp>> isps_;
  EPenny in_flight_paid_ = 0;
  std::unique_ptr<telemetry::TelemetryRegistry> telemetry_;

  bool hardened_ = false;
  std::vector<std::unique_ptr<store::Checkpointer>> stores_;  // per bank
  std::vector<std::uint64_t> checkpointed_seq_;               // per bank
  net::FaultInjector* faults_ = nullptr;
  std::unique_ptr<net::FaultInjector> crash_faults_;
  std::uint64_t state_recoveries_ = 0;
  sim::SimTime snapshot_deadline_ = 0;
};

}  // namespace zmail::core
