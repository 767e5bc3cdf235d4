// Durability half of the Bank state machine (see isp_persist.cpp for the
// pattern).  The bank's handlers are already idempotent against duplicated
// requests, which makes them doubly safe to replay; determinism again rests
// on the serialized RNG stream (reply sealing draws from it).
#include <bit>

#include "core/bank.hpp"
#include "store/wal.hpp"

namespace zmail::core {

namespace {

constexpr std::uint8_t kBankBlobVersion = 1;

void put_bool(crypto::Bytes& b, bool v) { crypto::put_u8(b, v ? 1 : 0); }
bool get_bool(crypto::ByteReader& r) { return r.get_u8() != 0; }

void put_rng(crypto::Bytes& b, const Rng& rng) {
  const Rng::State st = rng.save_state();
  for (std::uint64_t w : st.s) crypto::put_u64(b, w);
  crypto::put_u64(b, std::bit_cast<std::uint64_t>(st.cached_normal));
  put_bool(b, st.has_cached_normal);
}

void get_rng(crypto::ByteReader& r, Rng& rng) {
  Rng::State st;
  for (auto& w : st.s) w = r.get_u64();
  st.cached_normal = std::bit_cast<double>(r.get_u64());
  st.has_cached_normal = get_bool(r);
  rng.restore_state(st);
}

void put_matrix_i64(crypto::Bytes& b,
                    const std::vector<std::vector<EPenny>>& m) {
  crypto::put_u32(b, static_cast<std::uint32_t>(m.size()));
  for (const auto& row : m) {
    crypto::put_u32(b, static_cast<std::uint32_t>(row.size()));
    for (EPenny v : row) crypto::put_i64(b, v);
  }
}

bool get_matrix_i64(crypto::ByteReader& r,
                    std::vector<std::vector<EPenny>>& m) {
  const std::uint32_t rows = r.get_u32();
  if (!r.ok() || rows > (1u << 16)) return false;
  m.assign(rows, {});
  for (auto& row : m) {
    const std::uint32_t cols = r.get_u32();
    if (!r.ok() || cols > (1u << 16)) return false;
    row.assign(cols, 0);
    for (auto& v : row) v = r.get_i64();
  }
  return r.ok();
}

}  // namespace

void Bank::log_op(WalOp op, const crypto::Bytes& payload) {
  if (wal_) wal_->append(static_cast<std::uint8_t>(op), payload);
}

crypto::Bytes Bank::serialize_state() const {
  crypto::Bytes b;
  crypto::put_u8(b, kBankBlobVersion);

  crypto::put_u32(b, static_cast<std::uint32_t>(accounts_.size()));
  for (Money a : accounts_) crypto::put_i64(b, a.micros());

  for (const auto* ledger : {&buy_ledger_, &sell_ledger_}) {
    crypto::put_u32(b, static_cast<std::uint32_t>(ledger->size()));
    for (const TradeLedger& l : *ledger) {
      put_bool(b, l.any_applied);
      crypto::put_u64(b, l.applied_hi);
      crypto::put_nonce(b, l.last_nonce);
      crypto::put_bytes(b, l.last_reply);
    }
  }

  put_matrix_i64(b, verify_);
  put_matrix_i64(b, drift_);
  crypto::put_u32(b, static_cast<std::uint32_t>(drift_streak_.size()));
  for (const auto& row : drift_streak_) {
    crypto::put_u32(b, static_cast<std::uint32_t>(row.size()));
    for (std::uint32_t v : row) crypto::put_u32(b, v);
  }
  crypto::put_u64(b, persistent_drift_pairs_);

  crypto::put_u32(b, static_cast<std::uint32_t>(reported_.size()));
  for (bool v : reported_) put_bool(b, v);
  crypto::put_u64(b, seq_);
  crypto::put_u64(b, total_);
  put_bool(b, canrequest_);

  crypto::put_u32(b, static_cast<std::uint32_t>(last_violations_.size()));
  for (const CreditViolation& v : last_violations_) {
    crypto::put_u64(b, v.isp_i);
    crypto::put_u64(b, v.isp_j);
    crypto::put_i64(b, v.discrepancy);
  }

  const BankMetrics& m = metrics_;
  for (std::uint64_t v :
       {m.buys_received, m.buys_accepted, m.buys_rejected, m.sells_received,
        m.snapshot_rounds, m.credit_reports_received,
        m.inconsistent_pairs_found, m.bad_envelopes, m.stale_reports,
        m.duplicate_buys, m.duplicate_sells, m.stale_trades,
        m.snapshot_rerequests, m.settlement_transfers, m.settlement_bytes})
    crypto::put_u64(b, v);
  crypto::put_i64(b, m.epennies_minted);
  crypto::put_i64(b, m.epennies_burned);

  put_rng(b, rng_);
  return b;
}

bool Bank::restore_state(const crypto::Bytes& state) {
  crypto::ByteReader r(state);
  if (r.get_u8() != kBankBlobVersion) return false;

  const std::uint32_t n_acc = r.get_u32();
  if (!r.ok() || n_acc > (1u << 16)) return false;
  accounts_.assign(n_acc, Money{});
  for (auto& a : accounts_) a = Money::from_micros(r.get_i64());

  for (auto* ledger : {&buy_ledger_, &sell_ledger_}) {
    const std::uint32_t n = r.get_u32();
    if (!r.ok() || n > (1u << 16)) return false;
    ledger->assign(n, TradeLedger{});
    for (TradeLedger& l : *ledger) {
      l.any_applied = get_bool(r);
      l.applied_hi = r.get_u64();
      l.last_nonce = crypto::get_nonce(r);
      l.last_reply = r.get_bytes();
    }
  }

  if (!get_matrix_i64(r, verify_)) return false;
  if (!get_matrix_i64(r, drift_)) return false;
  const std::uint32_t streak_rows = r.get_u32();
  if (!r.ok() || streak_rows > (1u << 16)) return false;
  drift_streak_.assign(streak_rows, {});
  for (auto& row : drift_streak_) {
    const std::uint32_t cols = r.get_u32();
    if (!r.ok() || cols > (1u << 16)) return false;
    row.assign(cols, 0);
    for (auto& v : row) v = r.get_u32();
  }
  persistent_drift_pairs_ = r.get_u64();

  const std::uint32_t n_rep = r.get_u32();
  if (!r.ok() || n_rep > (1u << 16)) return false;
  reported_.assign(n_rep, false);
  for (std::uint32_t i = 0; i < n_rep; ++i) reported_[i] = get_bool(r);
  seq_ = r.get_u64();
  total_ = r.get_u64();
  canrequest_ = get_bool(r);

  const std::uint32_t n_vio = r.get_u32();
  if (!r.ok() || n_vio > (1u << 20)) return false;
  last_violations_.assign(n_vio, CreditViolation{});
  for (auto& v : last_violations_) {
    v.isp_i = r.get_u64();
    v.isp_j = r.get_u64();
    v.discrepancy = r.get_i64();
  }

  BankMetrics& m = metrics_;
  for (std::uint64_t* v :
       {&m.buys_received, &m.buys_accepted, &m.buys_rejected,
        &m.sells_received, &m.snapshot_rounds, &m.credit_reports_received,
        &m.inconsistent_pairs_found, &m.bad_envelopes, &m.stale_reports,
        &m.duplicate_buys, &m.duplicate_sells, &m.stale_trades,
        &m.snapshot_rerequests, &m.settlement_transfers, &m.settlement_bytes})
    *v = r.get_u64();
  m.epennies_minted = r.get_i64();
  m.epennies_burned = r.get_i64();

  get_rng(r, rng_);
  return r.ok() && r.at_end();
}

void Bank::apply_wal_record(std::uint8_t op, const crypto::Bytes& payload) {
  // Detach both the WAL sink (no re-logging) and the audit journal (those
  // events were recorded pre-crash; replay must not duplicate them).
  store::WalSink* saved_wal = wal_;
  AuditJournal* saved_journal = journal_;
  wal_ = nullptr;
  journal_ = nullptr;
  crypto::ByteReader r(payload);
  switch (static_cast<WalOp>(op)) {
    case WalOp::kOnBuy: {
      const std::size_t g = r.get_u64();
      const crypto::Bytes wire = r.get_bytes();
      if (r.ok()) on_buy(g, wire);
      break;
    }
    case WalOp::kOnSell: {
      const std::size_t g = r.get_u64();
      const crypto::Bytes wire = r.get_bytes();
      if (r.ok()) on_sell(g, wire);
      break;
    }
    case WalOp::kOnReply: {
      const std::size_t g = r.get_u64();
      const crypto::Bytes wire = r.get_bytes();
      if (r.ok()) on_reply(g, wire);
      break;
    }
    case WalOp::kStartSnapshot:
      start_snapshot();
      break;
    case WalOp::kResendRequests:
      resend_requests();
      break;
  }
  wal_ = saved_wal;
  journal_ = saved_journal;
}

}  // namespace zmail::core
