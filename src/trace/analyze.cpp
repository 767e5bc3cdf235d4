#include "trace/analyze.hpp"

#include <algorithm>
#include <cstdio>

namespace zmail::trace {

namespace {

bool is_terminal(Ev e) noexcept {
  switch (e) {
    case Ev::kDeliver:
    case Ev::kDiscard:
    case Ev::kFilterDrop:
    case Ev::kRefuse:
    case Ev::kShed:
    case Ev::kRefund:
    case Ev::kReject:
      return true;
    default:
      return false;
  }
}

std::string span_label(const Span& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s span id=0x%llx host=%u @%lldus",
                ev_name(s.type), static_cast<unsigned long long>(s.id),
                static_cast<unsigned>(s.begin_host),
                static_cast<long long>(s.begin_us));
  return buf;
}

}  // namespace

std::vector<Span> build_spans(const std::vector<TraceEvent>& events) {
  std::vector<Span> spans;
  // Open-span stacks keyed by (id or host, type).  The uint64 key packs the
  // discriminator in the top bit: traced spans key on id, host-scoped spans
  // (id == 0) key on host so concurrent checkpoints on different hosts
  // cannot cross-match.
  std::map<std::pair<std::uint64_t, std::uint8_t>, std::vector<std::size_t>>
      open;
  const auto key = [](const TraceEvent& ev) {
    const std::uint64_t k =
        ev.id != 0 ? ev.id
                   : (std::uint64_t{1} << 63) | static_cast<std::uint64_t>(
                                                    ev.host);
    return std::make_pair(k, ev.type);
  };
  for (const auto& ev : events) {
    const auto phase = static_cast<Phase>(ev.phase);
    if (phase == Phase::kBegin) {
      Span s;
      s.id = ev.id;
      s.type = static_cast<Ev>(ev.type);
      s.begin_host = ev.host;
      s.begin_us = ev.sim_us;
      s.begin_arg0 = ev.arg0;
      s.begin_wall_ns = ev.wall_ns;
      s.begin_seq = ev.seq;
      open[key(ev)].push_back(spans.size());
      spans.push_back(s);
    } else if (phase == Phase::kEnd) {
      auto it = open.find(key(ev));
      if (it == open.end() || it->second.empty()) continue;  // orphan end
      Span& s = spans[it->second.back()];
      it->second.pop_back();
      s.end_host = ev.host;
      s.end_us = ev.sim_us;
      s.end_arg0 = ev.arg0;
      s.end_wall_ns = ev.wall_ns;
      s.closed = true;
    }
  }
  return spans;
}

std::map<TraceId, Chain> build_chains(const std::vector<TraceEvent>& events) {
  std::map<TraceId, Chain> chains;
  for (const auto& ev : events) {
    if (ev.id == 0) continue;
    Chain& c = chains[ev.id];
    c.id = ev.id;
    c.events.push_back(ev);
    const auto type = static_cast<Ev>(ev.type);
    const auto phase = static_cast<Phase>(ev.phase);
    if (type == Ev::kMessage && phase == Phase::kBegin) c.has_root = true;
    if (type == Ev::kMessage && phase == Phase::kEnd) c.root_closed = true;
    if (type == Ev::kTransmit) ++c.transmits;
    if (is_terminal(type)) c.terminal = type;
  }
  for (auto& [id, c] : chains) {
    (void)id;
    std::sort(c.events.begin(), c.events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.seq < b.seq;
              });
    if (!c.root_closed && c.terminal == Ev::kNone && !c.events.empty())
      c.lost = static_cast<Ev>(c.events.back().type) == Ev::kNetDrop;
  }
  return chains;
}

ValidationResult validate(const std::vector<TraceEvent>& events) {
  ValidationResult r;
  const std::vector<Span> spans = build_spans(events);
  const std::map<TraceId, Chain> chains = build_chains(events);
  r.spans_total = spans.size();
  r.chains_total = chains.size();

  // Recovery begins, for the crash-forgives rule: an open span is excused
  // when its host later rebuilt from the store (the in-flight exchange it
  // tracked died with the pre-crash state).
  struct Rec {
    std::uint16_t host;
    std::int64_t at_us;
  };
  std::vector<Rec> recoveries;
  for (const auto& ev : events)
    if (static_cast<Ev>(ev.type) == Ev::kRecovery &&
        static_cast<Phase>(ev.phase) == Phase::kBegin)
      recoveries.push_back({ev.host, ev.sim_us});
  const auto crash_forgiven = [&](const Span& s) {
    for (const auto& rec : recoveries)
      if (rec.host == s.begin_host && rec.at_us >= s.begin_us) return true;
    return false;
  };

  for (const auto& s : spans) {
    if (s.closed) {
      ++r.spans_closed;
      if (s.end_us < s.begin_us) {
        r.ok = false;
        r.problems.push_back(span_label(s) + ": end precedes begin");
      }
      continue;
    }
    const auto chain_it = chains.find(s.id);
    const bool lost =
        s.id != 0 && chain_it != chains.end() && chain_it->second.lost;
    if (crash_forgiven(s) || lost) {
      ++r.spans_forgiven;
      continue;
    }
    r.ok = false;
    r.problems.push_back(span_label(s) + ": never closed");
  }

  // Child ⊆ parent, and single-mint per id.
  for (const auto& [id, c] : chains) {
    if (c.terminal != Ev::kNone) ++r.chains_terminal;
    std::size_t root_begins = 0;
    std::int64_t root_begin_us = 0, root_end_us = 0;
    bool have_interval = false;
    for (const auto& ev : c.events) {
      if (static_cast<Ev>(ev.type) != Ev::kMessage) continue;
      if (static_cast<Phase>(ev.phase) == Phase::kBegin) {
        ++root_begins;
        root_begin_us = ev.sim_us;
      } else if (static_cast<Phase>(ev.phase) == Phase::kEnd) {
        root_end_us = ev.sim_us;
        have_interval = true;
      }
    }
    if (c.has_root && root_begins != 1) {
      r.ok = false;
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "id=0x%llx: %zu root begins (crash replay re-minted?)",
                    static_cast<unsigned long long>(id), root_begins);
      r.problems.push_back(buf);
    }
    if (!have_interval || root_begins != 1) continue;
    // Transport-layer tail traffic (the receiver's ack datagram and its
    // retransmits) legitimately lands after kDeliver closes the root, so
    // only payload-level events are held to the upper bound.
    const auto trailing_ok = [](Ev t) {
      switch (t) {
        case Ev::kNetSend:
        case Ev::kNetDeliver:
        case Ev::kNetDrop:
        case Ev::kTransmit:
        case Ev::kTransit:
        case Ev::kAck:
        case Ev::kDuplicateDrop:
          return true;
        default:
          return false;
      }
    };
    for (const auto& ev : c.events) {
      if (ev.sim_us < root_begin_us ||
          (ev.sim_us > root_end_us &&
           !trailing_ok(static_cast<Ev>(ev.type)))) {
        r.ok = false;
        char buf[128];
        std::snprintf(
            buf, sizeof(buf),
            "id=0x%llx: %s @%lldus outside root interval [%lld, %lld]us",
            static_cast<unsigned long long>(id),
            ev_name(static_cast<Ev>(ev.type)),
            static_cast<long long>(ev.sim_us),
            static_cast<long long>(root_begin_us),
            static_cast<long long>(root_end_us));
        r.problems.push_back(buf);
        break;  // one report per chain is enough
      }
    }
  }
  return r;
}

std::map<std::string, StageStats> breakdown(
    const std::vector<TraceEvent>& events) {
  std::map<std::string, StageStats> out;
  const auto stage_of = [](Ev e) -> const char* {
    switch (e) {
      case Ev::kMessage: return "message";
      case Ev::kBankBuy: return "stamp_buy";
      case Ev::kBankSell: return "stamp_sell";
      case Ev::kTransit: return "transit";
      case Ev::kSmtp: return "smtp";
      case Ev::kClassify: return "classify";
      case Ev::kQuiesceBuffer: return "quiesce_buffer";
      case Ev::kSnapshotRound: return "settle";
      case Ev::kCheckpoint: return "checkpoint";
      case Ev::kRecovery: return "recovery";
      default: return nullptr;
    }
  };
  for (const auto& s : build_spans(events)) {
    if (!s.closed) continue;
    const char* name = stage_of(s.type);
    if (name == nullptr) continue;
    StageStats& st = out[name];
    const std::int64_t d = s.duration_us();
    if (st.count == 0 || d < st.min_us) st.min_us = d;
    if (st.count == 0 || d > st.max_us) st.max_us = d;
    const std::uint64_t w = s.wall_duration_ns();
    if (st.count == 0 || w < st.wall_min_ns) st.wall_min_ns = w;
    if (st.count == 0 || w > st.wall_max_ns) st.wall_max_ns = w;
    ++st.count;
    st.total_us += d;
    st.wall_total_ns += w;
  }
  return out;
}

json::Value breakdown_to_json(const std::map<std::string, StageStats>& b) {
  json::Value out = json::Value::object();
  for (const auto& [name, st] : b) {
    json::Value s = json::Value::object();
    s["count"] = st.count;
    s["total_us"] = st.total_us;
    s["mean_us"] = st.mean_us();
    s["min_us"] = st.min_us;
    s["max_us"] = st.max_us;
    out[name] = std::move(s);
  }
  return out;
}

}  // namespace zmail::trace
