#include "core/scenario.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>

namespace zmail::core {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

// "key=value" -> value for matching key.
std::optional<std::string> kv(const std::vector<std::string>& args,
                              const std::string& key) {
  const std::string prefix = key + "=";
  for (const auto& a : args)
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  return std::nullopt;
}

std::optional<std::int64_t> to_int(const std::string& s) {
  if (s.empty()) return std::nullopt;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(s, &pos);
    if (pos != s.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<std::pair<std::size_t, std::size_t>> parse_user_ref(
    const std::string& token) {
  if (token.find('@') != std::string::npos) {
    const auto addr = net::parse_address(token);
    if (!addr) return std::nullopt;
    std::size_t isp = 0, user = 0;
    if (!net::decode_user_address(*addr, isp, user)) return std::nullopt;
    return std::make_pair(isp, user);
  }
  const std::size_t dot = token.find('.');
  if (dot == std::string::npos) return std::nullopt;
  const auto isp = to_int(token.substr(0, dot));
  const auto user = to_int(token.substr(dot + 1));
  if (!isp || !user || *isp < 0 || *user < 0) return std::nullopt;
  return std::make_pair(static_cast<std::size_t>(*isp),
                        static_cast<std::size_t>(*user));
}

std::optional<sim::Duration> parse_duration(const std::string& token) {
  if (token.size() < 2) return std::nullopt;
  const char suffix = token.back();
  const auto value = to_int(token.substr(0, token.size() - 1));
  if (!value || *value < 0) return std::nullopt;
  switch (suffix) {
    case 's': return *value * sim::kSecond;
    case 'm': return *value * sim::kMinute;
    case 'h': return *value * sim::kHour;
    case 'd': return *value * sim::kDay;
    default: return std::nullopt;
  }
}

std::optional<Scenario> Scenario::parse(const std::string& text,
                                        ScenarioError* error) {
  auto fail = [&](std::size_t line, const std::string& msg) {
    if (error) *error = ScenarioError{line, msg};
    return std::nullopt;
  };

  Scenario s;
  bool world_seen = false;
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::vector<std::string> toks = split_ws(raw);
    if (toks.empty()) continue;

    if (toks[0] == "world") {
      if (world_seen) return fail(lineno, "duplicate world line");
      world_seen = true;
      const std::vector<std::string> args(toks.begin() + 1, toks.end());
      if (const auto v = kv(args, "isps"); v && to_int(*v))
        s.params_.n_isps = static_cast<std::size_t>(*to_int(*v));
      if (const auto v = kv(args, "users"); v && to_int(*v))
        s.params_.users_per_isp = static_cast<std::size_t>(*to_int(*v));
      if (const auto v = kv(args, "balance"); v && to_int(*v))
        s.params_.initial_user_balance = *to_int(*v);
      if (const auto v = kv(args, "limit"); v && to_int(*v))
        s.params_.default_daily_limit = *to_int(*v);
      if (const auto v = kv(args, "seed"); v && to_int(*v))
        s.seed_ = static_cast<std::uint64_t>(*to_int(*v));
      // Hardened-transport switches: crash/outage scenarios lose in-flight
      // datagrams, so scripts using `crash` want both of these on.
      if (const auto v = kv(args, "retry"); v && to_int(*v))
        s.params_.retry.enabled = *to_int(*v) != 0;
      if (const auto v = kv(args, "reliable"); v && to_int(*v))
        s.params_.reliable_email_transport = *to_int(*v) != 0;
      if (const auto v = kv(args, "compliant")) {
        if (v->size() != s.params_.n_isps)
          return fail(lineno, "compliant mask length != isps");
        s.params_.compliant.clear();
        for (char c : *v) {
          if (c != '0' && c != '1')
            return fail(lineno, "compliant mask must be 0s and 1s");
          s.params_.compliant.push_back(c == '1');
        }
      }
      continue;
    }

    if (!world_seen) return fail(lineno, "script must start with `world`");
    static const std::vector<std::string> kVerbs = {
        "send", "spam", "buy",      "sell",   "run",   "day",
        "flip", "snapshot", "expect", "print", "policy", "crash"};
    bool known = false;
    for (const auto& v : kVerbs) known = known || v == toks[0];
    if (!known) return fail(lineno, "unknown command: " + toks[0]);

    Command cmd;
    cmd.line = lineno;
    cmd.verb = toks[0];
    cmd.args.assign(toks.begin() + 1, toks.end());
    s.commands_.push_back(std::move(cmd));
  }
  if (!world_seen) return fail(0, "empty script (no world line)");
  return s;
}

std::string ScenarioResult::output_text() const {
  std::string out;
  for (const auto& line : output) {
    out += line;
    out += '\n';
  }
  return out;
}

namespace {

void fail(ScenarioResult& result, std::size_t line, const std::string& msg) {
  result.failures.push_back(ScenarioError{line, msg});
}

bool in_range(const ZmailParams& p,
              const std::pair<std::size_t, std::size_t>& who) {
  return who.first < p.n_isps && who.second < p.users_per_isp;
}

net::EmailAddress addr(const std::pair<std::size_t, std::size_t>& who) {
  return net::make_user_address(who.first, who.second);
}

// --- What differs between the worlds -----------------------------------------

// `bank` / `bank<k>` -> host of bank k (the central world has one bank).
template <class World>
std::optional<std::size_t> bank_target(const World& world,
                                       const std::string& token) {
  if (token.rfind("bank", 0) != 0) return std::nullopt;
  const std::string idx = token.substr(4);
  const auto b = idx.empty() ? std::optional<std::int64_t>(0) : to_int(idx);
  if (!b || *b < 0 || static_cast<std::size_t>(*b) >= world.bank_count())
    return std::nullopt;
  return world.bank_host(static_cast<std::size_t>(*b));
}

// The host `crash <target>` wipes, and the usage line when it names none.
// The central world also crashes compliant ISPs; a federated world keeps its
// ISPs in memory, so only its banks are durable.
std::optional<std::size_t> crash_target(const ShardedSystem& world,
                                        const std::string& token) {
  if (const auto bank = bank_target(world, token)) return bank;
  const auto i = to_int(token);
  if (!i || *i < 0 || static_cast<std::size_t>(*i) >= world.params().n_isps ||
      !world.is_compliant(static_cast<std::size_t>(*i)))
    return std::nullopt;
  return static_cast<std::size_t>(*i);
}
std::optional<std::size_t> crash_target(const FederatedZmailSystem& world,
                                        const std::string& token) {
  return bank_target(world, token);
}
const char* crash_usage(const ShardedSystem&) {
  return "crash needs <compliant-isp|bank> <duration>";
}
const char* crash_usage(const FederatedZmailSystem&) {
  return "crash needs bank<k> <duration> in a federated world";
}

// Violations found by the last snapshot verification.
std::size_t last_violations(const ShardedSystem& world) {
  return world.bank().last_violations().size();
}
std::size_t last_violations(const FederatedZmailSystem& world) {
  return world.federation().last_violations().size();
}

// spam / flip / policy model the mixed compliant/legacy deployment, which
// only the central world has.
void run_mixed_deployment_verb(ShardedSystem& world,
                               const Scenario::Command& cmd,
                               ScenarioResult& result) {
  const ZmailParams& p = world.params();
  const auto& a = cmd.args;
  if (cmd.verb == "spam") {
    const auto from = parse_user_ref(a.empty() ? std::string() : a[0]);
    const auto count = kv(a, "count");
    if (!from || !count || !in_range(p, *from)) {
      fail(result, cmd.line, "spam needs an in-range <from> and count=N");
      return;
    }
    const auto n = to_int(*count);
    Rng rng(cmd.line * 7919 + 13);
    for (std::int64_t k = 0; n && k < *n; ++k) {
      const auto ti = rng.next_below(p.n_isps);
      const auto tu = rng.next_below(p.users_per_isp);
      world.send_email(addr(*from), net::make_user_address(ti, tu), "zxoffer",
                       "zxbuy zxnow", net::MailClass::kSpam);
    }
  } else if (cmd.verb == "flip") {
    const auto i = a.empty() ? std::nullopt : to_int(a[0]);
    if (!i || *i < 0 || static_cast<std::size_t>(*i) >= p.n_isps) {
      fail(result, cmd.line, "flip needs a valid isp index");
      return;
    }
    world.make_compliant(static_cast<std::size_t>(*i));
  } else if (cmd.verb == "policy") {
    // policy <isp> <accept|segregate|discard|filter>: how this ISP's
    // users treat mail from non-compliant senders (per-user overrides).
    const auto i = a.size() == 2 ? to_int(a[0]) : std::nullopt;
    std::optional<NonCompliantPolicy> policy;
    if (a.size() == 2) {
      if (a[1] == "accept") policy = NonCompliantPolicy::kAccept;
      else if (a[1] == "segregate") policy = NonCompliantPolicy::kSegregate;
      else if (a[1] == "discard") policy = NonCompliantPolicy::kDiscard;
      else if (a[1] == "filter") policy = NonCompliantPolicy::kFilter;
    }
    if (!i || *i < 0 || static_cast<std::size_t>(*i) >= p.n_isps ||
        !world.is_compliant(static_cast<std::size_t>(*i)) || !policy) {
      fail(result, cmd.line, "policy needs a compliant isp and a policy name");
      return;
    }
    Isp& isp = world.isp(static_cast<std::size_t>(*i));
    for (std::size_t u = 0; u < p.users_per_isp; ++u)
      isp.users().set_policy_override(UserId(u), *policy);
  }
}
void run_mixed_deployment_verb(FederatedZmailSystem&,
                               const Scenario::Command& cmd,
                               ScenarioResult& result) {
  fail(result, cmd.line, "verb not supported in a federated world: " + cmd.verb);
}

// --- The command loop ----------------------------------------------------------

template <class World>
ScenarioResult run_commands(const Scenario& scenario, World& world) {
  ScenarioResult result;
  const ZmailParams& p = world.params();
  for (const auto& cmd : scenario.commands()) {
    ++result.commands_executed;
    const auto& a = cmd.args;

    if (cmd.verb == "send") {
      // Anything after <to> must be `subject` and at least one word, so a
      // forgotten keyword fails instead of sending the default subject.
      const bool stray_tail =
          a.size() > 2 && (a[2] != "subject" || a.size() < 4);
      if (a.size() < 2 || stray_tail) {
        fail(result, cmd.line, "send needs <from> <to> [subject <words...>]");
        continue;
      }
      const auto from = parse_user_ref(a[0]);
      const auto to = parse_user_ref(a[1]);
      if (!from || !to || !in_range(p, *from) || !in_range(p, *to)) {
        fail(result, cmd.line, "send: bad or out-of-range user ref");
        continue;
      }
      std::string subject = "scenario";
      if (a.size() > 3) {
        subject = a[3];
        for (std::size_t i = 4; i < a.size(); ++i) subject += " " + a[i];
      }
      world.send_email(addr(*from), addr(*to), subject, "body");
    } else if (cmd.verb == "buy" || cmd.verb == "sell") {
      if (a.size() != 2) {
        fail(result, cmd.line, cmd.verb + " needs <user> <n>");
        continue;
      }
      const auto who = parse_user_ref(a[0]);
      const auto n = to_int(a[1]);
      if (!who || !n || !in_range(p, *who)) {
        fail(result, cmd.line, cmd.verb + ": bad arguments");
        continue;
      }
      if (!(cmd.verb == "buy" ? world.buy_epennies(addr(*who), *n)
                              : world.sell_epennies(addr(*who), *n)))
        fail(result, cmd.line, cmd.verb + " refused");
    } else if (cmd.verb == "run") {
      const auto d = a.empty() ? std::nullopt : parse_duration(a[0]);
      if (!d) {
        fail(result, cmd.line, "run needs a duration like 10m");
        continue;
      }
      world.run_for(*d);
    } else if (cmd.verb == "day") {
      for (std::size_t i = 0; i < p.n_isps; ++i)
        if (p.is_compliant(i)) world.isp(i).end_of_day();
    } else if (cmd.verb == "snapshot") {
      world.start_snapshot();
    } else if (cmd.verb == "crash") {
      // crash <target> <duration>: wipe the host's in-memory state and
      // recover it from snapshot + WAL replay after <duration>.  Only
      // meaningful with the durable store (there is nothing to recover from
      // otherwise), so it refuses on store-off worlds.
      if (!p.store.enabled) {
        fail(result, cmd.line, "crash requires the durable store (--store-dir)");
        continue;
      }
      const auto d = a.size() == 2 ? parse_duration(a[1]) : std::nullopt;
      const auto host =
          a.size() == 2 ? crash_target(world, a[0]) : std::nullopt;
      if (!host || !d) {
        fail(result, cmd.line, crash_usage(world));
        continue;
      }
      world.crash_host(*host, *d);
    } else if (cmd.verb == "expect") {
      if (a.empty()) {
        fail(result, cmd.line, "empty expect");
        continue;
      }
      if (a[0] == "balance" && a.size() == 3) {
        const auto who = parse_user_ref(a[1]);
        const auto want = to_int(a[2]);
        if (!who || !want || !in_range(p, *who) ||
            !p.is_compliant(who->first)) {
          fail(result, cmd.line, "expect balance <user> <n>");
          continue;
        }
        const EPenny got = world.isp(who->first).user(who->second).balance;
        if (got != *want)
          fail(result, cmd.line,
               "expect balance " + a[1] + ": got " + std::to_string(got) +
                   ", want " + a[2]);
      } else if (a[0] == "violations" && a.size() == 2) {
        const auto want = to_int(a[1]);
        const auto got = static_cast<std::int64_t>(last_violations(world));
        if (!want || got != *want)
          fail(result, cmd.line,
               "expect violations: got " + std::to_string(got));
      } else if (a[0] == "conservation") {
        if (!world.conservation_holds())
          fail(result, cmd.line, "conservation violated");
      } else {
        fail(result, cmd.line, "unknown expectation: " + a[0]);
      }
    } else if (cmd.verb == "print") {
      if (!a.empty() && a[0] == "balances") {
        for (std::size_t i = 0; i < p.n_isps; ++i) {
          if (!p.is_compliant(i)) continue;
          for (std::size_t u = 0; u < p.users_per_isp; ++u) {
            char line[96];
            std::snprintf(
                line, sizeof line, "%s balance=%lld",
                net::make_user_address(i, u).str().c_str(),
                static_cast<long long>(world.isp(i).user(u).balance));
            result.output.emplace_back(line);
          }
        }
      } else {
        char line[64];
        std::snprintf(line, sizeof line, "t=%s",
                      sim::format_time(world.now()).c_str());
        result.output.emplace_back(line);
      }
    } else {
      run_mixed_deployment_verb(world, cmd, result);
    }
  }
  return result;
}

}  // namespace

ScenarioResult run(const Scenario& scenario, ShardedSystem& world) {
  return run_commands(scenario, world);
}

ScenarioResult run(const Scenario& scenario, FederatedZmailSystem& world) {
  return run_commands(scenario, world);
}

}  // namespace zmail::core
