#include "net/smtp.hpp"

#include <cctype>
#include <cstdlib>
#include <optional>

#include "util/assert.hpp"

namespace zmail::net {

namespace {

// Case-insensitive prefix match; returns the remainder after the prefix.
std::optional<std::string_view> strip_prefix_ci(std::string_view line,
                                                std::string_view prefix) {
  if (line.size() < prefix.size()) return std::nullopt;
  for (std::size_t i = 0; i < prefix.size(); ++i)
    if (std::toupper(static_cast<unsigned char>(line[i])) !=
        std::toupper(static_cast<unsigned char>(prefix[i])))
      return std::nullopt;
  return line.substr(prefix.size());
}

// A whole verb: the prefix followed by a space or the end of the line, so
// "QUITTING" is not QUIT.  Returns the remainder after the verb.
std::optional<std::string_view> match_verb(std::string_view line,
                                           std::string_view verb) {
  auto rest = strip_prefix_ci(line, verb);
  if (rest && !rest->empty() && rest->front() != ' ') return std::nullopt;
  return rest;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

void append_path(std::string& out, const EmailAddress& a) {
  out.append(1, '<').append(a.local).append(1, '@').append(a.domain);
  out.append(1, '>');
}

// Splits un-stuffed DATA text into headers and body; every line of `text`,
// the last included, must end in '\n'.  The text buffer becomes the body,
// so the body is never copied.
EmailMessage parse_data(EmailAddress envelope_from,
                        std::vector<EmailAddress> envelope_to,
                        std::string text) {
  EmailMessage msg;
  msg.from = std::move(envelope_from);
  msg.to = std::move(envelope_to);
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;  // tolerate malformed
    const std::string_view key = trim(line.substr(0, colon));
    // From:/To: duplicate the envelope in this simulation; keep the rest.
    if (key == "From" || key == "To") continue;
    msg.headers.emplace_back(key, trim(line.substr(colon + 1)));
  }
  text.erase(0, pos);
  if (!text.empty()) text.pop_back();  // the last line's '\n'
  msg.body = std::move(text);
  return msg;
}

// Plays the client half of one transfer: calls `send(line)` for every line
// a client sends, HELO through QUIT, and stops as soon as `send` returns
// false.  The message is rendered once and walked as views split at CRLF or
// bare LF (a final unterminated line counts, a final empty one does not);
// only a line that needs dot-stuffing is copied, into one reused buffer.
template <class Send>
void play_client_script(const EmailMessage& msg,
                        std::string_view client_domain, Send&& send) {
  std::string line;
  line.assign("HELO ").append(client_domain);
  if (!send(std::string_view(line))) return;
  line.assign("MAIL FROM:");
  append_path(line, msg.from);
  if (!send(std::string_view(line))) return;
  for (const auto& r : msg.to) {
    line.assign("RCPT TO:");
    append_path(line, r);
    if (!send(std::string_view(line))) return;
  }
  if (!send(std::string_view("DATA"))) return;

  const std::string text = msg.to_rfc822();
  const std::string_view rest(text);
  std::size_t pos = 0;
  while (pos < rest.size()) {
    const std::size_t nl = rest.find('\n', pos);
    std::string_view view;
    if (nl == std::string_view::npos) {
      view = rest.substr(pos);
      pos = rest.size();
    } else {
      view = rest.substr(pos, nl - pos);
      pos = nl + 1;
      if (!view.empty() && view.back() == '\r') view.remove_suffix(1);
    }
    if (!view.empty() && view.front() == '.') {
      line.assign(1, '.').append(view);  // dot-stuffing
      view = line;
    }
    if (!send(view)) return;
  }

  if (!send(std::string_view("."))) return;
  send(std::string_view("QUIT"));
}

}  // namespace

SmtpServerSession::SmtpServerSession(std::string server_domain,
                                     DeliverFn deliver)
    : domain_(std::move(server_domain)), deliver_(std::move(deliver)) {
  ZMAIL_ASSERT(deliver_ != nullptr);
}

SmtpReply SmtpServerSession::greeting() const {
  return {220, domain_ + " Simple Mail Transfer Service Ready"};
}

void SmtpServerSession::reset_transaction() {
  envelope_from_ = {};
  envelope_to_.clear();
  data_.clear();
  data_bytes_ = 0;
  if (state_ != State::kConnected) state_ = State::kGreeted;
}

SmtpReply SmtpServerSession::consume_line(std::string_view line) {
  if (state_ == State::kData) {
    if (line == ".") {
      deliver_(parse_data(std::move(envelope_from_), std::move(envelope_to_),
                          std::move(data_)));
      ++accepted_;
      reset_transaction();
      return {250, "OK"};
    }
    // Reverse dot-stuffing: a leading ".." becomes ".".
    if (line.size() >= 2 && line[0] == '.' && line[1] == '.')
      data_.append(line.substr(1));
    else
      data_.append(line);
    data_ += '\n';
    data_bytes_ += line.size() + 2;
    if (max_size_ > 0 && data_bytes_ > max_size_) {
      reset_transaction();
      return {552, "Message exceeds maximum size"};
    }
    return {0, ""};
  }
  return handle_command(line);
}

SmtpReply SmtpServerSession::handle_command(std::string_view line) {
  if (auto rest = match_verb(line, "HELO");
      rest || (rest = match_verb(line, "EHLO"))) {
    const std::string_view host = trim(*rest);
    if (host.empty()) return {501, "Syntax: HELO hostname"};
    reset_transaction();
    state_ = State::kGreeted;
    return {250, std::string(domain_).append(" Hello ").append(host)};
  }
  if (auto rest = strip_prefix_ci(line, "MAIL FROM:")) {
    if (state_ == State::kConnected) return {503, "Polite people say HELO first"};
    if (state_ != State::kGreeted) return {503, "Nested MAIL command"};
    // Optional RFC-1870 SIZE parameter: "MAIL FROM:<a@b> SIZE=12345".
    std::string_view spec = trim(*rest);
    const std::size_t space = spec.find(' ');
    if (space != std::string_view::npos) {
      const std::string_view param = trim(spec.substr(space + 1));
      spec = spec.substr(0, space);
      if (auto size = strip_prefix_ci(param, "SIZE=")) {
        const std::string digits(*size);  // strtoull needs a terminator
        char* end = nullptr;
        const unsigned long long declared =
            std::strtoull(digits.c_str(), &end, 10);
        if (end == digits.c_str() || *end != '\0')
          return {501, "Bad SIZE parameter"};
        if (max_size_ > 0 && declared > max_size_)
          return {552, "Message size exceeds fixed maximum"};
      } else {
        return {501, "Unrecognized MAIL parameter"};
      }
    }
    auto addr = parse_path(spec);
    if (!addr) return {501, "Syntax error in MAIL FROM path"};
    envelope_from_ = std::move(*addr);
    state_ = State::kMailFrom;
    return {250, "OK"};
  }
  if (auto rest = strip_prefix_ci(line, "RCPT TO:")) {
    if (state_ != State::kMailFrom && state_ != State::kRcptTo)
      return {503, "Need MAIL command first"};
    auto addr = parse_path(trim(*rest));
    if (!addr) return {501, "Syntax error in RCPT TO path"};
    if (verify_ && addr->domain == domain_ && !verify_(*addr))
      return {550, "No such user here"};
    envelope_to_.push_back(std::move(*addr));
    state_ = State::kRcptTo;
    return {250, "OK"};
  }
  if (auto rest = match_verb(line, "VRFY")) {
    const std::string_view who = trim(*rest);
    if (who.empty()) return {501, "VRFY needs an address"};
    const auto addr = parse_address(who);
    if (!addr) return {501, "Syntax error in address"};
    if (!verify_) return {252, "Cannot VRFY user, but will accept message"};
    return verify_(*addr) ? SmtpReply{250, addr->str()}
                          : SmtpReply{550, "No such user here"};
  }
  if (match_verb(line, "HELP")) {
    return {214, "Commands: HELO MAIL RCPT DATA RSET NOOP VRFY HELP QUIT"};
  }
  if (auto rest = strip_prefix_ci(line, "DATA"); rest && trim(*rest).empty()) {
    if (state_ != State::kRcptTo)
      return {503, "Need RCPT before DATA"};
    state_ = State::kData;
    return {354, "Start mail input; end with <CRLF>.<CRLF>"};
  }
  if (auto rest = strip_prefix_ci(line, "RSET"); rest && trim(*rest).empty()) {
    reset_transaction();
    return {250, "OK"};
  }
  if (match_verb(line, "NOOP")) return {250, "OK"};
  if (match_verb(line, "QUIT")) {
    quit_ = true;
    return {221, domain_ + " Service closing transmission channel"};
  }
  return {500, "Syntax error, command unrecognized"};
}

std::vector<std::string> smtp_client_script(const EmailMessage& msg,
                                            std::string_view client_domain) {
  std::vector<std::string> lines;
  play_client_script(msg, client_domain, [&lines](std::string_view line) {
    lines.emplace_back(line);
    return true;
  });
  return lines;
}

SmtpTransferResult smtp_transfer(const EmailMessage& msg,
                                 std::string_view client_domain,
                                 SmtpServerSession& server) {
  SmtpTransferResult result;
  const SmtpReply greet = server.greeting();
  result.bytes_server_to_client += greet.wire_size();
  if (!greet.positive()) {
    result.first_error_code = greet.code;
    return result;
  }

  bool data_accepted = false;
  play_client_script(msg, client_domain, [&](std::string_view line) {
    result.bytes_client_to_server += line.size() + 2;  // + CRLF
    const SmtpReply reply = server.consume_line(line);
    if (reply.code == 0) return true;  // swallowed data line
    result.bytes_server_to_client += reply.wire_size();
    if (!reply.positive()) {
      result.first_error_code = reply.code;  // the dialogue stops here
      return false;
    }
    if (line == "." && reply.code == 250) data_accepted = true;
    return true;
  });
  // Accepted only when the whole dialogue succeeded, QUIT included.
  result.accepted = data_accepted && result.first_error_code == 0;
  return result;
}

EmailMessage parse_rfc822(const EmailAddress& envelope_from,
                          const std::vector<EmailAddress>& envelope_to,
                          const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text.append(line).append(1, '\n');
  return parse_data(envelope_from, envelope_to, std::move(text));
}

}  // namespace zmail::net
