// SMTP (RFC 821) command/reply state machine.
//
// The paper layers Zmail on unmodified SMTP, so the reproduction includes a
// real (if minimal) SMTP implementation: a server session that parses HELO /
// MAIL FROM / RCPT TO / DATA / RSET / NOOP / QUIT with correct reply codes
// and dot-stuffing, and a client that drives a complete transfer.  ISP hosts
// in the simulation exchange mail through these sessions, byte-for-byte.
//
// One pass per transfer: the client renders the message once and walks the
// text as line views (only a dot-stuffed line is copied, into one reused
// buffer); the server appends DATA lines into one buffer and parses it once
// at the terminating "."; the parsed message is moved to the callback.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/email.hpp"

namespace zmail::net {

// Three-digit SMTP reply plus text.
struct SmtpReply {
  int code = 0;
  std::string text;

  // Bytes of the reply line on the wire: "<code> <text>\r\n".
  std::size_t wire_size() const noexcept {
    std::size_t digits = 1;
    for (int c = code; c >= 10; c /= 10) ++digits;
    return digits + 1 + text.size() + 2;
  }
  bool positive() const noexcept { return code >= 200 && code < 400; }
};

// Server-side session.  Feed it command lines; it returns replies and emits
// completed messages through the callback.
class SmtpServerSession {
 public:
  using DeliverFn = std::function<void(EmailMessage&&)>;
  // Optional address validator for VRFY and RCPT (nullptr accepts all).
  using VerifyFn = std::function<bool(const EmailAddress&)>;

  explicit SmtpServerSession(std::string server_domain, DeliverFn deliver);

  // Installs a local-mailbox validator; RCPT TO for this server's own
  // domain is then checked (550 on unknown users) and VRFY answers from
  // it.
  void set_verifier(VerifyFn verify) { verify_ = std::move(verify); }

  // Maximum accepted message size in bytes (0 = unlimited); enforced
  // against the MAIL FROM SIZE= parameter and the accumulated DATA.
  void set_max_message_size(std::size_t bytes) { max_size_ = bytes; }

  // The 220 greeting the server sends on connect.
  SmtpReply greeting() const;

  // Processes one CRLF-terminated line (without the CRLF).  During DATA,
  // lines are message content until the lone "." terminator; the returned
  // reply is empty (code 0) for swallowed data lines.  A bare LF inside a
  // DATA line ends a message line, as it does in the client's line walker.
  // Verbs are matched whole: HELO/EHLO/VRFY/HELP/NOOP/QUIT must be followed
  // by a space or the end of the line.
  SmtpReply consume_line(std::string_view line);

  bool quit_received() const noexcept { return quit_; }
  std::uint64_t messages_accepted() const noexcept { return accepted_; }

 private:
  enum class State { kConnected, kGreeted, kMailFrom, kRcptTo, kData };

  SmtpReply handle_command(std::string_view line);
  void reset_transaction();

  std::string domain_;
  DeliverFn deliver_;
  VerifyFn verify_;
  std::size_t max_size_ = 0;
  std::size_t data_bytes_ = 0;  // DATA bytes as sent (stuffed, with CRLF)
  State state_ = State::kConnected;
  bool quit_ = false;
  std::uint64_t accepted_ = 0;

  EmailAddress envelope_from_;
  std::vector<EmailAddress> envelope_to_;
  std::string data_;  // un-stuffed DATA lines, each ending in '\n'
};

// Client-side: the exact line sequence a client sends (HELO..QUIT), with
// dot-stuffing applied to the message text.  The same walker drives
// smtp_transfer.
std::vector<std::string> smtp_client_script(const EmailMessage& msg,
                                            std::string_view client_domain);

// Runs a full in-memory SMTP dialogue: plays the client script against the
// server session, checking reply codes.  Returns the transcript size in
// bytes (both directions) and whether the transfer was accepted.
struct SmtpTransferResult {
  bool accepted = false;
  std::size_t bytes_client_to_server = 0;
  std::size_t bytes_server_to_client = 0;
  int first_error_code = 0;
};

SmtpTransferResult smtp_transfer(const EmailMessage& msg,
                                 std::string_view client_domain,
                                 SmtpServerSession& server);

// Parses the (un-stuffed) DATA lines of one transaction into headers/body,
// through the same parser the server session uses.
EmailMessage parse_rfc822(const EmailAddress& envelope_from,
                          const std::vector<EmailAddress>& envelope_to,
                          const std::vector<std::string>& lines);

}  // namespace zmail::net
