#include "net/smtp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "util/rng.hpp"

namespace zmail::net {
namespace {

EmailAddress addr(const char* s) { return *parse_address(s); }

class SmtpTest : public ::testing::Test {
 protected:
  std::vector<EmailMessage> delivered_;
  SmtpServerSession session_{"isp1.example", [this](const EmailMessage& m) {
                               delivered_.push_back(m);
                             }};
};

TEST_F(SmtpTest, GreetingIs220) {
  EXPECT_EQ(session_.greeting().code, 220);
  EXPECT_TRUE(session_.greeting().positive());
}

TEST_F(SmtpTest, FullDialogueDeliversMessage) {
  EXPECT_EQ(session_.consume_line("HELO isp0.example").code, 250);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<u1@isp0.example>").code, 250);
  EXPECT_EQ(session_.consume_line("RCPT TO:<u2@isp1.example>").code, 250);
  EXPECT_EQ(session_.consume_line("DATA").code, 354);
  EXPECT_EQ(session_.consume_line("Subject: hi").code, 0);
  EXPECT_EQ(session_.consume_line("").code, 0);
  EXPECT_EQ(session_.consume_line("body line").code, 0);
  EXPECT_EQ(session_.consume_line(".").code, 250);
  EXPECT_EQ(session_.consume_line("QUIT").code, 221);
  EXPECT_TRUE(session_.quit_received());

  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].from.str(), "u1@isp0.example");
  EXPECT_EQ(delivered_[0].subject(), "hi");
  EXPECT_EQ(delivered_[0].body, "body line");
  EXPECT_EQ(session_.messages_accepted(), 1u);
}

TEST_F(SmtpTest, MailBeforeHeloRejected503) {
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c>").code, 503);
}

TEST_F(SmtpTest, RcptBeforeMailRejected503) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("RCPT TO:<a@b.c>").code, 503);
}

TEST_F(SmtpTest, DataBeforeRcptRejected503) {
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  EXPECT_EQ(session_.consume_line("DATA").code, 503);
}

TEST_F(SmtpTest, NestedMailRejected) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c>").code, 250);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<d@e.f>").code, 503);
}

TEST_F(SmtpTest, BadPathSyntaxRejected501) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:a@b.c").code, 501);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<not an address>").code, 501);
}

TEST_F(SmtpTest, HeloWithoutHostnameRejected501) {
  EXPECT_EQ(session_.consume_line("HELO").code, 501);
  EXPECT_EQ(session_.consume_line("HELO   ").code, 501);
}

TEST_F(SmtpTest, UnknownCommandRejected500) {
  EXPECT_EQ(session_.consume_line("FROB x").code, 500);
}

TEST_F(SmtpTest, CommandsAreCaseInsensitive) {
  EXPECT_EQ(session_.consume_line("helo isp0.example").code, 250);
  EXPECT_EQ(session_.consume_line("mail from:<a@b.c>").code, 250);
}

TEST_F(SmtpTest, RsetClearsTransaction) {
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  session_.consume_line("RCPT TO:<d@e.f>");
  EXPECT_EQ(session_.consume_line("RSET").code, 250);
  // After RSET a new MAIL FROM is accepted.
  EXPECT_EQ(session_.consume_line("MAIL FROM:<g@h.i>").code, 250);
}

TEST_F(SmtpTest, NoopAlwaysOk) {
  EXPECT_EQ(session_.consume_line("NOOP").code, 250);
}

TEST_F(SmtpTest, MultipleRecipientsAccepted) {
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  EXPECT_EQ(session_.consume_line("RCPT TO:<d@e.f>").code, 250);
  EXPECT_EQ(session_.consume_line("RCPT TO:<g@h.i>").code, 250);
  session_.consume_line("DATA");
  session_.consume_line("");
  session_.consume_line(".");
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].to.size(), 2u);
}

TEST_F(SmtpTest, DotStuffingRoundTrip) {
  EmailMessage msg = make_email(addr("a@b.c"), addr("u1@isp1.example"), "dots",
                                ".leading dot\n..double dot\nnormal");
  const SmtpTransferResult r = smtp_transfer(msg, "b.c", session_);
  EXPECT_TRUE(r.accepted);
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].body, ".leading dot\n..double dot\nnormal");
}

TEST_F(SmtpTest, TransferCountsBytesBothDirections) {
  EmailMessage msg =
      make_email(addr("a@b.c"), addr("u1@isp1.example"), "s", "hello");
  const SmtpTransferResult r = smtp_transfer(msg, "b.c", session_);
  EXPECT_TRUE(r.accepted);
  EXPECT_GT(r.bytes_client_to_server, 50u);
  EXPECT_GT(r.bytes_server_to_client, 30u);
  EXPECT_EQ(r.first_error_code, 0);
}

TEST_F(SmtpTest, ClientScriptShape) {
  EmailMessage msg =
      make_email(addr("a@b.c"), addr("d@e.f"), "s", "b1\nb2");
  const auto lines = smtp_client_script(msg, "b.c");
  ASSERT_GE(lines.size(), 7u);
  EXPECT_EQ(lines[0], "HELO b.c");
  EXPECT_EQ(lines[1], "MAIL FROM:<a@b.c>");
  EXPECT_EQ(lines[2], "RCPT TO:<d@e.f>");
  EXPECT_EQ(lines[3], "DATA");
  EXPECT_EQ(lines[lines.size() - 2], ".");
  EXPECT_EQ(lines.back(), "QUIT");
}

TEST_F(SmtpTest, SecondMessageOnSameSession) {
  EmailMessage m1 = make_email(addr("a@b.c"), addr("u1@isp1.example"), "1", "x");
  EmailMessage m2 = make_email(addr("a@b.c"), addr("u2@isp1.example"), "2", "y");
  EXPECT_TRUE(smtp_transfer(m1, "b.c", session_).accepted);
  EXPECT_TRUE(smtp_transfer(m2, "b.c", session_).accepted);
  EXPECT_EQ(delivered_.size(), 2u);
}

// --- Extensions: VRFY, HELP, SIZE ------------------------------------------

TEST_F(SmtpTest, VrfyWithoutVerifierIs252) {
  EXPECT_EQ(session_.consume_line("VRFY u1@isp1.example").code, 252);
}

TEST_F(SmtpTest, VrfyWithVerifier) {
  session_.set_verifier([](const EmailAddress& a) { return a.local == "u1"; });
  EXPECT_EQ(session_.consume_line("VRFY u1@isp1.example").code, 250);
  EXPECT_EQ(session_.consume_line("VRFY nobody@isp1.example").code, 550);
  EXPECT_EQ(session_.consume_line("VRFY").code, 501);
  EXPECT_EQ(session_.consume_line("VRFY not-an-address").code, 501);
}

TEST_F(SmtpTest, VerifierRejectsUnknownLocalRecipients) {
  session_.set_verifier([](const EmailAddress& a) { return a.local == "u1"; });
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  EXPECT_EQ(session_.consume_line("RCPT TO:<u1@isp1.example>").code, 250);
  EXPECT_EQ(session_.consume_line("RCPT TO:<u9@isp1.example>").code, 550);
  // Foreign domains are relayed without local verification.
  EXPECT_EQ(session_.consume_line("RCPT TO:<x@elsewhere.example>").code, 250);
}

TEST_F(SmtpTest, HelpListsCommands) {
  const SmtpReply r = session_.consume_line("HELP");
  EXPECT_EQ(r.code, 214);
  EXPECT_NE(r.text.find("DATA"), std::string::npos);
}

TEST_F(SmtpTest, SizeParameterAccepted) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> SIZE=1000").code, 250);
}

TEST_F(SmtpTest, SizeParameterOverLimitRejected552) {
  session_.set_max_message_size(500);
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> SIZE=1000").code, 552);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> SIZE=400").code, 250);
}

TEST_F(SmtpTest, BadSizeParameterRejected501) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> SIZE=abc").code, 501);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> FROB=1").code, 501);
}

TEST_F(SmtpTest, OversizedDataAborted552) {
  session_.set_max_message_size(64);
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  session_.consume_line("RCPT TO:<u1@isp1.example>");
  session_.consume_line("DATA");
  session_.consume_line("");
  SmtpReply last{0, ""};
  for (int i = 0; i < 10 && last.code == 0; ++i)
    last = session_.consume_line(std::string(32, 'x'));
  EXPECT_EQ(last.code, 552);
  EXPECT_EQ(delivered_.size(), 0u);
  // The session recovers for the next transaction.
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c>").code, 250);
}

// --- Verb tokenizing --------------------------------------------------------

// HELO/EHLO/VRFY/HELP/NOOP/QUIT are whole words: a space or the end of the
// line must follow, so "HELOevil.example" is not a greeting and "QUITTING"
// does not close the session.
TEST(SmtpVerbs, VerbMustEndAtSpaceOrEndOfLine) {
  struct Case {
    const char* line;
    int code;
  };
  static const Case kCases[] = {
      {"HELO evil.example", 250}, {"HELOevil.example", 500},
      {"EHLO evil.example", 250}, {"EHLOevil.example", 500},
      {"VRFY a@b.c", 252},        {"VRFYa@b.c", 500},
      {"HELP", 214},              {"HELP DATA", 214},
      {"HELPME", 500},            {"NOOP", 250},
      {"NOOP anything", 250},     {"NOOPS", 500},
      {"QUIT", 221},              {"QUIT now", 221},
      {"QUITTING", 500},
  };
  for (const Case& c : kCases) {
    SmtpServerSession session("isp1.example", [](EmailMessage&&) {});
    const SmtpReply r = session.consume_line(c.line);
    EXPECT_EQ(r.code, c.code) << c.line;
    EXPECT_EQ(session.quit_received(), c.code == 221) << c.line;
  }
}

TEST(SmtpVerbs, GluedHeloDoesNotGreet) {
  SmtpServerSession session("isp1.example", [](EmailMessage&&) {});
  EXPECT_EQ(session.consume_line("HELOevil.example").code, 500);
  EXPECT_EQ(session.consume_line("MAIL FROM:<a@b.c>").code, 503);
  const SmtpReply r = session.consume_line("HELO good.example");
  EXPECT_EQ(r.code, 250);
  EXPECT_EQ(r.text, "isp1.example Hello good.example");
}

// --- Golden transcripts -----------------------------------------------------

// Pinned from the original dialogue, which split the rendered message into a
// vector of line strings: the one-pass client and server must reproduce its
// byte counts, first error, delivered message and client script exactly.
struct GoldenDelivered {
  std::vector<std::string> to;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

struct Golden {
  const char* name;
  EmailMessage msg;
  std::size_t max_size = 0;  // 0 = unlimited
  bool verifier = false;     // accept only local part "u2"
  std::size_t c2s = 0;
  std::size_t s2c = 0;
  int first_error = 0;
  std::vector<std::string> script;
  std::optional<GoldenDelivered> delivered;
};

EmailMessage golden_message(std::string body) {
  EmailMessage m;
  m.from = addr("u1@isp0.example");
  m.to.push_back(addr("u2@isp1.example"));
  m.set_header("Subject", "golden");
  m.set_header("Message-ID", "<42@isp0.example>");
  m.set_header("X-Zmail-Sent-At", "1000");
  m.body = std::move(body);
  return m;
}

std::vector<std::string> golden_script(std::vector<std::string> rcpts,
                                       std::vector<std::string> tail) {
  std::vector<std::string> s = {"HELO isp0.example",
                                "MAIL FROM:<u1@isp0.example>"};
  std::string to_header = "To: ";
  for (std::size_t i = 0; i < rcpts.size(); ++i) {
    s.push_back("RCPT TO:<" + rcpts[i] + ">");
    to_header += (i ? ", " : "") + rcpts[i];
  }
  s.insert(s.end(), {"DATA", "From: u1@isp0.example", to_header,
                     "Subject: golden", "Message-ID: <42@isp0.example>",
                     "X-Zmail-Sent-At: 1000"});
  s.insert(s.end(), tail.begin(), tail.end());
  return s;
}

const std::vector<std::pair<std::string, std::string>> kGoldenHeaders = {
    {"Subject", "golden"},
    {"Message-ID", "<42@isp0.example>"},
    {"X-Zmail-Sent-At", "1000"}};

std::vector<Golden> golden_cases() {
  const std::vector<std::string> u2 = {"u2@isp1.example"};
  std::vector<Golden> v;
  v.push_back({"dot_lines", golden_message(".leading dot\n.\n..two dots\nplain"),
               0, false, 246, 215, 0,
               golden_script(u2, {"", "..leading dot", "..", "...two dots",
                                  "plain", ".", "QUIT"}),
               GoldenDelivered{u2, kGoldenHeaders,
                               ".leading dot\n.\n..two dots\nplain"}});
  v.push_back({"bare_lf", golden_message("line one\nline two\n"), 0, false,
               227, 215, 0,
               golden_script(u2, {"", "line one", "line two", ".", "QUIT"}),
               GoldenDelivered{u2, kGoldenHeaders, "line one\nline two"}});
  v.push_back({"crlf", golden_message("line one\r\nline two\r\n\r\nafter blank"),
               0, false, 242, 215, 0,
               golden_script(u2, {"", "line one", "line two", "",
                                  "after blank", ".", "QUIT"}),
               GoldenDelivered{u2, kGoldenHeaders,
                               "line one\nline two\n\nafter blank"}});
  v.push_back({"no_trailing_newline", golden_message("only line"), 0, false,
               218, 215, 0,
               golden_script(u2, {"", "only line", ".", "QUIT"}),
               GoldenDelivered{u2, kGoldenHeaders, "only line"}});
  v.push_back({"empty_body", golden_message(""), 0, false, 207, 215, 0,
               golden_script(u2, {"", ".", "QUIT"}),
               GoldenDelivered{u2, kGoldenHeaders, ""}});
  {
    EmailMessage m = golden_message("hi both");
    m.to.push_back(addr("u3@isp1.example"));
    const std::vector<std::string> both = {"u2@isp1.example",
                                           "u3@isp1.example"};
    v.push_back({"two_recipients", std::move(m), 0, false, 260, 223, 0,
                 golden_script(both, {"", "hi both", ".", "QUIT"}),
                 GoldenDelivered{both, kGoldenHeaders, "hi both"}});
  }
  {
    // A header value with an embedded newline puts a colon-less line into
    // the header block; the parser skips it.
    EmailMessage m = golden_message("b");
    m.set_header("X-Note", "first\nno colon here");
    auto headers = kGoldenHeaders;
    headers.emplace_back("X-Note", "first");
    v.push_back({"header_without_colon", std::move(m), 0, false, 240, 215, 0,
                 golden_script(u2, {"X-Note: first", "no colon here", "", "b",
                                    ".", "QUIT"}),
                 GoldenDelivered{u2, headers, "b"}});
  }
  {
    std::string body;
    for (int i = 0; i < 10; ++i) body += std::string(40, 'x') + "\n";
    std::vector<std::string> tail = {""};
    for (int i = 0; i < 10; ++i) tail.push_back(std::string(40, 'x'));
    tail.insert(tail.end(), {".", "QUIT"});
    // 552 arrives mid-DATA, once the accumulated lines pass 200 bytes.
    v.push_back({"size_552", golden_message(body), 200, false, 282, 186, 552,
                 golden_script(u2, tail), std::nullopt});
  }
  {
    EmailMessage m = golden_message("to nobody");
    m.to[0] = addr("u9@isp1.example");
    v.push_back({"verifier_550", std::move(m), 0, true, 75, 121, 550,
                 golden_script({"u9@isp1.example"},
                               {"", "to nobody", ".", "QUIT"}),
                 std::nullopt});
  }
  return v;
}

TEST(SmtpGolden, TranscriptsMatchPinnedDialogue) {
  for (const Golden& g : golden_cases()) {
    SCOPED_TRACE(g.name);
    EXPECT_EQ(smtp_client_script(g.msg, "isp0.example"), g.script);

    std::vector<EmailMessage> got;
    SmtpServerSession session("isp1.example", [&got](EmailMessage&& m) {
      got.push_back(std::move(m));
    });
    if (g.max_size) session.set_max_message_size(g.max_size);
    if (g.verifier)
      session.set_verifier(
          [](const EmailAddress& a) { return a.local == "u2"; });
    const SmtpTransferResult r = smtp_transfer(g.msg, "isp0.example", session);
    EXPECT_EQ(r.bytes_client_to_server, g.c2s);
    EXPECT_EQ(r.bytes_server_to_client, g.s2c);
    EXPECT_EQ(r.first_error_code, g.first_error);
    EXPECT_EQ(r.accepted, g.delivered.has_value());
    if (!g.delivered) {
      EXPECT_TRUE(got.empty());
      continue;
    }
    ASSERT_EQ(got.size(), 1u);
    const EmailMessage& m = got.front();
    EXPECT_EQ(m.from.str(), "u1@isp0.example");
    std::vector<std::string> to;
    for (const auto& a : m.to) to.push_back(a.str());
    EXPECT_EQ(to, g.delivered->to);
    EXPECT_EQ(m.headers, g.delivered->headers);
    EXPECT_EQ(m.body, g.delivered->body);

    // parse_rfc822 shares the session's parser: the script's un-stuffed
    // DATA lines parse to the same message.
    const auto data = std::find(g.script.begin(), g.script.end(), "DATA");
    const auto dot = std::find(data, g.script.end(), ".");
    std::vector<std::string> lines;
    for (auto it = data + 1; it != dot; ++it)
      lines.push_back(it->rfind("..", 0) == 0 ? it->substr(1) : *it);
    const EmailMessage parsed = parse_rfc822(m.from, m.to, lines);
    EXPECT_EQ(parsed.headers, m.headers);
    EXPECT_EQ(parsed.body, m.body);
  }
}

// --- Round-trip property fuzz ------------------------------------------------

class SmtpRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmtpRoundTripTest, ArbitraryBodiesSurviveTransfer) {
  zmail::Rng rng(GetParam());
  std::vector<EmailMessage> delivered;
  SmtpServerSession session("isp1.example", [&](const EmailMessage& m) {
    delivered.push_back(m);
  });
  for (int msg_i = 0; msg_i < 20; ++msg_i) {
    // Random body with newlines, leading dots, empty lines, punctuation.
    std::string body;
    const std::size_t lines = rng.next_below(6);
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t len = rng.next_below(12);
      for (std::size_t c = 0; c < len; ++c) {
        static const char alphabet[] =
            "abcXYZ012 .,:;!?-_()[]<>@'\"$%&*+=/";
        body += alphabet[rng.next_below(sizeof(alphabet) - 1)];
      }
      if (l + 1 < lines) body += '\n';
    }
    EmailMessage msg = make_email(addr("a@b.c"), addr("u1@isp1.example"),
                                  "fuzz", body);
    const SmtpTransferResult r = smtp_transfer(msg, "b.c", session);
    ASSERT_TRUE(r.accepted) << "body: [" << body << "]";
    // Trailing empty lines are legitimately ambiguous in 821 framing; the
    // body must round-trip up to trailing-newline normalization.
    std::string want = body;
    while (!want.empty() && want.back() == '\n') want.pop_back();
    std::string got = delivered.back().body;
    while (!got.empty() && got.back() == '\n') got.pop_back();
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtpRoundTripTest,
                         ::testing::Range<std::uint64_t>(40, 46));

// State-machine fuzz: arbitrary command sequences never crash, always
// produce a known reply code, and leave the session recoverable.
class SmtpCommandFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmtpCommandFuzzTest, RandomCommandSequencesAreSafe) {
  zmail::Rng rng(GetParam());
  int delivered = 0;
  SmtpServerSession session("isp1.example",
                            [&delivered](const EmailMessage&) { ++delivered; });
  static const char* kLines[] = {
      "HELO x",       "EHLO y.example",
      "MAIL FROM:<a@b.c>", "MAIL FROM:<bad",
      "RCPT TO:<d@e.f>",   "RCPT TO:<>",
      "DATA",         ".",
      "body line",    "..stuffed",
      "RSET",         "NOOP",
      "VRFY a@b.c",   "HELP",
      "QUIT",         "",
      "FROBNICATE",   "MAIL FROM:<a@b.c> SIZE=10",
  };
  for (int i = 0; i < 400; ++i) {
    const char* line = kLines[rng.next_below(std::size(kLines))];
    const SmtpReply r = session.consume_line(line);
    switch (r.code) {
      case 0: case 214: case 220: case 221: case 250: case 252: case 354:
      case 500: case 501: case 503: case 550: case 552:
        break;
      default:
        FAIL() << "unexpected reply code " << r.code << " for '" << line
               << "'";
    }
  }
  // The session always recovers into a working transaction.
  session.consume_line("RSET");
  // If a previous DATA is still open, terminate it first.
  session.consume_line(".");
  session.consume_line("RSET");
  EXPECT_EQ(session.consume_line("HELO x").code, 250);
  EXPECT_EQ(session.consume_line("MAIL FROM:<a@b.c>").code, 250);
  EXPECT_EQ(session.consume_line("RCPT TO:<u@isp1.example>").code, 250);
  EXPECT_EQ(session.consume_line("DATA").code, 354);
  session.consume_line("");
  EXPECT_EQ(session.consume_line(".").code, 250);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtpCommandFuzzTest,
                         ::testing::Range<std::uint64_t>(70, 76));

TEST(ParseRfc822, SkipsMalformedHeaderLines) {
  const EmailMessage m = parse_rfc822(
      *parse_address("a@b.c"), {*parse_address("d@e.f")},
      {"Subject: ok", "this line has no colon", "", "body"});
  EXPECT_EQ(m.subject(), "ok");
  EXPECT_EQ(m.body, "body");
}

TEST(ParseRfc822, EmptyBody) {
  const EmailMessage m = parse_rfc822(*parse_address("a@b.c"),
                                      {*parse_address("d@e.f")},
                                      {"Subject: only headers", ""});
  EXPECT_EQ(m.body, "");
}

}  // namespace
}  // namespace zmail::net
