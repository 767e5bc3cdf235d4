#include "net/email.hpp"

#include <cctype>

namespace zmail::net {

std::string_view mail_class_name(MailClass c) noexcept {
  switch (c) {
    case MailClass::kLegitimate: return "legitimate";
    case MailClass::kSpam: return "spam";
    case MailClass::kNewsletter: return "newsletter";
    case MailClass::kMailingList: return "mailing-list";
    case MailClass::kAcknowledgment: return "acknowledgment";
    case MailClass::kVirus: return "virus";
  }
  return "?";
}

namespace {
bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}
}  // namespace

std::optional<std::string> EmailMessage::header(std::string_view name) const {
  for (const auto& [k, v] : headers)
    if (iequals(k, name)) return v;
  return std::nullopt;
}

void EmailMessage::set_header(std::string_view name, std::string_view value) {
  for (auto& [k, v] : headers) {
    if (iequals(k, name)) {
      v = std::string(value);
      return;
    }
  }
  headers.emplace_back(std::string(name), std::string(value));
}

std::size_t EmailMessage::wire_size() const noexcept {
  std::size_t n = from.str().size() + 16;
  for (const auto& r : to) n += r.str().size() + 12;
  for (const auto& [k, v] : headers) n += k.size() + v.size() + 4;
  n += body.size() + 8;
  return n;
}

std::string EmailMessage::to_rfc822() const {
  const auto append_addr = [](std::string& out, const EmailAddress& a) {
    out.append(a.local).append(1, '@').append(a.domain);
  };
  std::size_t n = from.local.size() + from.domain.size() + body.size() + 17;
  for (const auto& r : to) n += r.local.size() + r.domain.size() + 3;
  for (const auto& [k, v] : headers) n += k.size() + v.size() + 4;
  std::string out;
  out.reserve(n);
  out.append("From: ");
  append_addr(out, from);
  out.append("\r\nTo: ");
  for (std::size_t i = 0; i < to.size(); ++i) {
    if (i) out.append(", ");
    append_addr(out, to[i]);
  }
  out.append("\r\n");
  for (const auto& [k, v] : headers)
    out.append(k).append(": ").append(v).append("\r\n");
  out.append("\r\n").append(body);
  return out;
}

crypto::Bytes EmailMessage::serialize() const {
  crypto::Bytes b;
  crypto::put_string(b, from.str());
  crypto::put_u32(b, static_cast<std::uint32_t>(to.size()));
  for (const auto& r : to) crypto::put_string(b, r.str());
  crypto::put_u32(b, static_cast<std::uint32_t>(headers.size()));
  for (const auto& [k, v] : headers) {
    crypto::put_string(b, k);
    crypto::put_string(b, v);
  }
  crypto::put_string(b, body);
  crypto::put_u8(b, static_cast<std::uint8_t>(truth));
  // Optional tail: present only for traced messages, so that runs with
  // tracing off serialize exactly as they did before tracing existed.
  if (trace_id != 0) crypto::put_u64(b, trace_id);
  return b;
}

std::optional<EmailMessage> EmailMessage::deserialize(
    const crypto::Bytes& wire) {
  crypto::ByteReader r(wire);
  EmailMessage m;
  auto from = parse_address(r.get_string());
  if (!from) return std::nullopt;
  m.from = *from;
  const std::uint32_t nto = r.get_u32();
  for (std::uint32_t i = 0; i < nto && r.ok(); ++i) {
    auto a = parse_address(r.get_string());
    if (!a) return std::nullopt;
    m.to.push_back(*a);
  }
  const std::uint32_t nh = r.get_u32();
  for (std::uint32_t i = 0; i < nh && r.ok(); ++i) {
    std::string k = r.get_string();
    std::string v = r.get_string();
    m.headers.emplace_back(std::move(k), std::move(v));
  }
  m.body = r.get_string();
  const std::uint8_t truth = r.get_u8();
  // A flipped bit must not smuggle an out-of-range enum into the system.
  if (truth > static_cast<std::uint8_t>(MailClass::kVirus)) return std::nullopt;
  m.truth = static_cast<MailClass>(truth);
  if (!r.ok()) return std::nullopt;
  if (!r.at_end()) m.trace_id = r.get_u64();
  if (!r.ok()) return std::nullopt;
  return m;
}

EmailMessage make_email(const EmailAddress& from, const EmailAddress& to,
                        std::string subject, std::string body,
                        MailClass truth) {
  EmailMessage m;
  m.from = from;
  m.to.push_back(to);
  m.set_header("Subject", subject);
  m.set_header("Message-ID",
               "<" + std::to_string(std::hash<std::string>{}(
                         from.str() + to.str() + subject + body)) +
                   "@" + from.domain + ">");
  m.body = std::move(body);
  m.truth = truth;
  return m;
}

}  // namespace zmail::net
