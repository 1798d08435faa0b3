#include "io/policy_text.h"

#include <charconv>
#include <optional>
#include <vector>

#include "match/tuple5.h"
#include "util/append.h"

namespace ruleplace::io {

namespace {

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

int parseInt(std::string_view s, int line, int lo, int hi,
             const char* what) {
  int value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size() || value < lo ||
      value > hi) {
    throw ParseError(line, std::string("invalid ") + what + " '" +
                               std::string(s) + "'");
  }
  return value;
}

match::IpPrefix parsePrefix(std::string_view s, int line) {
  // a.b.c.d[/len]
  int len = 32;
  std::size_t slash = s.find('/');
  std::string_view addrPart = s;
  if (slash != std::string_view::npos) {
    len = parseInt(s.substr(slash + 1), line, 0, 32, "prefix length");
    addrPart = s.substr(0, slash);
  }
  std::uint32_t addr = 0;
  int octets = 0;
  std::size_t pos = 0;
  while (octets < 4) {
    std::size_t dot = addrPart.find('.', pos);
    std::string_view part =
        addrPart.substr(pos, dot == std::string_view::npos ? std::string_view::npos
                                                           : dot - pos);
    addr = (addr << 8) |
           static_cast<std::uint32_t>(parseInt(part, line, 0, 255, "octet"));
    ++octets;
    if (dot == std::string_view::npos) break;
    pos = dot + 1;
  }
  if (octets != 4) throw ParseError(line, "invalid IPv4 address");
  // Mask host bits; /0 must not shift by 32 (undefined behavior).
  if (len == 0) {
    addr = 0;
  } else if (len < 32) {
    addr &= ~((1u << (32 - len)) - 1u);
  }
  return {addr, len};
}

}  // namespace

bool parseRuleLine(std::string_view line, int lineNumber,
                   match::Ternary* fieldOut, acl::Action* actionOut) {
  std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  auto tokens = tokenize(line);
  if (tokens.empty()) return false;

  acl::Action action;
  if (tokens[0] == "permit") {
    action = acl::Action::kPermit;
  } else if (tokens[0] == "drop") {
    action = acl::Action::kDrop;
  } else {
    throw ParseError(lineNumber,
                     "expected 'permit' or 'drop', got '" +
                         std::string(tokens[0]) + "'");
  }

  if (tokens.size() >= 2 && tokens[1] == "raw") {
    if (tokens.size() != 3) {
      throw ParseError(lineNumber, "raw rule: expected one ternary field");
    }
    try {
      *fieldOut = match::Ternary::fromString(tokens[2]);
    } catch (const std::exception& e) {
      throw ParseError(lineNumber, e.what());
    }
    *actionOut = action;
    return true;
  }

  match::Tuple5 tuple;
  std::size_t i = 1;
  auto need = [&](const char* what) -> std::string_view {
    if (i >= tokens.size()) {
      throw ParseError(lineNumber, std::string(what) + ": missing value");
    }
    return tokens[i++];
  };
  while (i < tokens.size()) {
    std::string_view key = tokens[i++];
    if (key == "src") {
      tuple.src = parsePrefix(need("src"), lineNumber);
    } else if (key == "dst") {
      tuple.dst = parsePrefix(need("dst"), lineNumber);
    } else if (key == "tcp") {
      tuple.proto = match::ProtoMatch::tcp();
    } else if (key == "udp") {
      tuple.proto = match::ProtoMatch::udp();
    } else if (key == "proto") {
      tuple.proto = {static_cast<std::uint8_t>(
                         parseInt(need("proto"), lineNumber, 0, 255, "proto")),
                     true};
    } else if (key == "sport") {
      tuple.srcPort = match::PortMatch::exact(static_cast<std::uint16_t>(
          parseInt(need("sport"), lineNumber, 0, 65535, "sport")));
    } else if (key == "dport") {
      tuple.dstPort = match::PortMatch::exact(static_cast<std::uint16_t>(
          parseInt(need("dport"), lineNumber, 0, 65535, "dport")));
    } else {
      throw ParseError(lineNumber,
                       "unknown field '" + std::string(key) + "'");
    }
  }
  *fieldOut = tuple.toTernary();
  *actionOut = action;
  return true;
}

acl::Policy parsePolicy(std::string_view text) {
  acl::Policy policy;
  int lineNumber = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? std::string_view::npos
                                                      : nl - pos);
    ++lineNumber;
    match::Ternary field;
    acl::Action action;
    if (parseRuleLine(line, lineNumber, &field, &action)) {
      policy.addRule(field, action);
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return policy;
}

void appendMatch(std::string& out, const match::Ternary& field) {
  const std::optional<match::Tuple5> t = match::Tuple5::fromTernary(field);
  if (!t) {
    out += "raw ";
    out += field.toString();
    return;
  }
  out += "src ";
  t->src.appendTo(out);
  out += " dst ";
  t->dst.appendTo(out);
  if (t->proto.exact) {
    if (t->proto.value == 6) {
      out += " tcp";
    } else if (t->proto.value == 17) {
      out += " udp";
    } else {
      out += " proto ";
      util::appendInt(out, t->proto.value);
    }
  }
  if (t->srcPort.careBits == 16) {
    out += " sport ";
    util::appendInt(out, t->srcPort.value);
  }
  if (t->dstPort.careBits == 16) {
    out += " dport ";
    util::appendInt(out, t->dstPort.value);
  }
}

std::string formatMatch(const match::Ternary& field) {
  std::string out;
  appendMatch(out, field);
  return out;
}

std::string formatPolicy(const acl::Policy& policy) {
  std::string out;
  for (const auto& r : policy.rules()) {
    out += r.action == acl::Action::kDrop ? "drop " : "permit ";
    appendMatch(out, r.matchField);
    out.push_back('\n');
  }
  return out;
}

}  // namespace ruleplace::io
