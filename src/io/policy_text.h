#pragma once
// Human-readable firewall policy syntax.
//
// One rule per line, highest priority first — the way operators write
// ACLs (and the shape of Google Compute Engine / EC2 security-group rules
// the paper cites as its policy model):
//
//     # comments and blank lines are ignored
//     permit src 10.1.0.0/16 dst 11.0.0.0/8 tcp dport 443
//     drop   src 10.0.0.0/8
//     permit raw 10*1**        # raw ternary field, for tests/examples
//
// Fields: `src`/`dst` IPv4 prefixes, `tcp`/`udp`/`proto <n>`,
// `sport <n>`/`dport <n>` exact ports.  Omitted fields are wildcards.
// `raw <ternary>` bypasses the 5-tuple layout entirely (the whole policy
// must then share that field's width).

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "acl/policy.h"

namespace ruleplace::io {

/// Parse failure with line information.
class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  int line() const noexcept { return line_; }

 private:
  int line_;
};

/// Parse a policy from text (see header comment for the grammar).
acl::Policy parsePolicy(std::string_view text);

/// Parse a single rule line; returns false for blank/comment lines.
/// Throws ParseError on malformed input.
bool parseRuleLine(std::string_view line, int lineNumber,
                   match::Ternary* fieldOut, acl::Action* actionOut);

/// Render a policy in the same syntax (5-tuple rules render structurally;
/// anything else falls back to `raw`).  Round-trips through parsePolicy.
std::string formatPolicy(const acl::Policy& policy);

/// Render one match field: structured 5-tuple text when the cube uses the
/// Tuple5 layout, `raw <ternary>` otherwise.
std::string formatMatch(const match::Ternary& field);

/// Append formatMatch(field) to `out` — the one match renderer.  Its text
/// uses only [0-9a-z./* ], so it needs no JSON escaping.
void appendMatch(std::string& out, const match::Ternary& field);

}  // namespace ruleplace::io
