#pragma once
// Append-only text writing: the helpers the hand-rolled writers (placement
// JSON, daemon responses, metrics and traces, rule text) build on, so each
// renders in one pass into one buffer.

#include <cstdint>
#include <string>
#include <string_view>

namespace ruleplace::util {

/// Append `s` as a quoted JSON string: quotes and backslashes are escaped,
/// \n \r \t take their short forms, other bytes below 0x20 become \u00XX
/// and every other byte (UTF-8 included) passes through.
void appendJsonString(std::string& out, std::string_view s);

/// Append the decimal digits of `v`.
void appendInt(std::string& out, std::int64_t v);

}  // namespace ruleplace::util
