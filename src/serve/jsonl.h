#pragma once
// Minimal JSON for the serve protocol (docs/serve.md).
//
// The repo's io/ layer only *writes* JSON; the daemon also has to read it —
// one object per protocol line.  This is a small strict recursive-descent
// parser over std::string_view: objects, arrays, strings (with escapes,
// including \uXXXX surrogate pairs), integers, doubles, booleans, null.
// Strictness matters more than generality here: a malformed event line must
// produce a clean error response, never a partially-applied event, so the
// parser rejects trailing garbage, unescaped control characters and inputs
// nested deeper than kMaxDepth.
//
// Numbers that look integral (no '.', 'e', 'E') are kept as int64 exactly —
// sequence numbers and capacities must not round-trip through a double.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ruleplace::serve {

/// Parse failure with byte-offset context, suitable for an error response.
class JsonError : public std::runtime_error {
 public:
  JsonError(std::size_t offset, const std::string& message)
      : std::runtime_error("json offset " + std::to_string(offset) + ": " +
                           message),
        offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };
  using Array = std::vector<JsonValue>;
  /// Members in input order (protocol objects are tiny; linear find beats a
  /// map and keeps duplicate keys detectable).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  /// Maximum nesting depth accepted by parse().
  static constexpr int kMaxDepth = 64;

  JsonValue() = default;

  /// Parse one complete JSON document; throws JsonError on anything else
  /// (including trailing non-whitespace).
  static JsonValue parse(std::string_view text);

  Kind kind() const noexcept { return kind_; }

  /// Typed accessors throw JsonError on a kind mismatch — the daemon turns
  /// that into a per-line error response.
  bool asBool() const;
  /// kInt, or a kDouble with an exact integral value.
  std::int64_t asInt() const;
  double asDouble() const;  ///< kInt or kDouble
  const std::string& asString() const;
  const Array& asArray() const;
  const Object& asObject() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const noexcept;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;

  friend class JsonParser;
};

}  // namespace ruleplace::serve
