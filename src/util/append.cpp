#include "util/append.h"

#include <charconv>

namespace ruleplace::util {

void appendJsonString(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out.push_back(kHex[u >> 4]);
          out.push_back(kHex[u & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void appendInt(std::string& out, std::int64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace ruleplace::util
