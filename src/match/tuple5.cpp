#include "match/tuple5.h"

#include <bit>
#include <stdexcept>

#include "util/append.h"

namespace ruleplace::match {

namespace {

// Pin the top `prefixLen` bits of a 32-bit IP field located at `offset`.
// IP bits are stored LSB-first, so prefix bit j (from the top) is header bit
// offset + 31 - j.
void applyPrefix(Ternary& t, int offset, const IpPrefix& p) {
  if (p.length < 0 || p.length > 32) {
    throw std::invalid_argument("IpPrefix length out of range");
  }
  for (int j = 0; j < p.length; ++j) {
    int bitVal = static_cast<int>((p.addr >> (31 - j)) & 1);
    t.setBit(offset + 31 - j, bitVal);
  }
}

void applyPort(Ternary& t, int offset, const PortMatch& p) {
  if (p.careBits < 0 || p.careBits > 16) {
    throw std::invalid_argument("PortMatch careBits out of range");
  }
  for (int j = 0; j < p.careBits; ++j) {
    int bitVal = static_cast<int>((p.value >> (15 - j)) & 1);
    t.setBit(offset + 15 - j, bitVal);
  }
}

// Bits [offset, offset + nbits) of a two-word mask, nbits <= 32.
std::uint32_t bitsAt(std::uint64_t lo, std::uint64_t hi, int offset,
                     int nbits) {
  const std::uint64_t v = offset >= 64 ? hi >> (offset - 64)
                          : offset == 0
                              ? lo
                              : (lo >> offset) | (hi << (64 - offset));
  return static_cast<std::uint32_t>(v & ((std::uint64_t{1} << nbits) - 1));
}

}  // namespace

std::optional<Tuple5> Tuple5::fromTernary(const Ternary& t) {
  using L = Tuple5Layout;
  if (t.width() != L::kWidth) return std::nullopt;
  const auto care = [&](int offset, int nbits) {
    return bitsAt(t.careWord(0), t.careWord(1), offset, nbits);
  };
  const auto value = [&](int offset, int nbits) {
    return bitsAt(t.valueWord(0), t.valueWord(1), offset, nbits);
  };
  const std::uint32_t src = care(L::kSrcIpOffset, L::kIpBits);
  const std::uint32_t dst = care(L::kDstIpOffset, L::kIpBits);
  const std::uint32_t sport = care(L::kSrcPortOffset, L::kPortBits);
  const std::uint32_t dport = care(L::kDstPortOffset, L::kPortBits);
  const std::uint32_t proto = care(L::kProtoOffset, L::kProtoBits);
  // IP care masks must be leading ones; ports and proto all-care or none.
  const auto isPrefix = [](std::uint32_t c) { return (~c & (~c + 1)) == 0; };
  if (!isPrefix(src) || !isPrefix(dst) || (sport != 0 && sport != 0xffffu) ||
      (dport != 0 && dport != 0xffffu) || (proto != 0 && proto != 0xffu)) {
    return std::nullopt;
  }
  // Value bits outside the care mask are zero by the cube invariant.
  Tuple5 out;
  out.src = {value(L::kSrcIpOffset, L::kIpBits), std::popcount(src)};
  out.dst = {value(L::kDstIpOffset, L::kIpBits), std::popcount(dst)};
  const auto port = [&](int offset, std::uint32_t c) {
    return PortMatch{static_cast<std::uint16_t>(value(offset, L::kPortBits)),
                     c != 0 ? 16 : 0};
  };
  out.srcPort = port(L::kSrcPortOffset, sport);
  out.dstPort = port(L::kDstPortOffset, dport);
  out.proto = {
      static_cast<std::uint8_t>(value(L::kProtoOffset, L::kProtoBits)),
      proto != 0};
  return out;
}

std::string IpPrefix::toString() const {
  std::string out;
  appendTo(out);
  return out;
}

void IpPrefix::appendTo(std::string& out) const {
  for (int shift = 24; shift >= 0; shift -= 8) {
    util::appendInt(out, (addr >> shift) & 0xffu);
    out.push_back(shift == 0 ? '/' : '.');
  }
  util::appendInt(out, length);
}

Ternary Tuple5::toTernary() const {
  Ternary t(Tuple5Layout::kWidth);
  applyPrefix(t, Tuple5Layout::kSrcIpOffset, src);
  applyPrefix(t, Tuple5Layout::kDstIpOffset, dst);
  applyPort(t, Tuple5Layout::kSrcPortOffset, srcPort);
  applyPort(t, Tuple5Layout::kDstPortOffset, dstPort);
  if (proto.exact) {
    for (int j = 0; j < Tuple5Layout::kProtoBits; ++j) {
      t.setBit(Tuple5Layout::kProtoOffset + j,
               static_cast<int>((proto.value >> j) & 1));
    }
  }
  return t;
}

std::string Tuple5::toString() const {
  std::string out = src.toString() + " -> " + dst.toString();
  if (proto.exact) {
    out += proto.value == 6    ? " tcp"
           : proto.value == 17 ? " udp"
                               : " proto=" + std::to_string(proto.value);
  }
  if (srcPort.careBits == 16) out += " sport=" + std::to_string(srcPort.value);
  if (dstPort.careBits == 16) out += " dport=" + std::to_string(dstPort.value);
  return out;
}

Ternary dstPrefixCube(const IpPrefix& prefix) {
  Ternary t(Tuple5Layout::kWidth);
  applyPrefix(t, Tuple5Layout::kDstIpOffset, prefix);
  return t;
}

}  // namespace ruleplace::match
