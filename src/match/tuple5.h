#pragma once
// Packing of the classic firewall 5-tuple into a ternary header cube.
//
// ClassBench-style firewall rules match on (src IP prefix, dst IP prefix,
// src port, dst port, protocol) — 104 bits total.  This module defines the
// field layout used by the synthetic policy generator and by the examples,
// so that generated policies look like the practical-size policies the
// paper's experiments model ([27], [28]).

#include <cstdint>
#include <optional>
#include <string>

#include "match/ternary.h"

namespace ruleplace::match {

/// Field layout (LSB-first offsets within the 104-bit header).
struct Tuple5Layout {
  static constexpr int kProtoOffset = 0;
  static constexpr int kProtoBits = 8;
  static constexpr int kDstPortOffset = 8;
  static constexpr int kPortBits = 16;
  static constexpr int kSrcPortOffset = 24;
  static constexpr int kDstIpOffset = 40;
  static constexpr int kIpBits = 32;
  static constexpr int kSrcIpOffset = 72;
  static constexpr int kWidth = 104;
};

/// An IPv4 prefix, e.g. 10.0.0.0/8.
struct IpPrefix {
  std::uint32_t addr = 0;  ///< network byte-order-independent host value
  int length = 0;          ///< prefix length in [0, 32]

  std::string toString() const;           ///< "a.b.c.d/len"
  void appendTo(std::string& out) const;  ///< toString(), appended
};

/// A port constraint: either wildcard or one exact port or a prefix-aligned
/// range (the subset of ranges TCAMs encode in one entry).
struct PortMatch {
  std::uint16_t value = 0;
  int careBits = 0;  ///< high-order bits constrained; 0 = any, 16 = exact

  static PortMatch any() { return {0, 0}; }
  static PortMatch exact(std::uint16_t p) { return {p, 16}; }
};

/// Protocol constraint: wildcard or exact 8-bit protocol number.
struct ProtoMatch {
  std::uint8_t value = 0;
  bool exact = false;

  static ProtoMatch any() { return {0, false}; }
  static ProtoMatch tcp() { return {6, true}; }
  static ProtoMatch udp() { return {17, true}; }
};

/// A structured 5-tuple match, convertible to a ternary cube.
struct Tuple5 {
  IpPrefix src;
  IpPrefix dst;
  PortMatch srcPort = PortMatch::any();
  PortMatch dstPort = PortMatch::any();
  ProtoMatch proto = ProtoMatch::any();

  /// Lower to the 104-bit ternary representation.
  Ternary toTernary() const;

  /// The match a cube encodes, decoded from its care/value words; nullopt
  /// unless the width is 104, both IPs are prefixes and the ports and proto
  /// are each exact or wildcard.
  static std::optional<Tuple5> fromTernary(const Ternary& t);

  /// Human-readable rendering, e.g. "10.0.0.0/8 -> 11.0.0.0/16 tcp dport=80".
  std::string toString() const;
};

/// Build a cube constraining only the destination-IP field to a prefix
/// (used for path traffic descriptors in path-sliced placement, §IV-C).
Ternary dstPrefixCube(const IpPrefix& prefix);

}  // namespace ruleplace::match
