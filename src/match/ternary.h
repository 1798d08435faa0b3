#pragma once
// Ternary match algebra.
//
// An OpenFlow/TCAM matching field is an array of ternary elements {0,1,*}
// over the packet header bits (paper §II-A).  We represent such a field as a
// *cube*: a pair (care, value) of bit masks, where bit i of `care` says
// whether the rule constrains header bit i, and — if so — `value` holds the
// required bit.  The header width is bounded by kMaxWidth bits (enough for
// the classic 104-bit 5-tuple used by ClassBench-style firewall policies).
//
// The whole rule-placement pipeline is built on this algebra:
//   * dependency-graph construction needs `overlaps` (m_u ∩ m_w ≠ ∅, Eq. 1),
//   * redundancy removal and the semantic verifier need exact set
//     difference, which for cubes yields a small set of disjoint cubes.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ruleplace::match {

/// Maximum supported header width in bits (two 64-bit words).
inline constexpr int kMaxWidth = 128;

/// A ternary cube over a fixed-width header: every header bit is 0, 1 or *.
///
/// Invariants: value bits are zero wherever care is zero; bits at positions
/// >= width() are zero in both words.  Bit 0 is the least significant bit of
/// word 0.
class Ternary {
 public:
  /// The all-wildcard cube of the given width ("match everything").
  explicit Ternary(int width = kMaxWidth);

  /// Construct from a human-readable ternary string, e.g. "10*1".
  /// Character 0 of the string is the MOST significant bit, matching the
  /// conventional way match fields are written in the literature.
  static Ternary fromString(std::string_view s);

  /// Construct a cube that pins bits [offset, offset+nbits) to `bits`
  /// (LSB-first within the field) and leaves every other bit wildcard.
  static Ternary field(int width, int offset, int nbits, std::uint64_t bits);

  /// A fully concrete cube (no wildcards) representing one packet header.
  static Ternary exact(int width, std::uint64_t lo, std::uint64_t hi = 0);

  int width() const noexcept { return width_; }

  /// Number of wildcard (don't-care) bits.
  int wildcardCount() const noexcept;

  /// True if this cube constrains no bit (matches every header).
  bool isFullWildcard() const noexcept;

  /// Does this cube match the concrete header `h` (as a cube of width()
  /// with no wildcards, or any cube — containment of h in this)?
  bool matches(const Ternary& h) const noexcept { return subsumes(h); }

  /// Set one ternary bit: v = 0, 1, or -1 for '*'.
  void setBit(int i, int v);

  /// Get one ternary bit: 0, 1, or -1 for '*'.
  int bit(int i) const noexcept;

  /// Do the two cubes share at least one concrete header?  (m_a ∩ m_b ≠ ∅)
  bool overlaps(const Ternary& other) const noexcept;

  /// Exact intersection; std::nullopt when the cubes are disjoint.
  std::optional<Ternary> intersect(const Ternary& other) const;

  /// Does this cube contain every header the other matches? (this ⊇ other)
  bool subsumes(const Ternary& other) const noexcept;

  /// Set difference this \ other, returned as disjoint cubes.
  /// The result has at most width() cubes.
  std::vector<Ternary> subtract(const Ternary& other) const;

  /// Render as a ternary string, MSB first (inverse of fromString).
  std::string toString() const;

  /// Raw (care, value) words, LSB-first: word 0 covers bits [0, 64), word 1
  /// bits [64, 128).  Exposed for SoA packing (match::PackedCubes) — the
  /// batch overlap kernel needs the masks without per-bit accessors.
  std::uint64_t careWord(int w) const noexcept {
    return care_[static_cast<std::size_t>(w)];
  }
  std::uint64_t valueWord(int w) const noexcept {
    return value_[static_cast<std::size_t>(w)];
  }

  bool operator==(const Ternary& other) const noexcept {
    return width_ == other.width_ && care_ == other.care_ &&
           value_ == other.value_;
  }

  /// Strict weak order so cubes can key maps / be sorted deterministically.
  bool operator<(const Ternary& other) const noexcept;

  /// Stable 64-bit hash (for merge-group bucketing).
  std::uint64_t hash() const noexcept;

 private:
  int width_;
  std::array<std::uint64_t, 2> care_{{0, 0}};
  std::array<std::uint64_t, 2> value_{{0, 0}};
};

}  // namespace ruleplace::match
