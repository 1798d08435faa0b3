#pragma once
// 0-1 ILP model intermediate representation.
//
// The rule-placement encoder (src/core/encoder.*) emits models in this IR;
// the optimizer lowers them to the CDCL pseudo-Boolean engine.  Keeping the
// IR separate mirrors the paper's design, where the same constraint system
// is handed either to an ILP solver (optimization) or to an SMT /
// Pseudo-Boolean solver (satisfiability only, §IV-D).
//
// Storage layout (the encode stage's memory is the binding constraint for
// k=64 fabrics, see docs/performance.md "Encode stage"):
//   * Names are packed `NameRef`s — a kind tag plus up to three integer
//     fields — materialized into strings only on the export / diagnostics
//     paths (io::export_model, fix-constraint labels).  A 1.5M-var model
//     carries zero name heap allocations.
//   * Constraint terms live in one util::Arena as CSR spans; the per-row
//     record is a flat POD (`terms* / size / cmp / rhs / constant / name`).
//     constraints() hands out lightweight `ConstraintView`s over that
//     storage, so iteration touches contiguous memory.
//   * The objective is a single arena span with the same view type.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/arena.h"

namespace ruleplace::solver {

using ModelVar = std::int32_t;

/// One (coefficient, variable) entry of a linear expression.
using Term = std::pair<std::int64_t, ModelVar>;

/// Packed lazy name: a kind tag plus up to three integer fields.  The
/// string form ("v_0_1_2", "cap_s7", ...) is produced on demand by
/// Model::name() — never stored.  kCustom indexes the owning Model's
/// string table (for caller-supplied names, mostly in tests).
struct NameRef {
  enum class Kind : std::uint8_t {
    kNone,           ///< unnamed
    kAuto,           ///< "x<a>" — default variable name
    kPlacement,      ///< "v_<a>_<b>_<c>" — placement var (policy, rule, switch)
    kMerge,          ///< "m_<a>_<b>" — merge var (group, switch)
    kDep,            ///< "dep_p<a>_r<b>_s<c>" — Eq.1 shield constraint
    kPath,           ///< "path_p<a>_r<b>" — Eq.2 per-path cover
    kCap,            ///< "cap_s<a>" — Eq.3 switch capacity
    kPresolvePath,   ///< "presolve_cut:p<a>_path<b>"
    kPresolveTotal,  ///< "presolve_cut:total_capacity"
    kFix,            ///< "fix:<varName(a)>" — pinned variable
    kCustom,         ///< string table entry <a> of the owning Model
  };

  Kind kind = Kind::kNone;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;

  bool empty() const noexcept { return kind == Kind::kNone; }

  static NameRef none() noexcept { return {}; }
  static NameRef placement(int policyId, int ruleId, std::int32_t sw) noexcept {
    return {Kind::kPlacement, policyId, ruleId, sw};
  }
  static NameRef merge(int groupId, std::int32_t sw) noexcept {
    return {Kind::kMerge, groupId, sw, 0};
  }
  static NameRef dep(int policyId, int ruleId, std::int32_t sw) noexcept {
    return {Kind::kDep, policyId, ruleId, sw};
  }
  static NameRef path(int policyId, int ruleId) noexcept {
    return {Kind::kPath, policyId, ruleId, 0};
  }
  static NameRef cap(std::int32_t sw) noexcept {
    return {Kind::kCap, sw, 0, 0};
  }
  static NameRef presolvePath(int policyId, int pathIdx) noexcept {
    return {Kind::kPresolvePath, policyId, pathIdx, 0};
  }
  static NameRef presolveTotal() noexcept {
    return {Kind::kPresolveTotal, 0, 0, 0};
  }
  static NameRef fix(ModelVar v) noexcept { return {Kind::kFix, v, 0, 0}; }

  friend bool operator==(const NameRef& x, const NameRef& y) noexcept {
    return x.kind == y.kind && x.a == y.a && x.b == y.b && x.c == y.c;
  }
};

/// A linear expression Σ coeff_i * x_i + constant over binary variables.
/// This is the *builder* form (owning vector); the Model stores finished
/// expressions as arena spans exposed through ExprView.
class LinearExpr {
 public:
  LinearExpr() = default;

  LinearExpr& add(std::int64_t coeff, ModelVar v) {
    if (coeff != 0) terms_.push_back({coeff, v});
    return *this;
  }
  LinearExpr& addConstant(std::int64_t c) {
    constant_ += c;
    return *this;
  }

  const std::vector<Term>& terms() const noexcept { return terms_; }
  std::int64_t constant() const noexcept { return constant_; }
  bool empty() const noexcept { return terms_.empty(); }

  /// Merge duplicate variables (summing coefficients, dropping zeros).
  /// Fast path: an already strictly-sorted, zero-free expression — the
  /// common case for encoder-built rows — is left untouched.
  void canonicalize();

 private:
  std::vector<Term> terms_;
  std::int64_t constant_ = 0;
};

enum class Cmp : std::uint8_t { kLe, kGe, kEq };

/// Non-owning view of a finished linear expression (terms in the Model's
/// arena).  Mirrors the read API of LinearExpr.
class ExprView {
 public:
  ExprView() = default;
  ExprView(const Term* terms, std::uint32_t size, std::int64_t constant)
      : terms_(terms), size_(size), constant_(constant) {}
  /// View of a builder expression (valid while `e` is alive and unchanged).
  explicit ExprView(const LinearExpr& e)
      : terms_(e.terms().data()),
        size_(static_cast<std::uint32_t>(e.terms().size())),
        constant_(e.constant()) {}

  std::span<const Term> terms() const noexcept { return {terms_, size_}; }
  std::int64_t constant() const noexcept { return constant_; }
  bool empty() const noexcept { return size_ == 0; }

  std::int64_t evaluate(const std::vector<bool>& assignment) const {
    std::int64_t total = constant_;
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (assignment.at(static_cast<std::size_t>(terms_[i].second))) {
        total += terms_[i].first;
      }
    }
    return total;
  }

 private:
  const Term* terms_ = nullptr;
  std::uint32_t size_ = 0;
  std::int64_t constant_ = 0;
};

/// Builder-form constraint, for white-box tests that lower ad-hoc rows.
/// The Model itself stores rows in CSR form (see ConstraintView).
struct Constraint {
  LinearExpr expr;
  Cmp cmp = Cmp::kLe;
  std::int64_t rhs = 0;
  NameRef name;  ///< for diagnostics; may be empty
};

/// Non-owning view of one Model row.
struct ConstraintView {
  ExprView expr;
  Cmp cmp = Cmp::kLe;
  std::int64_t rhs = 0;
  NameRef name;

  bool satisfiedBy(const std::vector<bool>& assignment) const {
    std::int64_t lhs = expr.evaluate(assignment);
    switch (cmp) {
      case Cmp::kLe: return lhs <= rhs;
      case Cmp::kGe: return lhs >= rhs;
      case Cmp::kEq: return lhs == rhs;
    }
    return false;
  }
};

/// A 0-1 integer linear program: binary variables, linear constraints, and
/// an optional linear objective to *minimize*.  Term storage is CSR on a
/// util::Arena; the Model is movable but not copyable (raw spans).
class Model {
 private:
  struct ConsRec {
    const Term* terms = nullptr;
    std::uint32_t size = 0;
    Cmp cmp = Cmp::kLe;
    std::int64_t rhs = 0;
    std::int64_t constant = 0;
    NameRef name;
  };

 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Create a binary variable; returns its dense index.
  ModelVar addBinary();
  ModelVar addBinary(NameRef name);
  ModelVar addBinary(std::string name);  ///< empty → default "x<v>"

  void addConstraint(LinearExpr expr, Cmp cmp, std::int64_t rhs);
  void addConstraint(LinearExpr expr, Cmp cmp, std::int64_t rhs, NameRef name);
  void addConstraint(LinearExpr expr, Cmp cmp, std::int64_t rhs,
                     std::string name);

  /// Force a variable's value (a "fix:" row; the encoder forbids
  /// placements upstream of a monitor with it).
  void fixVariable(ModelVar v, bool value);

  void setObjective(LinearExpr objective);

  /// Declare a proven lower bound on the objective value (full value, i.e.
  /// including the objective's constant).  The optimizer adds it as a
  /// constraint and stops as soon as an incumbent attains it — replacing
  /// the LP bound an ILP solver would use to finish counting-style
  /// optimality proofs that are exponential for clause learning alone.
  void setObjectiveLowerBound(std::int64_t bound) {
    objectiveLowerBound_ = bound;
    hasObjectiveLowerBound_ = true;
  }
  bool hasObjectiveLowerBound() const noexcept {
    return hasObjectiveLowerBound_;
  }
  std::int64_t objectiveLowerBound() const noexcept {
    return objectiveLowerBound_;
  }

  int varCount() const noexcept { return static_cast<int>(varNames_.size()); }
  std::size_t constraintCount() const noexcept { return cons_.size(); }

  ConstraintView constraint(std::size_t i) const noexcept {
    const ConsRec& r = cons_[i];
    return {ExprView(r.terms, r.size, r.constant), r.cmp, r.rhs, r.name};
  }

  /// Random-access range of ConstraintViews (by value — they are cheap).
  class ConstraintRange {
   public:
    class iterator {
     public:
      using value_type = ConstraintView;
      using difference_type = std::ptrdiff_t;
      iterator(const Model* m, std::size_t i) : m_(m), i_(i) {}
      ConstraintView operator*() const { return m_->constraint(i_); }
      iterator& operator++() { ++i_; return *this; }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }
      bool operator==(const iterator& o) const { return i_ == o.i_; }

     private:
      const Model* m_;
      std::size_t i_;
    };
    explicit ConstraintRange(const Model* m) : m_(m) {}
    iterator begin() const { return {m_, 0}; }
    iterator end() const { return {m_, m_->constraintCount()}; }
    std::size_t size() const { return m_->constraintCount(); }
    ConstraintView operator[](std::size_t i) const { return m_->constraint(i); }

   private:
    const Model* m_;
  };
  ConstraintRange constraints() const noexcept { return ConstraintRange(this); }

  ExprView objective() const noexcept {
    return ExprView(objTerms_, objSize_, objConstant_);
  }
  bool hasObjective() const noexcept { return hasObjective_; }

  /// Materialize a variable's name (lazy: assembled from its NameRef).
  std::string varName(ModelVar v) const;
  /// Materialize any NameRef against this model's string table.
  std::string name(const NameRef& n) const;
  NameRef varNameRef(ModelVar v) const {
    return varNames_.at(static_cast<std::size_t>(v));
  }

  /// Deep copy.  The implicit copy constructor is deleted because copying
  /// the arena-backed term pool is O(model) and must be explicit.
  Model clone() const;

  /// Total number of (coeff, var) entries across all constraints — the
  /// "model size" statistic reported in §V.
  std::int64_t nonzeroCount() const noexcept;

  /// Bytes held by the model's own storage (arena term pool + row records
  /// + name refs).  The "model bytes" counter of bench_encoder.
  std::size_t memoryBytes() const noexcept;

  /// Exact feasibility check of a full assignment (used by tests and the
  /// optimizer's internal postcondition).
  bool feasible(const std::vector<bool>& assignment) const;

  // --- Bulk append (parallel encoder back end) ----------------------------
  //
  // The two-pass parallel encoder sizes everything up front (vars, rows,
  // terms per policy; prefix-summed), reserves one contiguous region here,
  // and then lets workers fill *disjoint* slices concurrently.  The
  // reservation itself is single-threaded (the arena is not thread-safe);
  // the fills are plain stores into distinct elements, so they are
  // data-race-free.  Bulk rows are trusted: terms must be canonical
  // (strictly increasing vars, no zero coefficients) and reference only
  // variables < varCount() — the encoder guarantees both by construction.

  struct BulkRange {
    ModelVar firstVar = 0;       ///< first of the reserved variable ids
    std::size_t firstCons = 0;   ///< first of the reserved row indices
    Term* terms = nullptr;       ///< contiguous pool of `termCount` terms
  };

  /// Reserve `varCount` variables, `consCount` rows and `termCount` terms.
  BulkRange bulkAppend(int varCount, std::size_t consCount,
                       std::size_t termCount);

  /// Fill one reserved variable / row slot.  Safe to call concurrently for
  /// distinct slots.  `terms` must point into the pool returned by
  /// bulkAppend (or any stable storage outliving the model).
  void setBulkVarName(ModelVar v, NameRef n) noexcept {
    varNames_[static_cast<std::size_t>(v)] = n;
  }
  void setBulkConstraint(std::size_t idx, const Term* terms,
                         std::uint32_t size, Cmp cmp, std::int64_t rhs,
                         NameRef n) noexcept {
    cons_[idx] = ConsRec{terms, size, cmp, rhs, /*constant=*/0, n};
  }

 private:
  void pushConstraint(LinearExpr&& expr, Cmp cmp, std::int64_t rhs,
                      NameRef name);
  NameRef internName(std::string name);

  util::Arena arena_;
  std::vector<NameRef> varNames_;
  std::vector<std::string> customNames_;  // kCustom string table
  std::vector<ConsRec> cons_;
  const Term* objTerms_ = nullptr;
  std::uint32_t objSize_ = 0;
  std::int64_t objConstant_ = 0;
  bool hasObjective_ = false;
  std::int64_t objectiveLowerBound_ = 0;
  bool hasObjectiveLowerBound_ = false;
};

}  // namespace ruleplace::solver
