#include "solver/model.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace ruleplace::solver {

void LinearExpr::canonicalize() {
  // Fast path: encoder-built rows are already strictly sorted by variable
  // with no zero coefficients — skip the sort and the merge copy.
  bool clean = true;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (terms_[i].first == 0 ||
        (i > 0 && terms_[i - 1].second >= terms_[i].second)) {
      clean = false;
      break;
    }
  }
  if (clean) return;
  std::sort(terms_.begin(), terms_.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<Term> merged;
  for (const auto& [coeff, v] : terms_) {
    if (!merged.empty() && merged.back().second == v) {
      merged.back().first += coeff;
    } else {
      merged.push_back({coeff, v});
    }
  }
  std::erase_if(merged, [](const auto& t) { return t.first == 0; });
  terms_ = std::move(merged);
}

ModelVar Model::addBinary() {
  ModelVar v = static_cast<ModelVar>(varNames_.size());
  varNames_.push_back(NameRef{NameRef::Kind::kAuto, v, 0, 0});
  return v;
}

ModelVar Model::addBinary(NameRef name) {
  ModelVar v = static_cast<ModelVar>(varNames_.size());
  if (name.empty()) name = NameRef{NameRef::Kind::kAuto, v, 0, 0};
  varNames_.push_back(name);
  return v;
}

ModelVar Model::addBinary(std::string name) {
  ModelVar v = static_cast<ModelVar>(varNames_.size());
  if (name.empty()) {
    varNames_.push_back(NameRef{NameRef::Kind::kAuto, v, 0, 0});
  } else {
    varNames_.push_back(internName(std::move(name)));
  }
  return v;
}

NameRef Model::internName(std::string name) {
  NameRef n{NameRef::Kind::kCustom,
            static_cast<std::int32_t>(customNames_.size()), 0, 0};
  customNames_.push_back(std::move(name));
  return n;
}

void Model::pushConstraint(LinearExpr&& expr, Cmp cmp, std::int64_t rhs,
                           NameRef name) {
  expr.canonicalize();
  for (const auto& [coeff, v] : expr.terms()) {
    (void)coeff;
    if (v < 0 || v >= varCount()) {
      throw std::out_of_range("constraint references unknown variable");
    }
  }
  const std::size_t n = expr.terms().size();
  Term* terms = arena_.allocArray<Term>(n);
  std::copy(expr.terms().begin(), expr.terms().end(), terms);
  cons_.push_back(ConsRec{terms, static_cast<std::uint32_t>(n), cmp, rhs,
                          expr.constant(), name});
}

void Model::addConstraint(LinearExpr expr, Cmp cmp, std::int64_t rhs) {
  pushConstraint(std::move(expr), cmp, rhs, NameRef::none());
}

void Model::addConstraint(LinearExpr expr, Cmp cmp, std::int64_t rhs,
                          NameRef name) {
  pushConstraint(std::move(expr), cmp, rhs, name);
}

void Model::addConstraint(LinearExpr expr, Cmp cmp, std::int64_t rhs,
                          std::string name) {
  NameRef n = name.empty() ? NameRef::none() : internName(std::move(name));
  pushConstraint(std::move(expr), cmp, rhs, n);
}

void Model::fixVariable(ModelVar v, bool value) {
  LinearExpr e;
  e.add(1, v);
  addConstraint(std::move(e), Cmp::kEq, value ? 1 : 0, NameRef::fix(v));
}

void Model::setObjective(LinearExpr objective) {
  objective.canonicalize();
  const std::size_t n = objective.terms().size();
  Term* terms = arena_.allocArray<Term>(n);
  std::copy(objective.terms().begin(), objective.terms().end(), terms);
  objTerms_ = terms;
  objSize_ = static_cast<std::uint32_t>(n);
  objConstant_ = objective.constant();
  hasObjective_ = true;
}

std::string Model::varName(ModelVar v) const {
  return name(varNames_.at(static_cast<std::size_t>(v)));
}

std::string Model::name(const NameRef& n) const {
  char buf[64];
  switch (n.kind) {
    case NameRef::Kind::kNone:
      return {};
    case NameRef::Kind::kAuto:
      std::snprintf(buf, sizeof(buf), "x%d", n.a);
      return buf;
    case NameRef::Kind::kPlacement:
      std::snprintf(buf, sizeof(buf), "v_%d_%d_%d", n.a, n.b, n.c);
      return buf;
    case NameRef::Kind::kMerge:
      std::snprintf(buf, sizeof(buf), "m_%d_%d", n.a, n.b);
      return buf;
    case NameRef::Kind::kDep:
      std::snprintf(buf, sizeof(buf), "dep_p%d_r%d_s%d", n.a, n.b, n.c);
      return buf;
    case NameRef::Kind::kPath:
      std::snprintf(buf, sizeof(buf), "path_p%d_r%d", n.a, n.b);
      return buf;
    case NameRef::Kind::kCap:
      std::snprintf(buf, sizeof(buf), "cap_s%d", n.a);
      return buf;
    case NameRef::Kind::kPresolvePath:
      std::snprintf(buf, sizeof(buf), "presolve_cut:p%d_path%d", n.a, n.b);
      return buf;
    case NameRef::Kind::kPresolveTotal:
      return "presolve_cut:total_capacity";
    case NameRef::Kind::kFix:
      return "fix:" + varName(n.a);
    case NameRef::Kind::kCustom:
      return customNames_.at(static_cast<std::size_t>(n.a));
  }
  return {};
}

Model Model::clone() const {
  Model out;
  out.varNames_ = varNames_;
  out.customNames_ = customNames_;
  out.cons_.reserve(cons_.size());
  for (const ConsRec& r : cons_) {
    Term* terms = out.arena_.allocArray<Term>(r.size);
    std::copy(r.terms, r.terms + r.size, terms);
    out.cons_.push_back({terms, r.size, r.cmp, r.rhs, r.constant, r.name});
  }
  if (hasObjective_) {
    Term* terms = out.arena_.allocArray<Term>(objSize_);
    std::copy(objTerms_, objTerms_ + objSize_, terms);
    out.objTerms_ = terms;
    out.objSize_ = objSize_;
    out.objConstant_ = objConstant_;
    out.hasObjective_ = true;
  }
  out.objectiveLowerBound_ = objectiveLowerBound_;
  out.hasObjectiveLowerBound_ = hasObjectiveLowerBound_;
  return out;
}

std::int64_t Model::nonzeroCount() const noexcept {
  std::int64_t n = 0;
  for (const auto& r : cons_) n += r.size;
  return n;
}

std::size_t Model::memoryBytes() const noexcept {
  return arena_.bytesUsed() + cons_.capacity() * sizeof(ConsRec) +
         varNames_.capacity() * sizeof(NameRef);
}

bool Model::feasible(const std::vector<bool>& assignment) const {
  if (assignment.size() != static_cast<std::size_t>(varCount())) return false;
  for (std::size_t i = 0; i < cons_.size(); ++i) {
    if (!constraint(i).satisfiedBy(assignment)) return false;
  }
  return true;
}

Model::BulkRange Model::bulkAppend(int varCount, std::size_t consCount,
                                   std::size_t termCount) {
  BulkRange r;
  r.firstVar = static_cast<ModelVar>(varNames_.size());
  r.firstCons = cons_.size();
  varNames_.resize(varNames_.size() + static_cast<std::size_t>(varCount));
  cons_.resize(cons_.size() + consCount);
  r.terms = arena_.allocArray<Term>(termCount);
  return r;
}

}  // namespace ruleplace::solver
