#include "solver/sat.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

namespace ruleplace::solver {

namespace {
constexpr double kActivityRescale = 1e100;
constexpr std::int64_t kRestartBase = 128;  ///< Luby unit, in conflicts
}  // namespace

std::int64_t luby(std::int64_t i) {
  // Find the finite subsequence that contains index i, and the index of i in
  // that subsequence (Knuth's formulation).
  std::int64_t size = 1;
  std::int64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return std::int64_t{1} << seq;
}

Solver::Solver() = default;

Var Solver::newVars(int n) {
  const Var first = static_cast<Var>(assigns_.size());
  const std::size_t vars = assigns_.size() + static_cast<std::size_t>(n);
  assigns_.resize(vars, LBool::kUndef);
  polarity_.resize(vars, false);  // "do not place" is the natural first guess
  level_.resize(vars, 0);
  trailIndex_.resize(vars, -1);
  reasons_.resize(vars);
  activity_.resize(vars, 0.0);
  heapIndex_.resize(vars, -1);
  seen_.resize(vars, false);
  watches_.resize(2 * vars);
  cardOccs_.resize(2 * vars);
  pbOccs_.resize(2 * vars);
  for (Var v = first; v < static_cast<Var>(vars); ++v) heapInsert(v);
  return first;
}

// ---- constraint addition ----------------------------------------------------

bool Solver::addClause(std::vector<Lit> lits) {
  if (!ok_) return false;
  if (decisionLevel() != 0) {
    throw std::logic_error("constraints may only be added at level 0");
  }
  std::sort(lits.begin(), lits.end());
  return addSortedClause(lits);
}

bool Solver::addSortedClause(std::span<Lit> lits) {
  // Remove duplicate and root-false literals; detect tautology / root-true.
  // Survivors are compacted in place (a write index never passes the read
  // index), so the caller's buffer doubles as the output.
  std::size_t n = 0;
  Lit prev = Lit::undef();
  for (Lit l : lits) {
    if (value(l) == LBool::kTrue) return true;     // already satisfied
    if (l == ~prev) return true;                   // tautology
    if (value(l) == LBool::kFalse || l == prev) continue;
    lits[n++] = l;
    prev = l;
  }
  if (n == 0) {
    ok_ = false;
    return false;
  }
  if (n == 1) {
    if (!enqueue(lits[0], Reason{})) ok_ = false;
    return ok_;
  }
  pushClause(lits.first(n), 0.0, 0, false);
  attachClause(static_cast<std::int32_t>(clauses_.size() - 1));
  return true;
}

void Solver::pushClause(std::span<const Lit> lits, double activity, int lbd,
                        bool learnt) {
  Clause c;
  c.lits = clauseArena_.allocArray<Lit>(lits.size());
  std::copy(lits.begin(), lits.end(), c.lits);
  c.size = static_cast<std::uint32_t>(lits.size());
  c.activity = activity;
  c.lbd = lbd;
  c.learnt = learnt;
  clauses_.push_back(c);
}

void Solver::attachClause(std::int32_t idx) {
  const Clause& c = clauses_[static_cast<std::size_t>(idx)];
  watches_[static_cast<std::size_t>((~c.lits[0]).code())].push_back(
      Watcher{idx, c.lits[1]});
  watches_[static_cast<std::size_t>((~c.lits[1]).code())].push_back(
      Watcher{idx, c.lits[0]});
}

bool Solver::addCardinality(std::vector<Lit> lits, int bound) {
  if (!ok_) return false;
  if (decisionLevel() != 0) {
    throw std::logic_error("constraints may only be added at level 0");
  }
  if (bound <= 0) return true;  // trivially satisfied
  if (bound == 1) return addClause(std::move(lits));
  // Normalize repeated / complementary literals (addClause handles its
  // own).  A repeated literal contributes its multiplicity and an x/¬x
  // pair contributes a constant 1 — exactly pseudo-Boolean semantics —
  // while the falseCount counter below assumes unique literals, so route
  // such inputs through addPB, whose normalization merges them.
  std::sort(lits.begin(), lits.end());
  bool unique = true;
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (lits[i] == lits[i - 1] || lits[i] == ~lits[i - 1]) {
      unique = false;
      break;
    }
  }
  if (!unique) {
    std::vector<std::pair<std::int64_t, Lit>> terms;
    terms.reserve(lits.size());
    for (Lit l : lits) terms.push_back({1, l});
    return addPB(std::move(terms), bound);
  }
  return addUniqueCardinality(std::move(lits), bound);
}

bool Solver::addUniqueCardinality(std::vector<Lit> lits, int bound) {
  if (static_cast<int>(lits.size()) < bound) {
    ok_ = false;
    return false;
  }
  Card card;
  card.lits = std::move(lits);
  card.bound = bound;
  for (Lit l : card.lits) {
    if (value(l) == LBool::kFalse) ++card.falseCount;
  }
  int rem = static_cast<int>(card.lits.size()) - card.falseCount;
  if (rem < card.bound) {
    ok_ = false;
    return false;
  }
  std::int32_t idx = static_cast<std::int32_t>(cards_.size());
  cards_.push_back(std::move(card));
  for (Lit l : cards_.back().lits) {
    cardOccs_[static_cast<std::size_t>((~l).code())].push_back(idx);
  }
  if (rem == cards_.back().bound) {
    for (Lit l : cards_.back().lits) {
      if (value(l) == LBool::kUndef) {
        if (!enqueue(l, Reason{Reason::Kind::kCard, idx})) {
          ok_ = false;
          return false;
        }
      }
    }
  }
  return true;
}

bool Solver::addPBInPlace(std::vector<std::pair<std::int64_t, Lit>>& terms,
                          std::int64_t bound) {
  if (!ok_) return false;
  if (decisionLevel() != 0) {
    throw std::logic_error("constraints may only be added at level 0");
  }
  for (const auto& [coeff, lit] : terms) {
    (void)lit;
    if (coeff <= 0) {
      throw std::invalid_argument("addPB requires positive coefficients");
    }
  }
  // Normalize to unique literals: repeated literals merge (coefficients
  // add) and complementary x/¬x pairs cancel — min(a, b) of the pair is
  // contributed unconditionally, so it moves into the bound and only the
  // residual |a - b| stays on the stronger literal.  The possibleSum /
  // falseCount propagation counters assume each variable occurs at most
  // once per constraint; without this a duplicated literal would be
  // double-counted on a single assignment.  Lowered model rows arrive
  // sorted by literal already (canonical rows, gate last), so the sort is
  // skipped for them; any literal-sorted order merges to the same terms.
  auto byLit = [](const auto& x, const auto& y) { return x.second < y.second; };
  if (!std::is_sorted(terms.begin(), terms.end(), byLit)) {
    std::sort(terms.begin(), terms.end(), byLit);
  }
  std::size_t j = 0;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (j > 0 && terms[i].second == terms[j - 1].second) {
      terms[j - 1].first += terms[i].first;
    } else if (j > 0 && terms[i].second == ~terms[j - 1].second) {
      const std::int64_t a = terms[j - 1].first;
      const std::int64_t b = terms[i].first;
      bound -= std::min(a, b);
      if (a == b) {
        --j;
      } else if (a > b) {
        terms[j - 1].first = a - b;
      } else {
        terms[j - 1] = {b - a, terms[i].second};
      }
    } else {
      terms[j++] = terms[i];
    }
  }
  terms.resize(j);
  if (bound <= 0) return true;  // satisfied by the cancelled constant part
  if (terms.empty()) {
    ok_ = false;  // positive bound over an empty sum: UNSAT at the root
    return false;
  }
  // possibleSum accumulates the full coefficient sum, so a near-int64
  // total would silently overflow the propagation counters.  Normalize by
  // the coefficient gcd first (Σ a_i·l_i ≥ b  ⇔  Σ (a_i/g)·l_i ≥ ⌈b/g⌉ for
  // 0/1 variables), and reject the constraint outright if the sum still
  // cannot be represented with headroom.
  constexpr std::int64_t kPossibleSumLimit =
      std::numeric_limits<std::int64_t>::max() / 4;
  auto coeffTotal = [](const std::vector<std::pair<std::int64_t, Lit>>& ts,
                       std::int64_t& out) {
    out = 0;
    for (const auto& [coeff, lit] : ts) {
      (void)lit;
      if (__builtin_add_overflow(out, coeff, &out)) return false;
    }
    return true;
  };
  std::int64_t total = 0;
  if (!coeffTotal(terms, total) || total > kPossibleSumLimit ||
      bound > kPossibleSumLimit) {
    std::int64_t g = 0;
    for (const auto& [coeff, lit] : terms) {
      (void)lit;
      g = std::gcd(g, coeff);
    }
    if (g > 1) {
      for (auto& [coeff, lit] : terms) {
        (void)lit;
        coeff /= g;
      }
      bound = bound / g + (bound % g != 0 ? 1 : 0);
    }
    if (!coeffTotal(terms, total) || total > kPossibleSumLimit ||
        bound > kPossibleSumLimit) {
      throw std::overflow_error(
          "addPB: coefficient sum overflows the propagation counters");
    }
  }
  // Coefficients larger than the bound act like the bound (saturation).
  for (auto& [coeff, lit] : terms) {
    (void)lit;
    coeff = std::min(coeff, bound);
  }
  // All-equal coefficients degenerate to a cardinality constraint.
  bool allEqual = true;
  for (const auto& [coeff, lit] : terms) {
    (void)lit;
    if (coeff != terms.front().first) {
      allEqual = false;
      break;
    }
  }
  if (allEqual && !terms.empty()) {
    // The terms are unique and literal-sorted here, which is exactly what
    // addClause / addCardinality would produce after their own sorts, so
    // the row goes straight to clause or cardinality storage.
    const std::int64_t w = terms.front().first;
    const std::int64_t k = (bound + w - 1) / w;
    if (k > static_cast<std::int64_t>(terms.size())) {
      ok_ = false;
      return false;
    }
    litScratch_.clear();
    for (const auto& [coeff, lit] : terms) {
      (void)coeff;
      litScratch_.push_back(lit);
    }
    if (k == 1) return addSortedClause(litScratch_);
    return addUniqueCardinality(
        std::vector<Lit>(litScratch_.begin(), litScratch_.end()),
        static_cast<int>(k));
  }

  PB pb;
  pb.terms.assign(terms.begin(), terms.end());
  pb.bound = bound;
  std::sort(pb.terms.begin(), pb.terms.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  pb.possibleSum = 0;
  for (const auto& [coeff, lit] : pb.terms) {
    if (value(lit) != LBool::kFalse) pb.possibleSum += coeff;
  }
  if (pb.possibleSum < pb.bound) {
    ok_ = false;
    return false;
  }
  std::int32_t idx = static_cast<std::int32_t>(pbs_.size());
  pbs_.push_back(std::move(pb));
  for (const auto& [coeff, lit] : pbs_.back().terms) {
    pbOccs_[static_cast<std::size_t>((~lit).code())].push_back({idx, coeff});
  }
  // Root-level propagation: any term that cannot be false.
  const PB& ref = pbs_.back();
  std::int64_t slack = ref.possibleSum - ref.bound;
  for (const auto& [coeff, lit] : ref.terms) {
    if (coeff <= slack) break;  // sorted descending
    if (value(lit) == LBool::kUndef) {
      if (!enqueue(lit, Reason{Reason::Kind::kPB, idx})) {
        ok_ = false;
        return false;
      }
    }
  }
  return true;
}

// ---- trail ------------------------------------------------------------------

bool Solver::enqueue(Lit p, Reason from) {
  LBool v = value(p);
  if (v == LBool::kTrue) return true;
  if (v == LBool::kFalse) return false;
  Var x = p.var();
  assigns_[static_cast<std::size_t>(x)] =
      p.sign() ? LBool::kFalse : LBool::kTrue;
  level_[static_cast<std::size_t>(x)] = decisionLevel();
  trailIndex_[static_cast<std::size_t>(x)] =
      static_cast<std::int32_t>(trail_.size());
  reasons_[static_cast<std::size_t>(x)] = from;
  trail_.push_back(p);
  // Symmetric counter maintenance: falsify every card/PB term whose literal
  // is ~p.  cancelUntil() applies the exact inverse when popping p.
  for (std::int32_t ci : cardOccs_[static_cast<std::size_t>(p.code())]) {
    ++cards_[static_cast<std::size_t>(ci)].falseCount;
  }
  for (const auto& [pi, coeff] : pbOccs_[static_cast<std::size_t>(p.code())]) {
    pbs_[static_cast<std::size_t>(pi)].possibleSum -= coeff;
  }
  return true;
}

void Solver::cancelUntil(int levelTarget) {
  if (decisionLevel() <= levelTarget) return;
  std::int32_t bound = trailLim_[static_cast<std::size_t>(levelTarget)];
  for (std::int32_t i = static_cast<std::int32_t>(trail_.size()) - 1;
       i >= bound; --i) {
    Lit p = trail_[static_cast<std::size_t>(i)];
    Var x = p.var();
    polarity_[static_cast<std::size_t>(x)] = !p.sign();  // phase saving
    assigns_[static_cast<std::size_t>(x)] = LBool::kUndef;
    reasons_[static_cast<std::size_t>(x)] = {};
    trailIndex_[static_cast<std::size_t>(x)] = -1;
    if (heapIndex_[static_cast<std::size_t>(x)] < 0) heapInsert(x);
    for (std::int32_t ci : cardOccs_[static_cast<std::size_t>(p.code())]) {
      --cards_[static_cast<std::size_t>(ci)].falseCount;
    }
    for (const auto& [pi, coeff] :
         pbOccs_[static_cast<std::size_t>(p.code())]) {
      pbs_[static_cast<std::size_t>(pi)].possibleSum += coeff;
    }
  }
  trail_.resize(static_cast<std::size_t>(bound));
  trailLim_.resize(static_cast<std::size_t>(levelTarget));
  qhead_ = trail_.size();
}

// ---- propagation --------------------------------------------------------------

bool Solver::propagate(std::vector<Lit>& conflictOut) {
  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];
    ++stats_.propagations;
    if (!propagateCards(p, conflictOut)) return false;
    if (!propagatePBs(p, conflictOut)) return false;
    if (!propagateClauses(p, conflictOut)) return false;
  }
  return true;
}

bool Solver::propagateCards(Lit p, std::vector<Lit>& conflictOut) {
  for (std::int32_t ci : cardOccs_[static_cast<std::size_t>(p.code())]) {
    Card& c = cards_[static_cast<std::size_t>(ci)];
    int rem = static_cast<int>(c.lits.size()) - c.falseCount;
    if (rem < c.bound) {
      // Any (n - bound + 1) false literals witness the conflict; use the
      // earliest-assigned ones plus the newest (ensuring a current-level
      // literal for 1-UIP analysis).
      conflictOut.clear();
      for (Lit l : c.lits) {
        if (value(l) == LBool::kFalse) conflictOut.push_back(l);
      }
      std::size_t needed =
          c.lits.size() - static_cast<std::size_t>(c.bound) + 1;
      if (conflictOut.size() > needed) {
        std::sort(conflictOut.begin(), conflictOut.end(), [&](Lit a, Lit b) {
          return trailIndex_[static_cast<std::size_t>(a.var())] <
                 trailIndex_[static_cast<std::size_t>(b.var())];
        });
        // Keep the earliest (needed - 1) plus the most recent literal.
        conflictOut[needed - 1] = conflictOut.back();
        conflictOut.resize(needed);
      }
      return false;
    }
    if (rem == c.bound) {
      for (Lit l : c.lits) {
        if (value(l) == LBool::kUndef) {
          enqueue(l, Reason{Reason::Kind::kCard, ci});
        }
      }
    }
  }
  return true;
}

bool Solver::propagatePBs(Lit p, std::vector<Lit>& conflictOut) {
  for (const auto& [pi, coeff] : pbOccs_[static_cast<std::size_t>(p.code())]) {
    (void)coeff;
    PB& c = pbs_[static_cast<std::size_t>(pi)];
    if (c.possibleSum < c.bound) {
      conflictOut.clear();
      for (const auto& [a, l] : c.terms) {
        (void)a;
        if (value(l) == LBool::kFalse) conflictOut.push_back(l);
      }
      return false;
    }
    std::int64_t slack = c.possibleSum - c.bound;
    for (const auto& [a, l] : c.terms) {
      if (a <= slack) break;  // sorted descending: nothing further forced
      if (value(l) == LBool::kUndef) {
        enqueue(l, Reason{Reason::Kind::kPB, pi});
      }
    }
  }
  return true;
}

bool Solver::propagateClauses(Lit p, std::vector<Lit>& conflictOut) {
  auto& ws = watches_[static_cast<std::size_t>(p.code())];
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ws.size()) {
    Watcher w = ws[i];
    if (value(w.blocker) == LBool::kTrue) {
      ws[j++] = ws[i++];
      continue;
    }
    Clause& c = clauses_[static_cast<std::size_t>(w.clauseIdx)];
    if (c.deleted) {
      ++i;  // drop the watcher
      continue;
    }
    const Lit falseLit = ~p;
    if (c.lits[0] == falseLit) std::swap(c.lits[0], c.lits[1]);
    // Now c.lits[1] == falseLit.
    const Lit first = c.lits[0];
    const Watcher updated{w.clauseIdx, first};
    if (first != w.blocker && value(first) == LBool::kTrue) {
      ws[j++] = updated;
      ++i;
      continue;
    }
    bool moved = false;
    for (std::size_t k = 2; k < c.size; ++k) {
      if (value(c.lits[k]) != LBool::kFalse) {
        std::swap(c.lits[1], c.lits[k]);
        watches_[static_cast<std::size_t>((~c.lits[1]).code())].push_back(
            updated);
        moved = true;
        break;
      }
    }
    if (moved) {
      ++i;
      continue;
    }
    // Unit or conflicting.
    ws[j++] = updated;
    ++i;
    if (value(first) == LBool::kFalse) {
      conflictOut.assign(c.begin(), c.end());
      while (i < ws.size()) ws[j++] = ws[i++];
      ws.resize(j);
      qhead_ = trail_.size();
      return false;
    }
    enqueue(first, Reason{Reason::Kind::kClause, w.clauseIdx});
  }
  ws.resize(j);
  return true;
}

// ---- conflict analysis ---------------------------------------------------------

void Solver::reasonLits(Lit p, const Reason& r, std::vector<Lit>& out) const {
  out.clear();
  switch (r.kind) {
    case Reason::Kind::kNone:
      return;
    case Reason::Kind::kClause: {
      const Clause& c = clauses_[static_cast<std::size_t>(r.idx)];
      for (Lit l : c) {
        if (l != p) out.push_back(l);
      }
      return;
    }
    case Reason::Kind::kCard: {
      // Any (n - bound) false literals assigned before p explain the
      // propagation; prefer the earliest-assigned ones (lower levels ->
      // smaller learned-clause LBD and deeper backjumps).
      const Card& c = cards_[static_cast<std::size_t>(r.idx)];
      std::int32_t pIdx = trailIndex_[static_cast<std::size_t>(p.var())];
      for (Lit l : c.lits) {
        if (value(l) == LBool::kFalse &&
            trailIndex_[static_cast<std::size_t>(l.var())] < pIdx) {
          out.push_back(l);
        }
      }
      std::size_t needed = c.lits.size() - static_cast<std::size_t>(c.bound);
      if (out.size() > needed) {
        std::sort(out.begin(), out.end(), [&](Lit a, Lit b) {
          return trailIndex_[static_cast<std::size_t>(a.var())] <
                 trailIndex_[static_cast<std::size_t>(b.var())];
        });
        out.resize(needed);
      }
      return;
    }
    case Reason::Kind::kPB: {
      const PB& c = pbs_[static_cast<std::size_t>(r.idx)];
      std::int32_t pIdx = trailIndex_[static_cast<std::size_t>(p.var())];
      for (const auto& [a, l] : c.terms) {
        (void)a;
        if (value(l) == LBool::kFalse &&
            trailIndex_[static_cast<std::size_t>(l.var())] < pIdx) {
          out.push_back(l);
        }
      }
      return;
    }
  }
}

void Solver::analyze(const std::vector<Lit>& conflict, std::vector<Lit>& learnt,
                     int& backtrackLevel) {
  learnt.clear();
  learnt.push_back(Lit::undef());  // slot for the asserting literal
  std::vector<Var> toClear;
  int pathC = 0;
  Lit p = Lit::undef();
  std::int32_t index = static_cast<std::int32_t>(trail_.size()) - 1;
  std::vector<Lit> current = conflict;
  std::vector<Lit> reasonBuf;

  while (true) {
    for (Lit q : current) {
      Var v = q.var();
      if (!seen_[static_cast<std::size_t>(v)] &&
          level_[static_cast<std::size_t>(v)] > 0) {
        seen_[static_cast<std::size_t>(v)] = true;
        toClear.push_back(v);
        varBump(v);
        if (level_[static_cast<std::size_t>(v)] == decisionLevel()) {
          ++pathC;
        } else {
          learnt.push_back(q);
        }
      }
    }
    while (!seen_[static_cast<std::size_t>(
        trail_[static_cast<std::size_t>(index)].var())]) {
      --index;
    }
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    seen_[static_cast<std::size_t>(p.var())] = false;
    --pathC;
    if (pathC <= 0) break;
    const Reason& pr = reasons_[static_cast<std::size_t>(p.var())];
    if (pr.kind == Reason::Kind::kClause) {
      claBump(clauses_[static_cast<std::size_t>(pr.idx)]);
    }
    reasonLits(p, pr, reasonBuf);
    current = reasonBuf;
  }
  learnt[0] = ~p;
  // p's var seen flag was cleared above but it still needs clearing from
  // toClear duplicates at the end; re-mark for minimization correctness.
  seen_[static_cast<std::size_t>(p.var())] = true;

  minimizeLearnt(learnt);

  // Find the backtrack level: highest level among learnt[1..].
  backtrackLevel = 0;
  if (learnt.size() > 1) {
    std::size_t maxIdx = 1;
    for (std::size_t k = 2; k < learnt.size(); ++k) {
      if (level_[static_cast<std::size_t>(learnt[k].var())] >
          level_[static_cast<std::size_t>(learnt[maxIdx].var())]) {
        maxIdx = k;
      }
    }
    std::swap(learnt[1], learnt[maxIdx]);
    backtrackLevel = level_[static_cast<std::size_t>(learnt[1].var())];
  }

  for (Var v : toClear) seen_[static_cast<std::size_t>(v)] = false;
  seen_[static_cast<std::size_t>(p.var())] = false;
}

void Solver::claBump(Clause& c) {
  c.activity += claInc_;
  if (c.activity > 1e20) {
    for (Clause& cl : clauses_) {
      if (cl.learnt) cl.activity *= 1e-20;
    }
    claInc_ *= 1e-20;
  }
}

void Solver::analyzeFinal(Lit p) {
  unsatCore_.clear();
  unsatCore_.push_back(p);
  if (decisionLevel() == 0 ||
      level_[static_cast<std::size_t>(p.var())] == 0) {
    // Falsified at the root: {p} alone contradicts the database.
    return;
  }
  seen_[static_cast<std::size_t>(p.var())] = true;
  std::vector<Lit> reasonBuf;
  for (std::int32_t i = static_cast<std::int32_t>(trail_.size()) - 1;
       i >= trailLim_[0]; --i) {
    Lit q = trail_[static_cast<std::size_t>(i)];
    Var x = q.var();
    if (!seen_[static_cast<std::size_t>(x)]) continue;
    const Reason& r = reasons_[static_cast<std::size_t>(x)];
    if (r.kind == Reason::Kind::kNone) {
      // A pseudo-decision above level 0 is exactly an assumption literal.
      unsatCore_.push_back(q);
    } else {
      reasonLits(q, r, reasonBuf);
      for (Lit l : reasonBuf) {
        if (level_[static_cast<std::size_t>(l.var())] > 0) {
          seen_[static_cast<std::size_t>(l.var())] = true;
        }
      }
    }
    seen_[static_cast<std::size_t>(x)] = false;
  }
  seen_[static_cast<std::size_t>(p.var())] = false;
}

void Solver::minimizeLearnt(std::vector<Lit>& learnt) {
  // Local (non-recursive) minimization: a literal is redundant if every
  // literal of its reason is already in the learnt clause (seen) or fixed
  // at level 0.
  std::vector<Lit> reasonBuf;
  std::size_t j = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    Var v = learnt[i].var();
    const Reason& r = reasons_[static_cast<std::size_t>(v)];
    if (r.kind == Reason::Kind::kNone) {
      learnt[j++] = learnt[i];
      continue;
    }
    reasonLits(~learnt[i], r, reasonBuf);
    bool redundant = true;
    for (Lit q : reasonBuf) {
      if (!seen_[static_cast<std::size_t>(q.var())] &&
          level_[static_cast<std::size_t>(q.var())] > 0) {
        redundant = false;
        break;
      }
    }
    if (!redundant) learnt[j++] = learnt[i];
  }
  learnt.resize(j);
}

// ---- VSIDS heap ------------------------------------------------------------------

void Solver::varBump(Var v) {
  activity_[static_cast<std::size_t>(v)] += varInc_;
  if (activity_[static_cast<std::size_t>(v)] > kActivityRescale) {
    rescaleActivity();
  }
  if (heapIndex_[static_cast<std::size_t>(v)] >= 0) {
    heapUp(heapIndex_[static_cast<std::size_t>(v)]);
  }
}

void Solver::rescaleActivity() {
  for (double& a : activity_) a *= 1e-100;
  varInc_ *= 1e-100;
}

void Solver::heapUp(std::int32_t i) {
  Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    std::int32_t parent = (i - 1) / 2;
    if (!heapLess(v, heap_[static_cast<std::size_t>(parent)])) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heapIndex_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapIndex_[static_cast<std::size_t>(v)] = i;
}

void Solver::heapDown(std::int32_t i) {
  Var v = heap_[static_cast<std::size_t>(i)];
  std::int32_t n = static_cast<std::int32_t>(heap_.size());
  while (true) {
    std::int32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heapLess(heap_[static_cast<std::size_t>(child + 1)],
                                  heap_[static_cast<std::size_t>(child)])) {
      ++child;
    }
    if (!heapLess(heap_[static_cast<std::size_t>(child)], v)) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heapIndex_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapIndex_[static_cast<std::size_t>(v)] = i;
}

void Solver::heapInsert(Var v) {
  heap_.push_back(v);
  heapIndex_[static_cast<std::size_t>(v)] =
      static_cast<std::int32_t>(heap_.size()) - 1;
  heapUp(static_cast<std::int32_t>(heap_.size()) - 1);
}

Var Solver::heapPop() {
  // Move the last element into the root *before* clearing the popped
  // var's index: when the heap holds a single element the move is a
  // self-assignment, and clearing first would be undone by the re-seat —
  // leaving heapIndex_[top] claiming a slot in an empty heap.  Such a var
  // is then skipped by cancelUntil()'s reinsertion check forever, so later
  // solve() calls return "full" models with genuinely unassigned vars.
  Var top = heap_[0];
  heap_[0] = heap_.back();
  heapIndex_[static_cast<std::size_t>(heap_[0])] = 0;
  heap_.pop_back();
  heapIndex_[static_cast<std::size_t>(top)] = -1;
  if (!heap_.empty()) heapDown(0);
  return top;
}

Lit Solver::pickBranchLit() {
  while (!heap_.empty()) {
    Var v = heapPop();
    if (value(v) == LBool::kUndef) {
      return Lit(v, !polarity_[static_cast<std::size_t>(v)]);
    }
  }
  return Lit::undef();
}

// ---- learnt clause management -------------------------------------------------

void Solver::reduceDB() {
  // Collect learnt, non-locked clause indices and delete the worse half
  // (high LBD, low activity).
  std::vector<std::int32_t> candidates;
  for (std::size_t i = 0; i < clauses_.size(); ++i) {
    const Clause& c = clauses_[i];
    if (!c.learnt || c.deleted || c.lbd <= 2 || c.size <= 2) continue;
    // Locked: clause is the reason of its first literal's assignment.
    Var v = c.lits[0].var();
    const Reason& r = reasons_[static_cast<std::size_t>(v)];
    if (value(c.lits[0]) == LBool::kTrue && r.kind == Reason::Kind::kClause &&
        r.idx == static_cast<std::int32_t>(i)) {
      continue;
    }
    candidates.push_back(static_cast<std::int32_t>(i));
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](std::int32_t a, std::int32_t b) {
              const Clause& ca = clauses_[static_cast<std::size_t>(a)];
              const Clause& cb = clauses_[static_cast<std::size_t>(b)];
              if (ca.lbd != cb.lbd) return ca.lbd > cb.lbd;
              return ca.activity < cb.activity;
            });
  std::size_t toDelete = candidates.size() / 2;
  for (std::size_t i = 0; i < toDelete; ++i) {
    clauses_[static_cast<std::size_t>(candidates[i])].deleted = true;
    ++stats_.deletedClauses;
    --learntCount_;
  }
  if (toDelete > 0) compactClauseDB();
}

void Solver::compactClauseDB() {
  // Physically erase tombstoned clauses.  Without this, clauses_ and the
  // stale Watcher entries referencing deleted clauses grow without bound
  // across long optimization runs.  Compaction renumbers clauses, so every
  // stored clause index — watcher lists and clausal reasons on the trail —
  // is rebuilt or remapped.
  std::vector<std::int32_t> remap(clauses_.size(), -1);
  std::size_t alive = 0;
  for (std::size_t i = 0; i < clauses_.size(); ++i) {
    if (clauses_[i].deleted) continue;
    remap[i] = static_cast<std::int32_t>(alive);
    if (alive != i) clauses_[alive] = clauses_[i];
    ++alive;
  }
  clauses_.resize(alive);
  // Migrate survivor literal arrays into a fresh arena generation and
  // retire the old one — deleted clauses' literals go with it, and the
  // survivors end up contiguous again (propagation locality degrades as
  // the learnt DB fragments across generations).
  {
    util::Arena fresh(std::clamp(clauseArena_.bytesUsed() / 2,
                                 util::Arena::kDefaultChunkBytes,
                                 util::Arena::kMaxChunkBytes));
    for (Clause& c : clauses_) {
      Lit* nl = fresh.allocArray<Lit>(c.size);
      std::copy(c.lits, c.lits + c.size, nl);
      c.lits = nl;
    }
    clauseArena_ = std::move(fresh);
  }
  // Rebuild the watcher lists from scratch.  The watched literals of a
  // clause are always lits[0] and lits[1] (propagateClauses maintains that
  // positional invariant), so re-attaching preserves the two-watched
  // scheme exactly; blockers are heuristic and may be refreshed freely.
  for (auto& ws : watches_) ws.clear();
  for (std::size_t i = 0; i < clauses_.size(); ++i) {
    attachClause(static_cast<std::int32_t>(i));
  }
  // Remap clausal reasons.  Every assigned variable sits on the trail, so
  // this covers all live Reason records; reduceDB never deletes a locked
  // clause, which the assert double-checks.
  for (Lit p : trail_) {
    Reason& r = reasons_[static_cast<std::size_t>(p.var())];
    if (r.kind != Reason::Kind::kClause) continue;
    assert(remap[static_cast<std::size_t>(r.idx)] >= 0 &&
           "reason points at a deleted clause");
    r.idx = remap[static_cast<std::size_t>(r.idx)];
  }
}

// ---- main search ---------------------------------------------------------------

SolveStatus Solver::solve(const Budget& budget) {
  static const std::vector<Lit> kNoAssumptions;
  return solve(kNoAssumptions, budget);
}

SolveStatus Solver::solve(const std::vector<Lit>& assumptions,
                          const Budget& budget) {
  unsatCore_.clear();
  if (!ok_) return SolveStatus::kUnsat;
  const auto startTime = std::chrono::steady_clock::now();
  auto timedOut = [&] {
    if (budget.deadline.expired()) return true;
    if (budget.unlimitedTime()) return false;
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - startTime)
                       .count();
    return elapsed > budget.maxSeconds;
  };
  const std::int64_t conflictBudget =
      budget.unlimitedConflicts() ? -1
                                  : stats_.conflicts + budget.maxConflicts;
  // Coarse propagation tick: PB-heavy instances can propagate for a long
  // time without producing conflicts or decisions, so those two check
  // points alone would let them overrun a deadline.  Checked outside the
  // propagation hot loop, ~every 128k propagations.
  constexpr std::int64_t kPropCheckInterval = std::int64_t{1} << 17;
  std::int64_t nextPropCheck = stats_.propagations + kPropCheckInterval;

  cancelUntil(0);
  std::vector<Lit> conflict;
  std::vector<Lit> learnt;
  std::int64_t conflictsThisRestart = 0;
  std::int64_t restartLimit = kRestartBase * luby(restartCycle_);

  while (true) {
    if (!propagate(conflict)) {
      // Conflict.
      ++stats_.conflicts;
      ++conflictsThisRestart;
      if (decisionLevel() == 0) {
        ok_ = false;
        return SolveStatus::kUnsat;
      }
      int backtrackLevel = 0;
      analyze(conflict, learnt, backtrackLevel);
      claDecay();
      cancelUntil(backtrackLevel);
      if (learnt.size() == 1) {
        enqueue(learnt[0], Reason{});
      } else {
        // Compute LBD (number of distinct decision levels).
        int lbd = 0;
        {
          std::vector<int> levels;
          levels.reserve(learnt.size());
          for (Lit l : learnt) {
            levels.push_back(level_[static_cast<std::size_t>(l.var())]);
          }
          std::sort(levels.begin(), levels.end());
          lbd = static_cast<int>(
              std::unique(levels.begin(), levels.end()) - levels.begin());
        }
        stats_.recordLbd(lbd);
        pushClause(learnt, claInc_, lbd, true);
        ++learntCount_;
        stats_.learntLiterals += static_cast<std::int64_t>(learnt.size());
        attachClause(static_cast<std::int32_t>(clauses_.size() - 1));
        enqueue(learnt[0],
                Reason{Reason::Kind::kClause,
                       static_cast<std::int32_t>(clauses_.size() - 1)});
      }
      varDecay();
      if ((stats_.conflicts & 0x3ff) == 0 && timedOut()) {
        cancelUntil(0);
        return SolveStatus::kUnknown;
      }
      if (conflictBudget >= 0 && stats_.conflicts >= conflictBudget) {
        cancelUntil(0);
        return SolveStatus::kUnknown;
      }
      continue;
    }

    // No conflict.
    if (stats_.propagations >= nextPropCheck) {
      nextPropCheck = stats_.propagations + kPropCheckInterval;
      if (timedOut()) {
        cancelUntil(0);
        return SolveStatus::kUnknown;
      }
    }
    if (conflictsThisRestart >= restartLimit) {
      ++stats_.restarts;
      ++restartCycle_;
      conflictsThisRestart = 0;
      restartLimit = kRestartBase * luby(restartCycle_);
      cancelUntil(0);
      if (timedOut()) return SolveStatus::kUnknown;
      continue;
    }
    if (learntCount_ >= reduceLimit_) {
      reduceDB();
      reduceLimit_ += reduceLimit_ / 2;
    }
    // Re-establish the assumption prefix: level i+1 carries assumptions[i]
    // as a pseudo-decision.  An already-true assumption still gets its own
    // (empty) level so the alignment survives backjumps and restarts; a
    // false one means UNSAT under these assumptions — extract the final
    // conflict core and return with the solver still usable.
    Lit next = Lit::undef();
    while (decisionLevel() < static_cast<int>(assumptions.size())) {
      Lit p = assumptions[static_cast<std::size_t>(decisionLevel())];
      if (value(p) == LBool::kTrue) {
        newDecisionLevel();
      } else if (value(p) == LBool::kFalse) {
        analyzeFinal(p);
        cancelUntil(0);
        return SolveStatus::kUnsat;
      } else {
        next = p;
        break;
      }
    }
    if (next == Lit::undef()) next = pickBranchLit();
    if (next == Lit::undef()) {
      // Full model.
      model_.assign(static_cast<std::size_t>(varCount()), false);
      for (int v = 0; v < varCount(); ++v) {
        model_[static_cast<std::size_t>(v)] = (value(v) == LBool::kTrue);
      }
      cancelUntil(0);
      return SolveStatus::kSat;
    }
    ++stats_.decisions;
    newDecisionLevel();
    enqueue(next, Reason{});
    if ((stats_.decisions & 0xfff) == 0 && timedOut()) {
      cancelUntil(0);
      return SolveStatus::kUnknown;
    }
  }
}

}  // namespace ruleplace::solver
