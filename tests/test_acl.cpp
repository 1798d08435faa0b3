// Tests for the ACL policy model, first-match semantics, drop sets, and
// complete redundancy removal.

#include <gtest/gtest.h>

#include "acl/policy.h"
#include "acl/redundancy.h"
#include "classbench/generator.h"
#include "match/tuple5.h"
#include "util/rng.h"

namespace ruleplace::acl {
namespace {

using match::CubeSet;
using match::Ternary;

Ternary T(const char* s) { return Ternary::fromString(s); }

TEST(Policy, RulesKeptInPriorityOrder) {
  Policy q;
  q.addRuleWithPriority(T("00"), Action::kDrop, 5);
  q.addRuleWithPriority(T("01"), Action::kPermit, 10);
  q.addRuleWithPriority(T("10"), Action::kDrop, 7);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.rules()[0].priority, 10);
  EXPECT_EQ(q.rules()[1].priority, 7);
  EXPECT_EQ(q.rules()[2].priority, 5);
}

TEST(Policy, PrioritiesAreStrictlyUnique) {
  Policy q;
  q.addRuleWithPriority(T("00"), Action::kDrop, 5);
  EXPECT_THROW(q.addRuleWithPriority(T("11"), Action::kPermit, 5),
               std::invalid_argument);
}

TEST(Policy, WidthMustMatch) {
  Policy q;
  q.addRule(T("00"), Action::kDrop);
  EXPECT_THROW(q.addRule(T("000"), Action::kDrop), std::invalid_argument);
}

TEST(Policy, FirstMatchEvaluation) {
  Policy q;
  q.addRule(T("1*"), Action::kPermit);  // higher priority
  q.addRule(T("**"), Action::kDrop);
  EXPECT_EQ(q.evaluate(T("10")), Action::kPermit);
  EXPECT_EQ(q.evaluate(T("01")), Action::kDrop);
}

TEST(Policy, DefaultIsPermit) {
  Policy q;
  q.addRule(T("11"), Action::kDrop);
  EXPECT_EQ(q.evaluate(T("00")), Action::kPermit);
  EXPECT_EQ(q.firstMatch(T("00")), nullptr);
}

TEST(Policy, RemoveRule) {
  Policy q;
  int id = q.addRule(T("11"), Action::kDrop);
  EXPECT_TRUE(q.removeRule(id));
  EXPECT_FALSE(q.removeRule(id));
  EXPECT_TRUE(q.empty());
}

// findRule() goes through the id -> position index; every rule must be
// found at its current position after each kind of mutation.
void expectIndexed(const Policy& q) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    const Rule& r = q.rules()[i];
    EXPECT_EQ(q.findRule(r.id), &r) << "rule id " << r.id;
    EXPECT_EQ(q.positionOf(r.id), static_cast<int>(i)) << "rule id " << r.id;
  }
}

TEST(Policy, FindRuleAfterMidListInsert) {
  Policy q;
  const int a = q.addRuleWithPriority(T("00"), Action::kDrop, 30);
  const int b = q.addRuleWithPriority(T("01"), Action::kPermit, 10);
  const int c = q.addRuleWithPriority(T("10"), Action::kDrop, 20);  // middle
  const int d = q.addRuleWithPriority(T("11"), Action::kDrop, 40);  // front
  expectIndexed(q);
  EXPECT_EQ(q.positionOf(d), 0);
  EXPECT_EQ(q.positionOf(a), 1);
  EXPECT_EQ(q.positionOf(c), 2);
  EXPECT_EQ(q.positionOf(b), 3);
  EXPECT_EQ(q.findRule(c)->priority, 20);
  EXPECT_EQ(q.findRule(-1), nullptr);
  EXPECT_EQ(q.findRule(d + 1), nullptr);  // past the last issued id
  EXPECT_EQ(q.positionOf(-1), -1);
}

TEST(Policy, FindRuleAfterRemove) {
  Policy q;
  std::vector<int> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(q.addRule(T("0*"), Action::kDrop));
  ASSERT_TRUE(q.removeRule(ids[2]));
  ASSERT_TRUE(q.removeRule(ids[0]));
  EXPECT_EQ(q.findRule(ids[2]), nullptr);
  EXPECT_EQ(q.findRule(ids[0]), nullptr);
  EXPECT_EQ(q.positionOf(ids[2]), -1);
  expectIndexed(q);
  EXPECT_EQ(q.positionOf(ids[1]), 0);
  EXPECT_EQ(q.positionOf(ids[5]), 3);
  // Ids are never reused: a new rule gets a fresh one and is indexed.
  const int fresh = q.addRuleWithPriority(T("1*"), Action::kPermit, 100);
  EXPECT_GT(fresh, ids.back());
  EXPECT_EQ(q.positionOf(fresh), 0);
  expectIndexed(q);
}

TEST(Policy, FindRuleAfterRemovingTheLastRule) {
  Policy q;
  for (int i = 0; i < 3; ++i) q.addRule(T("0*"), Action::kDrop);
  ASSERT_TRUE(q.removeRule(2));
  // The next id (3) lands at position 2, so ids no longer equal positions.
  const int next = q.addRule(T("1*"), Action::kPermit);
  EXPECT_EQ(next, 3);
  EXPECT_EQ(q.findRule(2), nullptr);
  EXPECT_EQ(q.positionOf(next), 2);
  expectIndexed(q);
}

TEST(Policy, FindRuleOnACopiedPolicy) {
  Policy q;
  q.addRule(T("00"), Action::kDrop);
  const int mid = q.addRule(T("01"), Action::kPermit);
  q.addRule(T("1*"), Action::kDrop);
  Policy copy = q;
  ASSERT_TRUE(copy.removeRule(mid));
  copy.addRuleWithPriority(T("11"), Action::kPermit, 5);
  // The copy's index points into the copy, and the original is untouched.
  expectIndexed(copy);
  expectIndexed(q);
  EXPECT_EQ(copy.findRule(mid), nullptr);
  ASSERT_NE(q.findRule(mid), nullptr);
  EXPECT_EQ(q.findRule(mid)->matchField, T("01"));
  for (const Rule& r : copy.rules()) {
    EXPECT_NE(copy.findRule(r.id), q.findRule(r.id));
  }
}

TEST(Policy, EffectiveMatchSubtractsHigherPriority) {
  Policy q;
  q.addRule(T("1*"), Action::kPermit);
  int drop = q.addRule(T("**"), Action::kDrop);
  CubeSet eff = q.effectiveMatch(drop);
  EXPECT_TRUE(eff.contains(T("00")));
  EXPECT_TRUE(eff.contains(T("01")));
  EXPECT_FALSE(eff.contains(T("10")));
  EXPECT_FALSE(eff.contains(T("11")));
}

TEST(Policy, DropSetRespectsShadowing) {
  Policy q;
  q.addRule(T("11*"), Action::kPermit);
  q.addRule(T("1**"), Action::kDrop);
  CubeSet drops = q.dropSet();
  EXPECT_TRUE(drops.contains(T("100")));
  EXPECT_TRUE(drops.contains(T("101")));
  EXPECT_FALSE(drops.contains(T("110")));
  EXPECT_FALSE(drops.contains(T("000")));
}

TEST(Policy, DropSetWithinTraffic) {
  Policy q;
  q.addRule(T("1**"), Action::kDrop);
  CubeSet sliced = q.dropSetWithin(T("**1"));
  EXPECT_TRUE(sliced.contains(T("101")));
  EXPECT_FALSE(sliced.contains(T("100")));
}

TEST(Policy, SemanticEquality) {
  Policy a;
  a.addRule(T("1*"), Action::kDrop);
  Policy b;
  b.addRule(T("10"), Action::kDrop);
  b.addRule(T("11"), Action::kDrop);
  EXPECT_TRUE(a.semanticallyEquals(b));
  b.addRule(T("00"), Action::kDrop);
  EXPECT_FALSE(a.semanticallyEquals(b));
}

TEST(Redundancy, MaskedRuleIsRemoved) {
  Policy q;
  q.addRule(T("1*"), Action::kPermit);
  int masked = q.addRule(T("10"), Action::kDrop);  // fully shadowed
  EXPECT_TRUE(isRedundant(q, masked));
  auto removed = removeRedundant(q);
  // The masked drop goes first; the now-unneeded permit (default is
  // permit) follows — complete removal collapses the policy entirely.
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0].ruleId, masked);
  EXPECT_EQ(removed[0].kind, RedundancyKind::kMasked);
  EXPECT_TRUE(q.empty());
}

TEST(Redundancy, DownstreamSameDecision) {
  Policy q;
  int narrow = q.addRule(T("11"), Action::kDrop);
  q.addRule(T("1*"), Action::kDrop);  // broader, same action, below
  EXPECT_TRUE(isRedundant(q, narrow));
  removeRedundant(q);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Redundancy, TrailingPermitMatchesDefault) {
  Policy q;
  q.addRule(T("0*"), Action::kDrop);
  int permit = q.addRule(T("1*"), Action::kPermit);  // default is permit
  EXPECT_TRUE(isRedundant(q, permit));
}

TEST(Redundancy, NecessaryRulesSurvive) {
  Policy q;
  q.addRule(T("11"), Action::kPermit);
  q.addRule(T("1*"), Action::kDrop);
  EXPECT_FALSE(isRedundant(q, q.rules()[0].id));
  EXPECT_FALSE(isRedundant(q, q.rules()[1].id));
  EXPECT_TRUE(removeRedundant(q).empty());
}

TEST(Redundancy, CascadingRemovalFindsMinimalForm) {
  // permit 11 / drop 1* / drop 10: complete removal first drops "1*"
  // (its effective set 10 is re-decided identically below), which then
  // exposes the permit as redundant — the minimal policy is just "10".
  Policy q;
  q.addRule(T("11"), Action::kPermit);
  q.addRule(T("1*"), Action::kDrop);
  int dup = q.addRule(T("10"), Action::kDrop);
  EXPECT_TRUE(isRedundant(q, dup));
  Policy original = q;
  removeRedundant(q);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.rules()[0].matchField.toString(), "10");
  EXPECT_TRUE(q.semanticallyEquals(original));
}

TEST(Redundancy, IteratesToFixedPoint) {
  // Removing the middle rule exposes the top one as redundant.
  Policy q;
  q.addRule(T("11"), Action::kDrop);
  q.addRule(T("11"), Action::kDrop);  // duplicate at lower priority
  q.addRule(T("1*"), Action::kDrop);
  removeRedundant(q);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.rules()[0].matchField.toString(), "1*");
}

// Property: redundancy removal never changes policy semantics.
class RedundancyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RedundancyProperty, PreservesSemantics) {
  util::Rng rng(GetParam());
  classbench::GeneratorConfig cfg;
  cfg.rulesPerPolicy = 20;
  cfg.nestProbability = 0.7;  // heavy overlap: many redundancies
  classbench::PolicyGenerator gen(cfg, rng.next());
  Policy q = gen.generate();
  Policy original = q;
  auto removed = removeRedundant(q);
  EXPECT_TRUE(q.semanticallyEquals(original))
      << "removed " << removed.size() << " rules";
  // Every removed rule must indeed have been removable.
  EXPECT_LE(q.size() + removed.size(), original.size() + removed.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedundancyProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ruleplace::acl
