// Tests for the text formats (policies, scenarios) and reports.

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "core/placer.h"
#include "core/verify.h"
#include "io/policy_text.h"
#include "io/report.h"
#include "io/scenario.h"
#include "match/tuple5.h"
#include "util/rng.h"

namespace ruleplace::io {
namespace {

TEST(PolicyText, ParsesStructuredRules) {
  acl::Policy q = parsePolicy(
      "# a comment\n"
      "permit src 10.1.0.0/16 dst 11.0.0.0/8 tcp dport 443\n"
      "\n"
      "drop src 10.0.0.0/8\n");
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.rules()[0].action, acl::Action::kPermit);
  EXPECT_EQ(q.rules()[1].action, acl::Action::kDrop);
  // Overlap structure is what placement consumes: the permit shields.
  EXPECT_TRUE(q.rules()[0].matchField.overlaps(q.rules()[1].matchField));
}

TEST(PolicyText, ParsesRawRules) {
  acl::Policy q = parsePolicy("permit raw 10*1\ndrop raw ****\n");
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.rules()[0].matchField.toString(), "10*1");
}

TEST(PolicyText, RejectsMalformedInput) {
  EXPECT_THROW(parsePolicy("allow src 10.0.0.0/8\n"), ParseError);
  EXPECT_THROW(parsePolicy("drop src 10.0.0/8\n"), ParseError);
  EXPECT_THROW(parsePolicy("drop src 10.0.0.0/40\n"), ParseError);
  EXPECT_THROW(parsePolicy("drop sport 99999\n"), ParseError);
  EXPECT_THROW(parsePolicy("drop frobnicate 1\n"), ParseError);
  EXPECT_THROW(parsePolicy("permit raw 10x\n"), ParseError);
  try {
    parsePolicy("permit src 10.0.0.0/8\nbogus\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(PolicyText, RoundTripsThroughFormat) {
  const char* text =
      "permit src 10.1.0.0/16 dst 11.0.0.0/8 tcp dport 443\n"
      "drop src 10.0.0.0/8 udp\n"
      "permit src 0.0.0.0/0 dst 192.168.1.0/24 sport 1024\n";
  acl::Policy q = parsePolicy(text);
  std::string rendered = formatPolicy(q);
  acl::Policy q2 = parsePolicy(rendered);
  ASSERT_EQ(q.size(), q2.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q.rules()[i].matchField, q2.rules()[i].matchField);
    EXPECT_EQ(q.rules()[i].action, q2.rules()[i].action);
  }
}

TEST(PolicyText, RawRulesRoundTrip) {
  acl::Policy q = parsePolicy("drop raw 10*1**10\npermit raw 0*******\n");
  acl::Policy q2 = parsePolicy(formatPolicy(q));
  ASSERT_EQ(q2.size(), 2u);
  EXPECT_EQ(q2.rules()[0].matchField.toString(), "10*1**10");
  EXPECT_EQ(q2.rules()[1].action, acl::Action::kPermit);
}

TEST(PolicyText, FormatMatchFallsBackToRaw) {
  // A cube that is not prefix-shaped in the src field renders as raw.
  match::Ternary odd(match::Tuple5Layout::kWidth);
  odd.setBit(match::Tuple5Layout::kSrcIpOffset + 3, 1);  // low bit only
  std::string s = formatMatch(odd);
  EXPECT_EQ(s.rfind("raw ", 0), 0u);
}

// Oracle for the mask decoder behind formatMatch: every Tuple5-shaped cube
// renders structurally and parses back to itself; every other cube renders
// as `raw <ternary>`.
match::IpPrefix randomPrefix(util::Rng& rng) {
  const int len = static_cast<int>(rng.below(34)) - 1;  // /32 twice as often
  const int length = len < 0 ? 32 : len;
  const auto addr = static_cast<std::uint32_t>(rng.next());
  return {length == 0 ? 0u : addr & (~0u << (32 - length)), length};
}

match::Tuple5 randomTuple5(util::Rng& rng) {
  match::Tuple5 t;
  t.src = randomPrefix(rng);
  t.dst = randomPrefix(rng);
  switch (rng.below(4)) {
    case 0: t.proto = match::ProtoMatch::any(); break;
    case 1: t.proto = match::ProtoMatch::tcp(); break;
    case 2: t.proto = match::ProtoMatch::udp(); break;
    default:
      t.proto = {static_cast<std::uint8_t>(rng.below(256)), true};
  }
  if (rng.below(2) == 0) {
    t.srcPort = match::PortMatch::exact(
        static_cast<std::uint16_t>(rng.below(65536)));
  }
  if (rng.below(2) == 0) {
    t.dstPort = match::PortMatch::exact(
        static_cast<std::uint16_t>(rng.below(65536)));
  }
  return t;
}

match::Ternary reparse(const std::string& text) {
  match::Ternary field;
  acl::Action action;
  EXPECT_TRUE(parseRuleLine("drop " + text, 1, &field, &action)) << text;
  return field;
}

TEST(PolicyText, FormatMatchRoundTripsRandomTuple5Cubes) {
  util::Rng rng(0x7e5717);
  for (int i = 0; i < 4000; ++i) {
    const match::Ternary t = randomTuple5(rng).toTernary();
    const std::string text = formatMatch(t);
    ASSERT_EQ(text.rfind("src ", 0), 0u) << text;
    ASSERT_EQ(reparse(text), t) << text;
  }
}

TEST(PolicyText, FormatMatchRendersOtherCubesRaw) {
  using L = match::Tuple5Layout;
  util::Rng rng(0x4a3e);
  for (int i = 0; i < 4000; ++i) {
    match::Ternary t = randomTuple5(rng).toTernary();
    switch (rng.below(5)) {
      case 0:
      case 1: {  // a gap: a cared bit below an IP field's prefix
        const int offset =
            rng.below(2) == 0 ? L::kSrcIpOffset : L::kDstIpOffset;
        int len = 0;
        while (len < 32 && t.bit(offset + 31 - len) >= 0) ++len;
        if (len >= 31) {
          t.setBit(offset + 31, -1);
          len = 0;
        }
        const int below = len + 1 + static_cast<int>(rng.below(
                                        static_cast<std::uint64_t>(31 - len)));
        t.setBit(offset + 31 - below, static_cast<int>(rng.below(2)));
        break;
      }
      case 2:
      case 3: {  // a partly cared port or proto
        const int which = static_cast<int>(rng.below(3));
        const int offset = which == 0   ? L::kSrcPortOffset
                           : which == 1 ? L::kDstPortOffset
                                        : L::kProtoOffset;
        const int bits = which == 2 ? L::kProtoBits : L::kPortBits;
        for (int b = 0; b < bits; ++b) t.setBit(offset + b, -1);
        const int cared = 1 + static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(bits - 1)));
        for (int b = 0; b < cared; ++b) {
          t.setBit(offset + static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(bits))),
                   static_cast<int>(rng.below(2)));
        }
        break;
      }
      default: {  // not the 104-bit layout at all
        const int width = 1 + static_cast<int>(rng.below(match::kMaxWidth));
        t = match::Ternary(width == L::kWidth ? width + 1 : width);
        for (int b = 0; b < t.width(); ++b) {
          t.setBit(b, static_cast<int>(rng.below(3)) - 1);
        }
      }
    }
    const std::string text = formatMatch(t);
    ASSERT_EQ(text, "raw " + t.toString());
    ASSERT_EQ(reparse(text), t) << text;
  }
}

const char* kFig3Scenario = R"(
switch s1 capacity 0 role edge
switch s2 capacity 1
switch s3 capacity 2
switch s4 capacity 0
switch s5 capacity 2
link s1 s2
link s2 s3
link s2 s4
link s4 s5
port l1 switch s1
port l2 switch s3
port l3 switch s5
path l1 l2 via s1 s2 s3
path l1 l3 via s1 s2 s4 s5
policy l1
    permit src 10.1.0.0/16 dst 11.0.0.0/8
    drop   src 10.0.0.0/8  dst 11.0.0.0/8
end
)";

TEST(Scenario, ParsesAndSolvesFig3) {
  Scenario sc;
  parseScenario(kFig3Scenario, sc);
  EXPECT_EQ(sc.graph.switchCount(), 5);
  EXPECT_EQ(sc.graph.entryPortCount(), 3);
  ASSERT_EQ(sc.routing.size(), 1u);
  EXPECT_EQ(sc.routing[0].paths.size(), 2u);
  ASSERT_EQ(sc.policies.size(), 1u);
  EXPECT_EQ(sc.policies[0].size(), 2u);

  core::PlaceOutcome out = core::place(sc.problem());
  ASSERT_EQ(out.status, solver::OptStatus::kOptimal);
  EXPECT_EQ(out.objective, 4);  // drop + shield on both egress switches
  auto v = core::verifyPlacement(out.solvedProblem, out.placement);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(Scenario, TrafficDescriptorsParse) {
  Scenario sc;
  parseScenario(
      "switch a capacity 5\nswitch b capacity 5\nlink a b\n"
      "port p1 switch a\nport p2 switch b\n"
      "path p1 p2 via a b traffic-dst 10.0.1.0/24\n"
      "policy p1\n  drop dst 10.0.1.0/24\nend\n",
      sc);
  ASSERT_TRUE(sc.routing[0].paths[0].traffic.has_value());
  EXPECT_TRUE(sc.routing[0].paths[0].traffic->overlaps(
      sc.policies[0].rules()[0].matchField));
}

TEST(Scenario, RejectsStructuralErrors) {
  Scenario s1;
  EXPECT_THROW(parseScenario("switch a capacity 5\nswitch a capacity 5\n", s1),
               ParseError);
  Scenario s2;
  EXPECT_THROW(parseScenario("link a b\n", s2), ParseError);
  Scenario s3;
  EXPECT_THROW(parseScenario("switch a capacity 5\nport p switch a\n"
                             "policy p\n  drop raw 1\n",
                             s3),
               ParseError);  // missing 'end'
  Scenario s4;
  EXPECT_THROW(
      parseScenario("switch a capacity 5\nport p switch a\n"
                    "policy p\n  drop raw 1\nend\n",
                    s4),
      ParseError);  // policy without a path
  Scenario s5;
  EXPECT_THROW(parseScenario("switch a capacity 5\nswitch b capacity 5\n"
                             "port p1 switch a\nport p2 switch b\n"
                             "path p1 p2 via a b\n"  // missing link
                             "policy p1\n  drop raw 1\nend\n",
                             s5),
               std::exception);
}

TEST(Scenario, RoundTripsThroughFormat) {
  Scenario sc;
  parseScenario(kFig3Scenario, sc);
  std::string rendered = formatScenario(sc.problem());
  Scenario sc2;
  parseScenario(rendered, sc2);
  EXPECT_EQ(sc2.graph.switchCount(), sc.graph.switchCount());
  EXPECT_EQ(sc2.graph.linkCount(), sc.graph.linkCount());
  EXPECT_EQ(sc2.routing[0].paths.size(), sc.routing[0].paths.size());
  EXPECT_TRUE(sc2.policies[0].semanticallyEquals(sc.policies[0]));
  // Both parse to problems with identical optimal objective.
  EXPECT_EQ(core::place(sc.problem()).objective,
            core::place(sc2.problem()).objective);
}

TEST(Scenario, FormatRejectsTwoPoliciesOnOneIngress) {
  // The format keys a policy by its ingress port, so a second policy on
  // the same port would render but never read back.
  Scenario sc;
  parseScenario(kFig3Scenario, sc);
  core::PlacementProblem twice = sc.problem();
  twice.routing.push_back(twice.routing[0]);
  twice.policies.push_back(twice.policies[0]);
  try {
    formatScenario(twice);
    FAIL() << "formatScenario accepted two policies on one ingress";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  sc.graph.entryPort(twice.routing[0].ingress).name),
              std::string::npos)
        << e.what();
  }
}

TEST(Scenario, LoadFromFile) {
  const char* path = "/tmp/rp_scenario_test.scenario";
  {
    std::ofstream out(path);
    out << kFig3Scenario;
  }
  Scenario sc;
  loadScenarioFile(path, sc);
  EXPECT_EQ(sc.graph.switchCount(), 5);
  Scenario missing;
  EXPECT_THROW(loadScenarioFile("/nonexistent/file.scenario", missing),
               std::runtime_error);
}

TEST(Report, AnalyzesSolvedOutcome) {
  Scenario sc;
  parseScenario(kFig3Scenario, sc);
  core::PlaceOutcome out = core::place(sc.problem());
  PlacementReport report = analyzePlacement(out);
  EXPECT_EQ(report.totalInstalled, 4);
  EXPECT_EQ(report.requiredRules, 2);
  EXPECT_DOUBLE_EQ(report.duplicationOverheadPct, 100.0);
  EXPECT_EQ(report.switchesUsed, 2);
  EXPECT_EQ(report.maxSwitchLoad, 2);
  EXPECT_EQ(report.replicateAllRules, 4);  // 2 rules x 2 paths
  EXPECT_NE(report.toString().find("duplication overhead : 100%"),
            std::string::npos);
  std::string util = utilizationTable(out.solvedProblem, out.placement);
  EXPECT_NE(util.find("2/2"), std::string::npos);
}

TEST(Report, EmptyForInfeasibleOutcome) {
  core::PlaceOutcome out;  // default: kUnknown, no solution
  PlacementReport report = analyzePlacement(out);
  EXPECT_EQ(report.totalInstalled, 0);
  EXPECT_EQ(report.switchesUsed, 0);
}

TEST(Report, CarriesComponentAggregates) {
  Scenario sc;
  parseScenario(kFig3Scenario, sc);
  core::PlaceOutcome out = core::place(sc.problem());
  PlacementReport report = analyzePlacement(out);
  EXPECT_EQ(report.components,
            static_cast<int>(out.componentStats.size()));
  EXPECT_GE(report.components, 1);
  EXPECT_EQ(report.threadsUsed, out.threadsUsed);
  EXPECT_EQ(report.solverPropagations, out.solverStats.propagations);
  EXPECT_GT(report.solveCpuSeconds, 0.0);
  EXPECT_NE(report.toString().find("components"), std::string::npos);
  EXPECT_NE(report.toString().find("solve wall / cpu"), std::string::npos);
}

TEST(Report, SolverAggregatesSurviveInfeasibleOutcome) {
  // Solve attribution must be filled even when there is no placement.
  core::PlaceOutcome out;
  out.threadsUsed = 3;
  core::ComponentSolveStats c;
  c.policyCount = 2;
  c.ruleCount = 9;
  c.status = solver::OptStatus::kInfeasible;
  c.encodeSeconds = 0.25;
  c.solveSeconds = 0.5;
  c.solverStats.conflicts = 17;
  out.componentStats = {c, c};
  out.solverStats.conflicts = 34;
  out.status = solver::OptStatus::kInfeasible;
  PlacementReport report = analyzePlacement(out);
  EXPECT_EQ(report.components, 2);
  EXPECT_EQ(report.threadsUsed, 3);
  EXPECT_EQ(report.solverConflicts, 34);
  EXPECT_DOUBLE_EQ(report.solveCpuSeconds, 1.5);
  EXPECT_EQ(report.totalInstalled, 0);  // still no placement numbers
}

TEST(Report, ComponentTableListsEveryComponent) {
  core::PlaceOutcome out;
  core::ComponentSolveStats a;
  a.policyCount = 1;
  a.ruleCount = 5;
  a.status = solver::OptStatus::kOptimal;
  a.objective = 7;
  core::ComponentSolveStats b;
  b.policyCount = 3;
  b.ruleCount = 21;
  b.status = solver::OptStatus::kInfeasible;
  out.componentStats = {a, b};
  std::string table = componentTable(out);
  EXPECT_NE(table.find("policies"), std::string::npos);
  EXPECT_NE(table.find("optimal"), std::string::npos);
  EXPECT_NE(table.find("infeasible"), std::string::npos);
  EXPECT_NE(table.find("21"), std::string::npos);
}

TEST(Report, FormatPlacementRendersStructuredMatches) {
  Scenario sc;
  parseScenario(kFig3Scenario, sc);
  core::PlaceOutcome out = core::place(sc.problem());
  std::string tables = formatPlacement(out.solvedProblem, out.placement);
  EXPECT_NE(tables.find("drop src 10.0.0.0/8 dst 11.0.0.0/8"),
            std::string::npos);
  EXPECT_NE(tables.find("permit src 10.1.0.0/16"), std::string::npos);
}

}  // namespace
}  // namespace ruleplace::io
