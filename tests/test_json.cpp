// Tests for JSON rendering of placements and reports.

#include <gtest/gtest.h>

#include "core/placer.h"
#include "io/json.h"
#include "io/scenario.h"
#include "match/tuple5.h"

namespace ruleplace::io {
namespace {

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(jsonEscape(std::string("a\x1f") + "b"), "a\\u001fb");
  EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes
}

TEST(Json, PlacementRendersEntries) {
  Scenario sc;
  parseScenario(
      "switch a capacity 5\nswitch b capacity 5\nlink a b\n"
      "port p1 switch a\nport p2 switch b\n"
      "path p1 p2 via a b\n"
      "policy p1\n"
      "  permit src 10.1.0.0/16\n"
      "  drop src 10.0.0.0/8\n"
      "end\n",
      sc);
  core::PlaceOutcome out = core::place(sc.problem());
  ASSERT_TRUE(out.hasSolution());
  std::string js = placementToJson(out.solvedProblem, out.placement);
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  EXPECT_NE(js.find("\"switches\":["), std::string::npos);
  EXPECT_NE(js.find("\"action\":\"drop\""), std::string::npos);
  EXPECT_NE(js.find("\"action\":\"permit\""), std::string::npos);
  EXPECT_NE(js.find("\"tags\":[0]"), std::string::npos);
  EXPECT_NE(js.find("src 10.0.0.0/8"), std::string::npos);
  // Empty switches are omitted.
  EXPECT_EQ(js.find("\"name\":\"b\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int brace = 0;
  int bracket = 0;
  for (char c : js) {
    brace += (c == '{') - (c == '}');
    bracket += (c == '[') - (c == ']');
    ASSERT_GE(brace, 0);
    ASSERT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

// A hand-built deployment covering every shape the renderer distinguishes:
// prefixes of length /0, /32 and in between; tcp, udp and `proto N`;
// `sport`/`dport`; a gapped cube and a non-104-bit field (both `raw`); a
// merged entry carrying several tags; a switch name that needs escaping;
// an empty switch (omitted) and capacities taken from the override.
struct GoldenDeployment {
  topo::Graph graph;
  core::PlacementProblem problem;
  core::Placement placement;
};

void buildGolden(GoldenDeployment& d) {
  using match::IpPrefix;
  using match::PortMatch;
  using match::ProtoMatch;
  using match::Tuple5;
  d.graph.addSwitch(9, topo::SwitchRole::kGeneric, "edge \"a\"\t\\b");
  d.graph.addSwitch(4, topo::SwitchRole::kGeneric, "idle");
  d.graph.addSwitch(3, topo::SwitchRole::kGeneric, "core-7");
  d.problem.graph = &d.graph;
  d.problem.capacityOverride = {7, 4, 1234};
  d.placement = core::Placement(3);

  auto entry = [](match::Ternary m, acl::Action a, std::vector<int> tags,
                  int priority, bool merged) {
    core::InstalledRule r;
    r.matchField = m;
    r.action = a;
    r.tags = std::move(tags);
    r.priority = priority;
    r.merged = merged;
    return r;
  };
  Tuple5 web;
  web.src = {0x0A010000u, 16};
  web.proto = ProtoMatch::tcp();
  web.dstPort = PortMatch::exact(443);
  Tuple5 dns;
  dns.src = {0xC0A80107u, 32};
  dns.dst = {0x0B000000u, 8};
  dns.proto = ProtoMatch::udp();
  dns.srcPort = PortMatch::exact(53);
  Tuple5 gre;
  gre.dst = {0xAC100000u, 12};
  gre.proto = {47, true};
  gre.srcPort = PortMatch::exact(1024);
  gre.dstPort = PortMatch::exact(65535);
  match::Ternary gapped(match::Tuple5Layout::kWidth);
  gapped.setBit(match::Tuple5Layout::kSrcIpOffset + 31, 1);
  gapped.setBit(match::Tuple5Layout::kSrcIpOffset + 3, 0);

  auto& t0 = d.placement.mutableTable(0);
  t0.push_back(entry(web.toTernary(), acl::Action::kDrop, {0}, 5, false));
  t0.push_back(
      entry(dns.toTernary(), acl::Action::kPermit, {0, 2, 15}, 4, true));
  t0.push_back(entry(gre.toTernary(), acl::Action::kDrop, {1}, 3, false));
  t0.push_back(entry(gapped, acl::Action::kPermit, {3}, 2, false));
  t0.push_back(entry(match::Ternary::fromString("10*1**10"),
                     acl::Action::kDrop, {2}, 1, false));
  d.placement.mutableTable(2).push_back(
      entry(Tuple5{}.toTernary(), acl::Action::kPermit, {4}, 1, false));
}

TEST(Json, PlacementGoldenBytes) {
  GoldenDeployment d;
  buildGolden(d);
  // Captured from the stream-based renderer this writer replaced: the
  // bytes a controller reads must not change with the implementation.
  const std::string golden =
      R"json({"switches":[{"name":"edge \"a\"\t\\b","capacity":7,"entries":[{"priority":5,"action":"drop","match":"src 10.1.0.0/16 dst 0.0.0.0/0 tcp dport 443","tags":[0],"merged":false},)json"
      R"json({"priority":4,"action":"permit","match":"src 192.168.1.7/32 dst 11.0.0.0/8 udp sport 53","tags":[0,2,15],"merged":true},)json"
      R"json({"priority":3,"action":"drop","match":"src 0.0.0.0/0 dst 172.16.0.0/12 proto 47 sport 1024 dport 65535","tags":[1],"merged":false},)json"
      R"json({"priority":2,"action":"permit","match":"raw 1***************************0***************************************************************************","tags":[3],"merged":false},)json"
      R"json({"priority":1,"action":"drop","match":"raw 10*1**10","tags":[2],"merged":false}]},)json"
      R"json({"name":"core-7","capacity":1234,"entries":[{"priority":1,"action":"permit","match":"src 0.0.0.0/0 dst 0.0.0.0/0","tags":[4],"merged":false}]}]})json";
  EXPECT_EQ(placementToJson(d.problem, d.placement), golden);
}

TEST(Json, ReportRendersAllFields) {
  PlacementReport r;
  r.totalInstalled = 12;
  r.requiredRules = 10;
  r.duplicationOverheadPct = 20.0;
  r.replicateAllRules = 48;
  r.switchesUsed = 3;
  r.maxSwitchLoad = 5;
  r.meanSwitchLoadPct = 41.5;
  r.mergedEntries = 2;
  std::string js = reportToJson(r);
  EXPECT_NE(js.find("\"rules_installed\":12"), std::string::npos);
  EXPECT_NE(js.find("\"duplication_overhead_pct\":20"), std::string::npos);
  EXPECT_NE(js.find("\"merged_entries\":2"), std::string::npos);
}

}  // namespace
}  // namespace ruleplace::io
