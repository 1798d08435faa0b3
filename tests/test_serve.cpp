// Serve-subsystem tests: the line-JSON parser, the protocol layer, and the
// daemon's concurrency contract.
//
// The protocol invariants pinned here:
//   * malformed lines are answered with {"ok":false,...} and touch no state;
//   * state-mutating events carry strictly increasing seq numbers —
//     out-of-order or repeated seqs are rejected at ingest;
//   * a query racing a batch only ever observes a fully committed
//     placement (never a half-applied batch);
//   * shutdown mid-batch drains cleanly — the final state is a committed,
//     verifiable placement.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/verify.h"
#include "io/json.h"
#include "serve/churn_gen.h"
#include "serve/daemon.h"
#include "serve/jsonl.h"
#include "serve/protocol.h"

namespace ruleplace::serve {
namespace {

// ---- jsonl ----------------------------------------------------------------

TEST(Jsonl, ParsesScalarsArraysAndObjects) {
  const JsonValue v = JsonValue::parse(
      R"({"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{}})");
  ASSERT_EQ(v.kind(), JsonValue::Kind::kObject);
  EXPECT_EQ(v.find("a")->asInt(), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->asDouble(), -2.5);
  EXPECT_EQ(v.find("c")->asString(), "x\n\"y\"");
  const auto& arr = v.find("d")->asArray();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].asBool());
  EXPECT_FALSE(arr[1].asBool());
  EXPECT_EQ(arr[2].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("e")->asObject().size(), 0u);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Jsonl, UnicodeEscapesAndSurrogatePairs) {
  EXPECT_EQ(JsonValue::parse(R"("Aé")").asString(), "A\xc3\xa9");
  // U+1F600 as a surrogate pair.
  EXPECT_EQ(JsonValue::parse(R"("😀")").asString(),
            "\xf0\x9f\x98\x80");
}

TEST(Jsonl, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",           "{",        "[1,]",       "{\"a\":}",
      "{\"a\":1,}", "01",       "1 2",        "\"unterminated",
      "nul",        "{\"a\":1}{\"b\":2}",     "\"\x01\"",
      "{\"dup\":1,\"dup\":2}",  R"("\ud83d")",  // lone surrogate
  };
  for (const char* doc : bad) {
    EXPECT_THROW(JsonValue::parse(doc), JsonError) << doc;
  }
}

TEST(Jsonl, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_THROW(JsonValue::parse(deep), JsonError);
}

// ---- protocol -------------------------------------------------------------

ChurnConfig smallChurn() {
  ChurnConfig c;
  c.fatTreeK = 4;
  c.switchCapacity = 128;
  c.basePolicies = 8;
  c.rulesPerPolicy = 4;
  c.seed = 11;
  return c;
}

TEST(Protocol, ParsesInstallRerouteCapacityQuery) {
  io::Scenario scenario;
  churnScenario(smallChurn(), scenario);
  const NameIndex names(scenario.graph);

  Request r = parseRequest(
      R"({"op":"install","seq":3,"ingress":0,"egress":5,)"
      R"("rules":["permit src 10.0.0.0/8","drop src 10.0.0.0/8"]})",
      names);
  ASSERT_EQ(r.kind, RequestKind::kEvent);
  EXPECT_EQ(r.event.kind, EventKind::kInstall);
  EXPECT_EQ(r.event.seq, 3);
  EXPECT_EQ(r.event.ingress, 0);
  EXPECT_EQ(r.event.egress, 5);
  EXPECT_EQ(r.event.policy.size(), 2);

  r = parseRequest(R"({"op":"reroute","seq":4,"policy":2,"egress":1})",
                   names);
  ASSERT_EQ(r.kind, RequestKind::kEvent);
  EXPECT_EQ(r.event.kind, EventKind::kReroute);
  EXPECT_EQ(r.event.policyId, 2);

  r = parseRequest(R"({"op":"capacity","seq":5,"switch":0,"capacity":9})",
                   names);
  ASSERT_EQ(r.kind, RequestKind::kEvent);
  EXPECT_EQ(r.event.kind, EventKind::kCapacity);
  EXPECT_EQ(r.event.capacity, 9);

  r = parseRequest(R"({"op":"query","what":"stats"})", names);
  EXPECT_EQ(r.kind, RequestKind::kQuery);
  EXPECT_EQ(r.what, "stats");
}

TEST(Protocol, RejectsMalformedRequests) {
  io::Scenario scenario;
  churnScenario(smallChurn(), scenario);
  const NameIndex names(scenario.graph);
  const char* bad[] = {
      R"({"seq":1})",                                  // no op
      R"({"op":"install","seq":1})",                   // missing fields
      R"({"op":"install","ingress":0,"egress":1,"rules":["drop raw 1*"]})",
      R"({"op":"install","seq":-1,"ingress":0,"egress":1,"rules":["drop raw 1*"]})",
      R"({"op":"install","seq":1,"ingress":"nosuch","egress":1,"rules":["drop raw 1*"]})",
      R"({"op":"install","seq":1,"ingress":0,"egress":1,"rules":[]})",
      R"({"op":"install","seq":1,"ingress":0,"egress":1,"rules":["frobnicate"]})",
      R"({"op":"install","seq":1,"ingress":9999,"egress":1,"rules":["drop raw 1*"]})",
      R"({"op":"reroute","seq":1,"policy":0})",        // no egress
      R"({"op":"capacity","seq":1,"switch":0,"capacity":-4})",
      R"({"op":"frobnicate"})",
  };
  for (const char* line : bad) {
    EXPECT_THROW(parseRequest(line, names), std::exception) << line;
  }
}

// ---- daemon ---------------------------------------------------------------

bool okResponse(const std::string& r) {
  return r.rfind("{\"ok\":true", 0) == 0;
}

TEST(ServeDaemon, MalformedLinesAnswerErrorAndTouchNoState) {
  io::Scenario scenario;
  churnScenario(smallChurn(), scenario);
  DaemonOptions opts;
  Daemon daemon(scenario, opts);

  const auto before = daemon.compose();
  for (const char* line :
       {"not json at all", "{\"op\":\"install\",\"seq\":0}",
        "{\"op\":\"reroute\",\"seq\":0,\"policy\":9999,\"egress\":0}",
        "[]", "{\"op\":\"query\",\"what\":\"nosuch\"}"}) {
    const std::string r = daemon.handleLine(line);
    EXPECT_FALSE(okResponse(r)) << line << " -> " << r;
  }
  daemon.flush();
  const auto after = daemon.compose();
  EXPECT_TRUE(before.placement == after.placement);
  EXPECT_EQ(daemon.stats().totals.committed, 0);
}

TEST(ServeDaemon, OutOfOrderSequenceNumbersAreRejected) {
  io::Scenario scenario;
  churnScenario(smallChurn(), scenario);
  Daemon daemon(scenario, {});

  EXPECT_TRUE(okResponse(daemon.handleLine(
      R"({"op":"reroute","seq":5,"policy":0,"egress":3})")));
  // Repeated and stale seqs bounce; the daemon's state still advances for
  // fresh ones.
  EXPECT_FALSE(okResponse(daemon.handleLine(
      R"({"op":"reroute","seq":5,"policy":1,"egress":3})")));
  EXPECT_FALSE(okResponse(daemon.handleLine(
      R"({"op":"reroute","seq":2,"policy":1,"egress":3})")));
  EXPECT_TRUE(okResponse(daemon.handleLine(
      R"({"op":"reroute","seq":6,"policy":1,"egress":3})")));
  daemon.flush();
  EXPECT_EQ(daemon.stats().totals.committed, 2);
}

TEST(ServeDaemon, QueryDuringBatchSeesOnlyCommittedState) {
  io::Scenario scenario;
  ChurnConfig cfg = smallChurn();
  cfg.basePolicies = 12;
  churnScenario(cfg, scenario);
  DaemonOptions opts;
  opts.maxBatch = 4;
  Daemon daemon(scenario, opts);

  // Hammer queries from a second thread while the ingest thread floods
  // reroutes.  EVERY composed state a query sees must be internally
  // consistent: problem and placement line up and verify — a half-applied
  // batch would break verification (rules of a policy mid-move).
  std::atomic<bool> done{false};
  std::atomic<int> verified{0};
  std::atomic<int> broken{0};
  std::thread prober([&] {
    while (!done.load(std::memory_order_acquire)) {
      const Daemon::Composed c = daemon.compose();
      if (core::verifyPlacement(c.problem, c.placement).ok) {
        verified.fetch_add(1, std::memory_order_relaxed);
      } else {
        broken.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  const std::vector<std::string> lines = churnLines(cfg, 0, 120);
  for (const std::string& line : lines) daemon.handleLine(line);
  daemon.flush();
  done.store(true, std::memory_order_release);
  prober.join();

  EXPECT_EQ(broken.load(), 0);
  EXPECT_GT(verified.load(), 0);
  const Daemon::Stats st = daemon.stats();
  EXPECT_GT(st.totals.committed, 0);
  EXPECT_GT(st.totals.batches, 0);
}

TEST(ServeDaemon, ShutdownMidBatchDrainsCleanly) {
  io::Scenario scenario;
  ChurnConfig cfg = smallChurn();
  churnScenario(cfg, scenario);
  DaemonOptions opts;
  opts.debounceSeconds = -1.0;  // manual drain: the queue holds everything
  Daemon daemon(scenario, opts);

  const std::vector<std::string> lines = churnLines(cfg, 0, 30);
  for (const std::string& line : lines) daemon.handleLine(line);
  EXPECT_GT(daemon.stats().queueDepth, 0u);  // genuinely mid-batch

  const std::string r = daemon.handleLine(R"({"op":"shutdown"})");
  EXPECT_TRUE(okResponse(r));
  EXPECT_TRUE(daemon.stopped());
  // Everything queued was resolved — committed or failed, never dropped
  // half-way — and the final placement verifies.
  const Daemon::Stats st = daemon.stats();
  EXPECT_EQ(st.queueDepth, 0u);
  const Daemon::Composed c = daemon.compose();
  EXPECT_TRUE(core::verifyPlacement(c.problem, c.placement).ok);
  // A daemon that has shut down rejects further lines.
  EXPECT_FALSE(okResponse(
      daemon.handleLine(R"({"op":"reroute","seq":999,"policy":0,"egress":1})")));
}

TEST(ServeDaemon, CoalesceAllReplayMatchesOneShotInstall) {
  // The serve-smoke contract: an installs-only trace replayed in
  // coalesce-all mode ends bit-identical to ONE session install of the
  // whole end state over the base deployment.
  io::Scenario scenario;
  ChurnConfig cfg = smallChurn();
  cfg.installWeight = 1.0;
  cfg.rerouteWeight = 0.0;
  cfg.capacityWeight = 0.0;
  churnScenario(cfg, scenario);
  DaemonOptions opts;
  opts.debounceSeconds = -1.0;
  opts.maxBatch = static_cast<std::size_t>(-1);
  Daemon daemon(scenario, opts);

  for (const std::string& line : churnLines(cfg, 0, 12)) {
    EXPECT_TRUE(okResponse(daemon.handleLine(line)));
  }
  daemon.flush();
  EXPECT_EQ(daemon.stats().totals.committed, 12);
  EXPECT_EQ(daemon.oneShotDivergence(), "");
}

TEST(ServeDaemon, PlacementReadRendersTheComposedState) {
  // The northbound read: {"op":"query","what":"placement"} answers one
  // JSON line whose "placement" is exactly the composed deployment as
  // io::placementToJson renders it (tags are dense indices into
  // "policies", which lists the global policy ids).
  io::Scenario scenario;
  ChurnConfig cfg = smallChurn();
  cfg.installWeight = 0.3;
  cfg.rerouteWeight = 0.7;
  cfg.capacityWeight = 0.0;  // capacity events need one shard
  churnScenario(cfg, scenario);
  DaemonOptions opts;
  opts.shards = 2;
  opts.workers = 2;
  Daemon daemon(scenario, opts);
  for (const std::string& line : churnLines(cfg, 0, 40)) {
    daemon.handleLine(line);
  }
  daemon.flush();
  ASSERT_GT(daemon.stats().totals.committed, 0);

  const std::string reply =
      daemon.handleLine(R"({"op":"query","what":"placement"})");
  const Daemon::Composed c = daemon.compose();
  ASSERT_GT(c.globalIds.size(), scenario.policies.size());  // installs landed

  const JsonValue v = JsonValue::parse(reply);
  ASSERT_TRUE(v.find("ok")->asBool());
  const JsonValue::Array& ids = v.find("policies")->asArray();
  ASSERT_EQ(ids.size(), c.globalIds.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i].asInt(), c.globalIds[i]);
  }
  EXPECT_EQ(v.find("version")->asInt(), c.version);

  // "placement" is the last member: compare its bytes verbatim.
  const std::string key = ",\"placement\":";
  const std::size_t at = reply.find(key);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(reply.back(), '}');
  const std::string body =
      reply.substr(at + key.size(), reply.size() - 1 - at - key.size());
  EXPECT_EQ(body, io::placementToJson(c.problem, c.placement));

  // Every rendered tag indexes "policies".
  const JsonValue& placement = *v.find("placement");
  for (const JsonValue& sw : placement.find("switches")->asArray()) {
    for (const JsonValue& e : sw.find("entries")->asArray()) {
      for (const JsonValue& t : e.find("tags")->asArray()) {
        EXPECT_GE(t.asInt(), 0);
        EXPECT_LT(t.asInt(), static_cast<std::int64_t>(ids.size()));
      }
    }
  }
}

TEST(ServeDaemon, MultiShardChurnStaysVerified) {
  io::Scenario scenario;
  ChurnConfig cfg = smallChurn();
  cfg.capacityWeight = 0.0;  // capacity events need one shard
  churnScenario(cfg, scenario);
  DaemonOptions opts;
  opts.shards = 3;
  opts.workers = 3;
  Daemon daemon(scenario, opts);

  for (const std::string& line : churnLines(cfg, 0, 60)) {
    daemon.handleLine(line);
  }
  daemon.flush();
  const Daemon::Stats st = daemon.stats();
  EXPECT_EQ(st.totals.committed + st.totals.failed, 60);
  const Daemon::Composed c = daemon.compose();
  EXPECT_TRUE(core::verifyPlacement(c.problem, c.placement).ok);
  // The shard capacity shares must sum to the real capacities — the union
  // of independent shard placements can then never exceed a switch.
  for (topo::SwitchId sw = 0; sw < scenario.graph.switchCount(); ++sw) {
    EXPECT_EQ(c.problem.capacityOf(sw), scenario.graph.sw(sw).capacity);
    EXPECT_LE(c.placement.usedCapacity(sw), scenario.graph.sw(sw).capacity);
  }
}

// Regression: every uninstall run, capacity event and rebase used to build
// a fresh session from the daemon's options, whose absolute deadline was
// armed once at start-up.  Once the daemon was older than its event
// timeout, each rebuilt session's span read as already spent and every
// later event failed "deadline expired before start".
TEST(ServeDaemon, EventsAfterUninstallCapacityAndRebaseOutliveTheTimeout) {
  io::Scenario scenario;
  churnScenario(smallChurn(), scenario);
  const auto reroutes = [](Daemon& daemon, int firstSeq) {
    for (int i = 0; i < 4; ++i) {
      const std::string line =
          R"({"op":"reroute","seq":)" + std::to_string(firstSeq + i) +
          R"(,"policy":)" + std::to_string(i + 1) + R"(,"egress":)" +
          std::to_string((i * 5 + 3) % 16) + "}";
      ASSERT_TRUE(okResponse(daemon.handleLine(line))) << line;
      daemon.flush();
    }
  };
  const struct {
    const char* name;
    const char* event;  // seq 1, after one reroute at seq 0
    int rebaseEvents;
  } cases[] = {
      {"uninstall", R"({"op":"uninstall","seq":1,"policy":0})", 512},
      {"capacity grow", R"({"op":"capacity","seq":1,"switch":0,"capacity":200})",
       512},
      {"rebase", R"({"op":"reroute","seq":1,"policy":2,"egress":9})", 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    DaemonOptions opts;
    opts.debounceSeconds = -1.0;
    opts.eventTimeoutSeconds = 0.25;
    opts.rebaseEvents = c.rebaseEvents;
    Daemon daemon(scenario, opts);
    std::this_thread::sleep_for(std::chrono::milliseconds(350));
    ASSERT_TRUE(okResponse(daemon.handleLine(
        R"({"op":"reroute","seq":0,"policy":1,"egress":7})")));
    daemon.flush();
    ASSERT_TRUE(okResponse(daemon.handleLine(c.event)));
    daemon.flush();
    reroutes(daemon, 2);
    const Daemon::Stats st = daemon.stats();
    EXPECT_EQ(st.totals.failed, 0) << daemon.compose().lastError;
    EXPECT_EQ(st.totals.committed, 6);
    if (c.rebaseEvents == 1) EXPECT_GT(st.totals.rebases, 0);
  }
}

// Capacity events on a two-switch line s0 - s1 (capacity 4 and 0).  Every
// ingress port sits on s0; the base policy A (port pa) is routed over s0
// alone, so its two rules must stay there.  All rules are disjoint drops
// that no two of one policy could merge into one: each needs one entry
// somewhere on its policy's path.
struct CapacityLine {
  io::Scenario scenario;
  topo::SwitchId s0 = 0, s1 = 0;

  CapacityLine() {
    topo::Graph& g = scenario.graph;
    s0 = g.addSwitch(4, topo::SwitchRole::kGeneric, "s0");
    s1 = g.addSwitch(0, topo::SwitchRole::kGeneric, "s1");
    g.addLink(s0, s1);
    const topo::PortId out0 = g.addEntryPort(s0, "out0");
    g.addEntryPort(s1, "out1");
    const topo::PortId pa = g.addEntryPort(s0, "pa");
    for (const char* name : {"pc", "pd", "pf"}) g.addEntryPort(s0, name);
    scenario.routing.push_back({pa, {topo::Path{pa, out0, {s0}, std::nullopt}}});
    acl::Policy a;
    a.addRule(match::Ternary::fromString("0000****"), acl::Action::kDrop);
    a.addRule(match::Ternary::fromString("0011****"), acl::Action::kDrop);
    scenario.policies.push_back(a);
  }
};

std::string dropInstall(int seq, const char* ingress, const char* egress,
                        const std::vector<const char*>& drops) {
  std::string line = R"({"op":"install","seq":)" + std::to_string(seq) +
                     R"(,"ingress":")" + ingress + R"(","egress":")" +
                     egress + R"(","rules":[)";
  for (std::size_t i = 0; i < drops.size(); ++i) {
    if (i > 0) line += ',';
    line += std::string(R"("drop raw )") + drops[i] + '"';
  }
  return line + "]}";
}

std::string capacityLine(int seq, const char* sw, int capacity) {
  return R"({"op":"capacity","seq":)" + std::to_string(seq) +
         R"(,"switch":")" + sw + R"(","capacity":)" +
         std::to_string(capacity) + "}";
}

TEST(ServeDaemon, CapacityEventsGrowShrinkRejectAndKeepCounting) {
  CapacityLine net;
  DaemonOptions opts;
  opts.debounceSeconds = -1.0;
  Daemon daemon(net.scenario, opts);
  const auto apply = [&](const std::string& line) {
    EXPECT_TRUE(okResponse(daemon.handleLine(line))) << line;
    daemon.flush();
    return daemon.compose();
  };
  const auto verified = [](const Daemon::Composed& c) {
    return core::verifyPlacement(c.problem, c.placement).ok;
  };

  // C (s0 -> s1) can only go to s0 while s1 has no capacity.
  Daemon::Composed c =
      apply(dropInstall(0, "pc", "out1", {"0101****", "0110****"}));
  ASSERT_EQ(c.placement.usedCapacity(net.s0), 4);

  // Grow: nothing moves, the capacity is visible.
  const core::Placement beforeGrow = c.placement;
  c = apply(capacityLine(1, "s1", 4));
  EXPECT_EQ(c.problem.capacityOf(net.s1), 4);
  EXPECT_TRUE(c.placement == beforeGrow);

  // D (s0 only) finds s0 full; the escalation moves C towards s1.
  c = apply(dropInstall(2, "pd", "out0", {"1001****"}));
  ASSERT_EQ(daemon.stats().totals.escalations, 1);
  ASSERT_TRUE(verified(c));
  const int onS1 = c.placement.usedCapacity(net.s1);
  ASSERT_GE(onS1, 1);

  // Shrink s1 below its usage: the whole shard is re-placed under the new
  // limit, with room on s0 after it grows.
  apply(capacityLine(3, "s0", 8));
  c = apply(capacityLine(4, "s1", onS1 - 1));
  EXPECT_EQ(c.problem.capacityOf(net.s1), onS1 - 1);
  EXPECT_LE(c.placement.usedCapacity(net.s1), onS1 - 1);
  EXPECT_TRUE(verified(c));
  EXPECT_EQ(c.lastError, "");

  // Infeasible shrink: A and D need three entries on s0.  Nothing changes.
  const Daemon::Composed before = c;
  c = apply(capacityLine(5, "s0", 2));
  EXPECT_TRUE(c.placement == before.placement);
  EXPECT_EQ(c.problem.capacityOverride, before.problem.capacityOverride);
  EXPECT_EQ(c.problem.policies.size(), before.problem.policies.size());
  EXPECT_EQ(c.lastError.rfind("capacity seq 5: switch 0 cannot shrink to 2 (",
                              0),
            0u)
      << c.lastError;
  EXPECT_NE(c.lastError.find("); capacity unchanged"), std::string::npos);
  EXPECT_EQ(daemon.stats().totals.failed, 1);

  // Counters keep counting across the capacity events: F's five rules do
  // not fit in what s0 has left, but escalating moves C to s1 again.
  apply(capacityLine(6, "s1", 4));
  c = apply(dropInstall(7, "pf", "out0",
                        {"11000000", "11000011", "11001100", "11001111",
                         "11110000"}));
  EXPECT_TRUE(verified(c));
  const Daemon::Stats st = daemon.stats();
  EXPECT_EQ(st.totals.escalations, 2);
  EXPECT_EQ(st.totals.repacks, 0);
  EXPECT_EQ(st.totals.committed, 7);
  EXPECT_EQ(st.totals.failed, 1);
}

}  // namespace
}  // namespace ruleplace::serve
