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

}  // namespace
}  // namespace ruleplace::serve
