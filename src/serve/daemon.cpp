#include "serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/explain.h"
#include "core/placer.h"
#include "io/json.h"
#include "obs/obs.h"

namespace ruleplace::serve {

namespace {

constexpr std::size_t kLatencyRing = 1u << 16;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string errorResponse(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + io::jsonEscape(message) + "\"}";
}

std::string okSeqResponse(std::int64_t seq) {
  return "{\"ok\":true,\"seq\":" + std::to_string(seq) + "}";
}

std::string fmtMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

core::PlaceOptions sessionOptionsFor(const DaemonOptions& o) {
  core::PlaceOptions opts;
  // Merging stays off throughout: merged entries carry multiple policy
  // tags, which would couple shards and break the per-shard tag remap.
  opts.encoder.enableMerging = false;
  opts.satisfiabilityOnly = o.satisfiabilityOnly;
  opts.useIngressHint = true;
  opts.threads = 1;  // parallelism lives across shards, not inside one
  opts.observability = o.observability;
  opts.resilience.fullResolveOnInfeasible = o.escalate;
  opts.budget.maxConflicts = o.eventConflictBudget;
  if (o.eventTimeoutSeconds >= 0.0) {
    // An absolute deadline armed once, here; the session re-arms the same
    // span for every event (see IncrementalSession's per-event budget).
    opts.budget.deadline = util::Deadline::in(o.eventTimeoutSeconds);
  }
  return opts;
}

}  // namespace

Daemon::Daemon(const io::Scenario& scenario, DaemonOptions options)
    : scenario_(&scenario),
      options_(options),
      names_(scenario.graph),
      router_(scenario.graph),
      routeRoot_(options.routeSeed),
      latencyRing_(kLatencyRing, 0) {
  if (options_.shards < 1) throw std::invalid_argument("shards must be >= 1");
  const int switchCount = scenario.graph.switchCount();

  // Base deployment: one unconstrained solve of the whole scenario.
  core::PlaceOptions baseOpts = sessionOptionsFor(options_);
  baseOpts.budget = solver::Budget::unlimited();
  baseOpts.threads = options_.workers;
  core::PlaceOutcome baseOut = core::place(scenario.problem(), baseOpts);
  if (!baseOut.hasSolution()) {
    throw std::runtime_error("serve: base scenario has no placement (" +
                             (baseOut.failure ? baseOut.failure->message
                                              : std::string("infeasible")) +
                             ")");
  }
  base_ = baseOut.placement;

  // Partition the base policies over the shards by ingress port.
  const int nShards = options_.shards;
  std::vector<SnapshotShard> slices(static_cast<std::size_t>(nShards));
  gids_.resize(scenario.policies.size());
  for (std::size_t i = 0; i < scenario.policies.size(); ++i) {
    const topo::PortId ingress = scenario.routing[i].ingress;
    const int s = static_cast<int>(ingress % nShards);
    gids_[i] = {s, ingress};
    slices[static_cast<std::size_t>(s)].localToGlobal.push_back(
        static_cast<int>(i));
  }

  // Each shard's slice of the base placement (tags remapped to local ids)
  // and its capacity share: its base usage plus an even split of the
  // network-wide spare, so Σ shares == real capacity per switch (with one
  // shard, the share is the real capacity).
  for (SnapshotShard& slice : slices) {
    const std::vector<int>& mine = slice.localToGlobal;
    std::vector<int> globalToLocal(scenario.policies.size(), -1);
    for (std::size_t l = 0; l < mine.size(); ++l) {
      globalToLocal[static_cast<std::size_t>(mine[l])] = static_cast<int>(l);
    }
    for (int g : mine) {
      slice.routing.push_back(scenario.routing[static_cast<std::size_t>(g)]);
      slice.policies.push_back(scenario.policies[static_cast<std::size_t>(g)]);
    }
    slice.placement = core::Placement(switchCount);
    for (topo::SwitchId sw = 0; sw < switchCount; ++sw) {
      auto& table = slice.placement.mutableTable(sw);
      for (const core::InstalledRule& r : base_.table(sw)) {
        // Merging is off, so every entry carries exactly one tag.
        const int local = globalToLocal[static_cast<std::size_t>(r.tags[0])];
        if (local < 0) continue;
        core::InstalledRule copy = r;
        copy.tags = {local};
        table.push_back(std::move(copy));
      }
    }
  }
  for (topo::SwitchId sw = 0; sw < switchCount; ++sw) {
    const int spare = scenario.graph.sw(sw).capacity - base_.usedCapacity(sw);
    if (spare < 0) {
      throw std::runtime_error("serve: base placement exceeds capacity");
    }
    for (int s = 0; s < nShards; ++s) {
      SnapshotShard& slice = slices[static_cast<std::size_t>(s)];
      slice.capacityShare.push_back(slice.placement.usedCapacity(sw) +
                                    spare / nShards +
                                    (s < spare % nShards ? 1 : 0));
    }
  }
  shedding_.assign(static_cast<std::size_t>(nShards), 0);

  // Durability: attempt recovery from the journal directory.  The newest
  // usable {snapshot + wal} generation replaces the fresh slices; then
  // that generation opens for writing and the acked-uncommitted tail is
  // re-enqueued through the normal solve path (without re-appending it).
  std::vector<Event> replay;
  std::vector<int> replayShards;
  if (!options_.journalDir.empty()) {
    JournalOptions jopts;
    jopts.dir = options_.journalDir;
    jopts.fsync = options_.journalFsync;
    jopts.snapshotEveryEvents = options_.snapshotEveryEvents;
    jopts.vfs = options_.vfs;
    SnapshotState genZero = snapshotState();  // no shards built yet
    genZero.shards = std::move(slices);
    RecoveredState rec = Journal::recover(jopts, genZero);
    slices = std::move(genZero.shards);
    recoveryDiagnostics_ = rec.diagnostics;
    if (rec.hasState) {
      recovered_ = true;
      lastSeq_ = rec.state.lastSeq;
      gids_.clear();
      for (const auto& [shard, ingress] : rec.state.gids) {
        gids_.push_back({shard, static_cast<topo::PortId>(ingress), false});
      }
      if (static_cast<int>(rec.state.shards.size()) != nShards) {
        throw std::runtime_error(
            "serve: journal was written with --shards " +
            std::to_string(rec.state.shards.size()) + ", not " +
            std::to_string(nShards));
      }
      for (const SnapshotShard& sh : rec.state.shards) {
        for (int g : sh.localToGlobal) {
          if (g >= 0 && static_cast<std::size_t>(g) < gids_.size()) {
            gids_[static_cast<std::size_t>(g)].live = true;
          }
        }
      }
      slices = std::move(rec.state.shards);
      for (const auto& [seq, gid] : rec.state.installSeqToGid) {
        installSeqToGid_[seq] = gid;
        gidToInstallSeq_[gid] = seq;
      }
      replay = std::move(rec.pending);
      replayShards = std::move(rec.pendingShards);
    }
    journal_ = std::make_unique<Journal>(
        jopts, rec.hasState ? rec.generation : 0, !rec.hasState,
        rec.hasState ? rec.validWalBytes : -1);
    if (rec.hasState) journal_->adoptPending(replay, replayShards);
  }

  Shard::Config shardCfg;
  shardCfg.maxBatch = options_.maxBatch;
  shardCfg.rebaseEvents = options_.rebaseEvents;
  shardCfg.overloadBatchAt =
      options_.maxQueue > 0 ? options_.maxQueue / 2 : 0;
  shardCfg.sessionOptions = sessionOptionsFor(options_);
  for (SnapshotShard& slice : slices) {
    shards_.emplace_back(
        std::make_unique<Shard>(scenario.graph, std::move(slice), shardCfg));
  }

  for (auto& shard : shards_) {
    shard->setLatencySink([this](std::int64_t ns) { recordLatency(ns); });
  }
  if (journal_ != nullptr) {
    for (int s = 0; s < nShards; ++s) {
      shards_[static_cast<std::size_t>(s)]->setCommitSink(
          [this, s](CommitRecord record) { onCommit(s, std::move(record)); });
    }
  }

  // Acked-but-uncommitted events ride the normal queues again; their gid
  // and liveness bookkeeping replays exactly as the original ingest did.
  for (std::size_t i = 0; i < replay.size(); ++i) {
    Event& ev = replay[i];
    if (ev.kind == EventKind::kInstall && ev.policyId >= 0) {
      if (static_cast<std::size_t>(ev.policyId) < gids_.size()) {
        gids_[static_cast<std::size_t>(ev.policyId)].live = true;
      }
      installSeqToGid_[ev.seq] = ev.policyId;
      gidToInstallSeq_[ev.policyId] = ev.seq;
    } else if (ev.kind == EventKind::kUninstall && ev.policyId >= 0 &&
               static_cast<std::size_t>(ev.policyId) < gids_.size()) {
      gids_[static_cast<std::size_t>(ev.policyId)].live = false;
      const auto it = gidToInstallSeq_.find(ev.policyId);
      if (it != gidToInstallSeq_.end()) {
        installSeqToGid_.erase(it->second);
        gidToInstallSeq_.erase(it);
      }
    }
    shards_[static_cast<std::size_t>(replayShards[i])]->enqueue(std::move(ev),
                                                               nowNs());
  }

  int workers = options_.workers;
  if (workers <= 0) {
    workers = std::min(nShards, util::ThreadPool::hardwareThreads());
  }
  pool_ = std::make_unique<util::ThreadPool>(workers);
  if (options_.debounceSeconds > 0.0) {
    ticker_ = std::thread([this] { tickerLoop(); });
  }
  for (int s = 0; s < nShards; ++s) {
    if (shards_[static_cast<std::size_t>(s)]->queueDepth() > 0) {
      kickAfterEnqueue(s);
    }
  }
}

Daemon::~Daemon() {
  if (ticker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(tickerMutex_);
      tickerStop_ = true;
    }
    tickerCv_.notify_all();
    ticker_.join();
  }
  // pool_ (declared last) is destroyed first and joins in-flight drains.
}

void Daemon::recordLatency(std::int64_t ns) {
  if (obs::enabled()) {
    obs::Registry::global()
        .histogram("serve.update_latency_us")
        .record(ns / 1000);
  }
  std::lock_guard<std::mutex> lock(latencyMutex_);
  latencyRing_[latencyNext_] = ns;
  latencyNext_ = (latencyNext_ + 1) % latencyRing_.size();
  ++latencyCount_;
  ewmaLatencyNs_ = ewmaLatencyNs_ == 0.0
                       ? static_cast<double>(ns)
                       : 0.9 * ewmaLatencyNs_ + 0.1 * static_cast<double>(ns);
}

std::int64_t Daemon::retryAfterMs() const {
  std::lock_guard<std::mutex> lock(latencyMutex_);
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(ewmaLatencyNs_ / 1e6));
}

std::vector<std::int64_t> Daemon::latencyWindowNs() const {
  std::lock_guard<std::mutex> lock(latencyMutex_);
  const std::size_t n = std::min<std::size_t>(
      static_cast<std::size_t>(latencyCount_), latencyRing_.size());
  std::vector<std::int64_t> out(latencyRing_.begin(),
                                latencyRing_.begin() + n);
  return out;
}

void Daemon::resetLatencyWindow() {
  std::lock_guard<std::mutex> lock(latencyMutex_);
  latencyNext_ = 0;
  latencyCount_ = 0;
}

void Daemon::scheduleDrain(int shard) {
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (!s.tryBeginDrain()) return;  // empty, or a drain already owns it
  pool_->submit([&s] {
    // Keep the drain slot until the queue stays empty across the release:
    // finishDrain() reports late arrivals, and re-begin closes the race
    // where an enqueue lands between the last drainStep and the release.
    do {
      while (s.drainStep()) {
      }
    } while (s.finishDrain() && s.tryBeginDrain());
  });
}

void Daemon::kickAfterEnqueue(int shard) {
  if (options_.debounceSeconds < 0.0) return;  // manual drain (replay mode)
  if (options_.debounceSeconds == 0.0 ||
      shards_[static_cast<std::size_t>(shard)]->queueDepth() >=
          options_.maxBatch) {
    scheduleDrain(shard);
  }
}

void Daemon::tickerLoop() {
  const auto window = std::chrono::duration<double>(options_.debounceSeconds);
  std::unique_lock<std::mutex> lock(tickerMutex_);
  while (!tickerStop_) {
    tickerCv_.wait_for(lock, window);
    if (tickerStop_) return;
    lock.unlock();
    for (int s = 0; s < shardCount(); ++s) {
      if (shards_[static_cast<std::size_t>(s)]->queueDepth() > 0) {
        scheduleDrain(s);
      }
    }
    lock.lock();
  }
}

void Daemon::flush() {
  while (true) {
    bool idle = true;
    for (int s = 0; s < shardCount(); ++s) {
      Shard& shard = *shards_[static_cast<std::size_t>(s)];
      if (shard.queueDepth() > 0) {
        idle = false;
        scheduleDrain(s);
      } else if (shard.draining()) {
        idle = false;
      }
    }
    if (idle) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

topo::IngressPaths Daemon::resolveRouting(const Event& event,
                                          topo::PortId ingress) const {
  topo::Path path;
  if (!event.via.empty()) {
    path.ingress = ingress;
    path.egress = event.egress;
    path.switches = event.via;
    const topo::Graph& g = scenario_->graph;
    if (path.switches.front() != g.entryPort(ingress).attachedSwitch ||
        path.switches.back() != g.entryPort(event.egress).attachedSwitch) {
      throw ProtocolError("via path does not connect ingress to egress");
    }
    for (std::size_t i = 1; i < path.switches.size(); ++i) {
      if (!g.hasLink(path.switches[i - 1], path.switches[i])) {
        throw ProtocolError("via path uses a non-existent link");
      }
    }
  } else {
    // Deterministic: the tie-break stream depends only on (routeSeed, seq).
    util::Rng rng = routeRoot_.stream(static_cast<std::uint64_t>(event.seq));
    path = router_.route(ingress, event.egress, rng);
  }
  topo::IngressPaths r;
  r.ingress = ingress;
  r.paths.push_back(std::move(path));
  return r;
}

std::string Daemon::handleEvent(Event event) {
  if (event.seq <= lastSeq_) {
    return errorResponse("out-of-order seq " + std::to_string(event.seq) +
                         " (last accepted " + std::to_string(lastSeq_) + ")");
  }
  // Phase 1 — resolve, mutating nothing: a journal append failure below
  // must leave the daemon exactly as if the event never arrived, so the
  // same seq can be retried and produce an identical frame.
  int shard;
  switch (event.kind) {
    case EventKind::kInstall: {
      event.policyId = static_cast<int>(gids_.size());
      event.routing = resolveRouting(event, event.ingress);
      shard = static_cast<int>(event.ingress % options_.shards);
      break;
    }
    case EventKind::kReroute: {
      if (event.policyId < 0 ||
          event.policyId >= static_cast<int>(gids_.size())) {
        return errorResponse("reroute: unknown policy " +
                             std::to_string(event.policyId));
      }
      const GidInfo& info = gids_[static_cast<std::size_t>(event.policyId)];
      event.routing = resolveRouting(event, info.ingress);
      shard = info.shard;
      break;
    }
    case EventKind::kUninstall: {
      if (event.installSeq >= 0) {
        const auto it = installSeqToGid_.find(event.installSeq);
        if (it == installSeqToGid_.end()) {
          return errorResponse("uninstall: unknown install_seq " +
                               std::to_string(event.installSeq));
        }
        event.policyId = it->second;
      }
      if (event.policyId < 0 ||
          event.policyId >= static_cast<int>(gids_.size())) {
        return errorResponse("uninstall: unknown policy " +
                             std::to_string(event.policyId));
      }
      if (!gids_[static_cast<std::size_t>(event.policyId)].live) {
        return errorResponse("uninstall: policy " +
                             std::to_string(event.policyId) +
                             " is not installed");
      }
      shard = gids_[static_cast<std::size_t>(event.policyId)].shard;
      break;
    }
    case EventKind::kCapacity: {
      if (options_.shards != 1) {
        return errorResponse(
            "capacity events require --shards 1 (shares are fixed at "
            "startup)");
      }
      shard = 0;
      break;
    }
    default:
      return errorResponse("unhandled event kind");
  }

  // Phase 2 — admission (the shed ladder, DaemonOptions::maxQueue).
  if (options_.maxQueue > 0) {
    const std::size_t depth =
        shards_[static_cast<std::size_t>(shard)]->queueDepth();
    const bool latched = shedding_[static_cast<std::size_t>(shard)] != 0;
    if (latched ? depth >= options_.maxQueue / 4
                : depth >= options_.maxQueue) {
      shedding_[static_cast<std::size_t>(shard)] = 1;
      shedCount_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        obs::Registry::global().counter("serve.shed").add(1);
      }
      kickAfterEnqueue(shard);  // shedding must still push the drain along
      return "{\"ok\":false,\"shed\":true,\"retry_after_ms\":" +
             std::to_string(retryAfterMs()) + "}";
    }
    shedding_[static_cast<std::size_t>(shard)] = 0;
    if (depth >= options_.maxQueue / 2) {
      backpressureCount_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        obs::Registry::global().counter("serve.backpressure").add(1);
      }
    }
  }

  // Phase 3 — durability: the EVENT frame must be on disk (per FsyncMode)
  // before the ack below; on failure nothing was mutated, so reject.
  if (journal_ != nullptr) {
    std::lock_guard<std::mutex> lock(journalMutex_);
    std::string jerr;
    if (!journal_->appendEvent(event, shard, &jerr)) {
      lastJournalError_ = jerr;
      return errorResponse("journal append failed (" + jerr +
                           "); event rejected");
    }
    if (journal_->shouldSnapshot()) {
      std::string serr;
      if (!journal_->writeSnapshot(snapshotState(), &serr)) {
        lastJournalError_ = serr;  // non-fatal: old generation still valid
      }
    }
  }

  // Phase 4 — commit the ingest bookkeeping and ack.
  if (event.kind == EventKind::kInstall) {
    gids_.push_back({shard, event.ingress, true});
    installSeqToGid_[event.seq] = event.policyId;
    gidToInstallSeq_[event.policyId] = event.seq;
  } else if (event.kind == EventKind::kUninstall) {
    gids_[static_cast<std::size_t>(event.policyId)].live = false;
    const auto it = gidToInstallSeq_.find(event.policyId);
    if (it != gidToInstallSeq_.end()) {
      installSeqToGid_.erase(it->second);
      gidToInstallSeq_.erase(it);
    }
  }
  lastSeq_ = event.seq;
  const std::int64_t seq = event.seq;
  shards_[static_cast<std::size_t>(shard)]->enqueue(std::move(event),
                                                    nowNs());
  if (obs::enabled()) {
    obs::Registry::global().counter("serve.events").add(1);
  }
  kickAfterEnqueue(shard);
  return okSeqResponse(seq);
}

SnapshotState Daemon::snapshotState() const {
  SnapshotState state;
  state.lastSeq = lastSeq_;
  state.gids.reserve(gids_.size());
  for (const GidInfo& g : gids_) {
    state.gids.emplace_back(g.shard, static_cast<std::int64_t>(g.ingress));
  }
  state.installSeqToGid.assign(installSeqToGid_.begin(),
                               installSeqToGid_.end());
  for (const auto& shard : shards_) {
    state.shards.push_back(*shard->snapshot());
  }
  return state;
}

void Daemon::onCommit(int shard, CommitRecord record) {
  record.shard = shard;
  std::lock_guard<std::mutex> lock(journalMutex_);
  if (journal_ == nullptr) return;
  std::string err;
  if (!journal_->appendCommit(record, &err)) {
    lastJournalError_ = err;  // redo loss only costs a re-solve at recovery
  }
}

Daemon::Composed Daemon::compose() const { return composeState(true); }

Daemon::Composed Daemon::composeState(bool withPolicies) const {
  Composed out;
  out.problem.graph = &scenario_->graph;
  const int switchCount = scenario_->graph.switchCount();
  out.placement = core::Placement(switchCount);
  std::vector<int> caps(static_cast<std::size_t>(switchCount), 0);
  for (const auto& shard : shards_) {
    const auto snap = shard->snapshot();
    std::vector<int> tagMap(snap->policies.size());
    for (std::size_t l = 0; l < snap->policies.size(); ++l) {
      tagMap[l] = static_cast<int>(out.globalIds.size());
      out.globalIds.push_back(snap->localToGlobal[l]);
      if (withPolicies) {
        out.problem.routing.push_back(snap->routing[l]);
        out.problem.policies.push_back(snap->policies[l]);
      }
    }
    out.placement.appendMapped(snap->placement, tagMap);
    for (topo::SwitchId sw = 0; sw < switchCount; ++sw) {
      caps[static_cast<std::size_t>(sw)] +=
          snap->capacityShare[static_cast<std::size_t>(sw)];
    }
    out.version += snap->version;
    if (!snap->lastError.empty()) out.lastError = snap->lastError;
  }
  out.problem.capacityOverride = std::move(caps);
  return out;
}

std::string Daemon::oneShotDivergence() const {
  if (shardCount() != 1) {
    return "one-shot check requires a single shard";
  }
  const Composed c = compose();
  const std::size_t baseN = scenario_->policies.size();
  for (topo::SwitchId sw = 0; sw < scenario_->graph.switchCount(); ++sw) {
    if (c.problem.capacityOf(sw) != scenario_->graph.sw(sw).capacity) {
      return "capacity events were applied; one-shot check needs an "
             "installs-only trace";
    }
  }
  for (std::size_t i = 0; i < baseN; ++i) {
    const topo::IngressPaths& a = c.problem.routing[i];
    const topo::IngressPaths& b = scenario_->routing[i];
    bool same = a.ingress == b.ingress && a.paths.size() == b.paths.size();
    for (std::size_t p = 0; same && p < a.paths.size(); ++p) {
      same = a.paths[p].ingress == b.paths[p].ingress &&
             a.paths[p].egress == b.paths[p].egress &&
             a.paths[p].switches == b.paths[p].switches;
    }
    if (!same) {
      return "base policy " + std::to_string(i) +
             " was rerouted; one-shot check needs an installs-only trace";
    }
  }
  core::IncrementalSession ref(scenario_->problem(), base_,
                               sessionOptionsFor(options_));
  if (c.problem.policies.size() > baseN) {
    std::vector<topo::IngressPaths> routing(c.problem.routing.begin() +
                                                static_cast<std::ptrdiff_t>(baseN),
                                            c.problem.routing.end());
    std::vector<acl::Policy> policies(c.problem.policies.begin() +
                                          static_cast<std::ptrdiff_t>(baseN),
                                      c.problem.policies.end());
    core::PlaceOutcome out =
        ref.install(std::move(routing), std::move(policies));
    if (!out.hasSolution()) {
      return "one-shot install of the end state failed: " +
             (out.failure ? out.failure->message : std::string("infeasible"));
    }
  }
  if (ref.placement() != c.placement) {
    return "daemon placement is not bit-identical to the one-shot install";
  }
  return {};
}

Daemon::Stats Daemon::stats() const {
  Stats st;
  for (const auto& shard : shards_) {
    const Shard::Counters c = shard->counters();
    st.totals.enqueued += c.enqueued;
    st.totals.committed += c.committed;
    st.totals.failed += c.failed;
    st.totals.coalesced += c.coalesced;
    st.totals.batches += c.batches;
    st.totals.solves += c.solves;
    st.totals.repacks += c.repacks;
    st.totals.escalations += c.escalations;
    st.totals.rebases += c.rebases;
    st.totals.overloadBatches += c.overloadBatches;
    st.queueDepth += shard->queueDepth();
    st.policies +=
        static_cast<std::int64_t>(shard->snapshot()->policies.size());
  }
  st.lastSeq = lastSeq_;
  std::vector<std::int64_t> window = latencyWindowNs();
  st.latencySamples = static_cast<std::int64_t>(window.size());
  if (!window.empty()) {
    const std::size_t p99 = (window.size() * 99) / 100;
    std::nth_element(window.begin(),
                     window.begin() + static_cast<std::ptrdiff_t>(p99),
                     window.end());
    st.p99UpdateMs =
        static_cast<double>(window[p99]) / 1e6;
    st.maxUpdateMs = static_cast<double>(*std::max_element(
                         window.begin(), window.end())) /
                     1e6;
  }
  st.shed = shedCount_.load(std::memory_order_relaxed);
  st.backpressured = backpressureCount_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (journal_ != nullptr) {
      st.journalEvents = journal_->appendedEvents();
      st.journalGeneration = journal_->generation();
    }
    st.lastJournalError = lastJournalError_;
  }
  return st;
}

std::string Daemon::handleQuery(const std::string& what) {
  if (what == "stats") {
    const Stats st = stats();
    std::string out = "{\"ok\":true,\"stats\":{";
    out += "\"enqueued\":" + std::to_string(st.totals.enqueued);
    out += ",\"committed\":" + std::to_string(st.totals.committed);
    out += ",\"failed\":" + std::to_string(st.totals.failed);
    out += ",\"coalesced\":" + std::to_string(st.totals.coalesced);
    out += ",\"batches\":" + std::to_string(st.totals.batches);
    out += ",\"solves\":" + std::to_string(st.totals.solves);
    out += ",\"repacks\":" + std::to_string(st.totals.repacks);
    out += ",\"escalations\":" + std::to_string(st.totals.escalations);
    out += ",\"rebases\":" + std::to_string(st.totals.rebases);
    out += ",\"queue\":" + std::to_string(st.queueDepth);
    out += ",\"policies\":" + std::to_string(st.policies);
    out += ",\"latency_samples\":" + std::to_string(st.latencySamples);
    out += ",\"p99_update_ms\":" + fmtMs(st.p99UpdateMs);
    out += ",\"max_update_ms\":" + fmtMs(st.maxUpdateMs);
    out += ",\"shed\":" + std::to_string(st.shed);
    out += ",\"backpressured\":" + std::to_string(st.backpressured);
    out += ",\"overload_batches\":" +
           std::to_string(st.totals.overloadBatches);
    out += ",\"journal_generation\":" +
           std::to_string(st.journalGeneration);
    out += ",\"journal_events\":" + std::to_string(st.journalEvents);
    if (!st.lastJournalError.empty()) {
      out += ",\"last_journal_error\":\"" +
             io::jsonEscape(st.lastJournalError) + "\"";
    }
    out += "}}";
    return out;
  }
  if (what == "metrics") {
    return "{\"ok\":true,\"metrics\":" +
           obs::Registry::global().metricsJson() + "}";
  }
  if (what == "placement" || what == "verify") {
    const Composed c = composeState(what == "verify");
    std::string out = "{\"ok\":true,\"version\":" +
                      std::to_string(c.version) + ",\"policies\":[";
    for (std::size_t i = 0; i < c.globalIds.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(c.globalIds[i]);
    }
    out += ']';
    if (!c.lastError.empty()) {
      out += ",\"last_error\":\"" + io::jsonEscape(c.lastError) + "\"";
    }
    if (what == "verify") {
      const core::VerifyResult v =
          core::verifyPlacement(c.problem, c.placement);
      out += ",\"verified\":";
      out += v.ok ? "true" : "false";
      if (!v.ok) {
        out += ",\"verify_error\":\"" +
               io::jsonEscape(v.errors.empty() ? "?" : v.errors.front()) +
               "\"";
      }
    } else {
      out += ",\"placement\":";
      io::appendPlacementJson(out, c.problem, c.placement);
    }
    out += '}';
    return out;
  }
  if (what == "explain") {
    const Composed c = compose();
    core::EncoderOptions enc;
    enc.enableMerging = false;
    const core::InfeasibilityExplanation ex = core::explainInfeasible(
        c.problem, enc, solver::Budget::seconds(10.0));
    std::string out = "{\"ok\":true,\"infeasible\":";
    out += ex.confirmedInfeasible ? "true" : "false";
    out += ",\"capacity_driven\":";
    out += ex.capacityDriven ? "true" : "false";
    out += ",\"minimal\":";
    out += ex.minimal ? "true" : "false";
    out += ",\"switches\":[";
    for (std::size_t i = 0; i < ex.switches.size(); ++i) {
      if (i > 0) out += ',';
      const std::string& name =
          scenario_->graph.sw(ex.switches[i]).name;
      out += "\"" +
             io::jsonEscape(name.empty() ? std::to_string(ex.switches[i])
                                         : name) +
             "\"";
    }
    out += "]}";
    return out;
  }
  return errorResponse("unknown query \"" + what +
                       "\" (placement|verify|stats|metrics|explain)");
}

std::string Daemon::handleLine(std::string_view line) {
  if (stopped_) return errorResponse("daemon is shut down");
  Request req;
  try {
    req = parseRequest(line, names_);
  } catch (const std::exception& e) {
    return errorResponse(e.what());
  }
  switch (req.kind) {
    case RequestKind::kEvent:
      try {
        return handleEvent(std::move(req.event));
      } catch (const std::exception& e) {
        return errorResponse(e.what());
      }
    case RequestKind::kQuery:
      return handleQuery(req.what);
    case RequestKind::kFlush:
      flush();
      return "{\"ok\":true,\"flushed\":true}";
    case RequestKind::kShutdown: {
      flush();
      {
        std::lock_guard<std::mutex> lock(journalMutex_);
        if (journal_ != nullptr) {
          std::string err;
          if (!journal_->sync(&err)) lastJournalError_ = err;
        }
      }
      stopped_ = true;
      const Stats st = stats();
      return "{\"ok\":true,\"shutdown\":true,\"committed\":" +
             std::to_string(st.totals.committed) +
             ",\"failed\":" + std::to_string(st.totals.failed) + "}";
    }
  }
  return errorResponse("unhandled request");
}

}  // namespace ruleplace::serve
