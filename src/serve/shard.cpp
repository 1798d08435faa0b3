#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/obs.h"

namespace ruleplace::serve {

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string outcomeError(const core::PlaceOutcome& out) {
  if (out.failure.has_value() && !out.failure->message.empty()) {
    return out.failure->message;
  }
  return out.status == solver::OptStatus::kInfeasible ? "event infeasible"
                                                      : "event not solved";
}

}  // namespace

Shard::Shard(const topo::Graph& graph, SnapshotShard state, Config config)
    : graph_(&graph),
      config_(std::move(config)),
      localToGlobal_(std::move(state.localToGlobal)),
      lastCommittedSeq_(state.lastCommittedSeq) {
  for (std::size_t i = 0; i < localToGlobal_.size(); ++i) {
    globalToLocal_.emplace(localToGlobal_[i], static_cast<int>(i));
  }
  core::PlacementProblem problem;
  problem.graph = graph_;
  problem.routing = std::move(state.routing);
  problem.policies = std::move(state.policies);
  problem.capacityOverride = std::move(state.capacityShare);
  session_ = std::make_unique<core::IncrementalSession>(
      std::move(problem), std::move(state.placement), config_.sessionOptions);
  publish({});
  prevPublished_ = snapshot();
}

Shard::~Shard() = default;

void Shard::enqueue(Event event, std::int64_t arrivalNs) {
  std::lock_guard<std::mutex> lock(queueMutex_);
  queue_.push_back({std::move(event), arrivalNs});
  enqueuedCount_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Shard::queueDepth() const {
  std::lock_guard<std::mutex> lock(queueMutex_);
  return queue_.size();
}

bool Shard::tryBeginDrain() {
  std::lock_guard<std::mutex> lock(queueMutex_);
  if (draining_ || queue_.empty()) return false;
  draining_ = true;
  return true;
}

bool Shard::finishDrain() {
  std::lock_guard<std::mutex> lock(queueMutex_);
  draining_ = false;
  return !queue_.empty();
}

bool Shard::draining() const {
  std::lock_guard<std::mutex> lock(queueMutex_);
  return draining_;
}

std::shared_ptr<const Shard::Snapshot> Shard::snapshot() const {
  std::lock_guard<std::mutex> lock(stateMutex_);
  return snapshot_;
}

Shard::Counters Shard::counters() const {
  std::lock_guard<std::mutex> lock(stateMutex_);
  Counters c = counters_;
  c.enqueued = enqueuedCount_.load(std::memory_order_relaxed);
  return c;
}

void Shard::recordCommitted(const std::vector<const Queued*>& run,
                            std::int64_t commitNs) {
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    counters_.committed += static_cast<std::int64_t>(run.size());
  }
  if (batchLog_ != nullptr) {
    for (const Queued* q : run) batchLog_->committed.push_back(q->event.seq);
  }
  if (latencySink_) {
    for (const Queued* q : run) latencySink_(commitNs - q->arrivalNs);
  }
}

void Shard::recordFailed(const std::vector<const Queued*>& run) {
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    counters_.failed += static_cast<std::int64_t>(run.size());
  }
  if (batchLog_ != nullptr) {
    for (const Queued* q : run) batchLog_->failed.push_back(q->event.seq);
  }
}

bool Shard::applyInstallRun(const std::vector<const Queued*>& run,
                            bool isolate, std::string* error) {
  std::vector<topo::IngressPaths> newRouting;
  std::vector<acl::Policy> newPolicies;
  newRouting.reserve(run.size());
  newPolicies.reserve(run.size());
  for (const Queued* q : run) {
    newRouting.push_back(q->event.routing);
    newPolicies.push_back(q->event.policy);
  }
  const int offset = session_->problem().policyCount();
  core::PlaceOutcome out =
      session_->install(std::move(newRouting), std::move(newPolicies));
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    ++counters_.solves;
  }
  if (out.hasSolution()) {
    for (std::size_t i = 0; i < run.size(); ++i) {
      const int gid = run[i]->event.policyId;
      localToGlobal_.push_back(gid);
      globalToLocal_[gid] = offset + static_cast<int>(i);
    }
    ++committedSinceRebase_;
    recordCommitted(run, nowNs());
    return true;
  }
  if (isolate && run.size() > 1) {
    // Failure isolation: re-apply one event at a time so a single poison
    // event fails alone.  Every failed attempt exercised a full session
    // rollback, so interleaving more solves right after is safe by the
    // session's rollback contract (regression-tested in
    // tests/test_solver_incremental.cpp).
    bool any = false;
    for (const Queued* q : run) {
      any = applyInstallRun({q}, false, error) || any;
    }
    return any;
  }
  *error = "install seq " + std::to_string(run.front()->event.seq) + ": " +
           outcomeError(out);
  recordFailed(run);
  return false;
}

bool Shard::applyRerouteRun(const std::vector<const Queued*>& run,
                            bool isolate, std::string* error) {
  std::vector<int> localIds;
  std::vector<topo::IngressPaths> newRouting;
  std::vector<const Queued*> resolved;
  for (const Queued* q : run) {
    const auto it = globalToLocal_.find(q->event.policyId);
    if (it == globalToLocal_.end()) {
      *error = "reroute seq " + std::to_string(q->event.seq) +
               ": unknown policy " + std::to_string(q->event.policyId);
      recordFailed({q});
      continue;
    }
    localIds.push_back(it->second);
    newRouting.push_back(q->event.routing);
    resolved.push_back(q);
  }
  if (resolved.empty()) return false;
  core::PlaceOutcome out =
      session_->reroute(localIds, std::move(newRouting));
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    ++counters_.solves;
  }
  if (out.hasSolution()) {
    ++committedSinceRebase_;
    recordCommitted(resolved, nowNs());
    return true;
  }
  if (isolate && resolved.size() > 1) {
    bool any = false;
    for (const Queued* q : resolved) {
      any = applyRerouteRun({q}, false, error) || any;
    }
    return any;
  }
  *error = "reroute seq " + std::to_string(resolved.front()->event.seq) +
           ": " + outcomeError(out);
  recordFailed(resolved);
  return false;
}

bool Shard::applyCapacity(const Queued& q, std::string* error) {
  // The session rebases onto the new capacity, or re-places the whole
  // shard first when a shrink strands the deployment over capacity.
  const std::optional<core::PlaceOutcome> replaced =
      session_->setCapacity(q.event.switchId, q.event.capacity);
  if (replaced.has_value() && !replaced->hasSolution()) {
    *error = "capacity seq " + std::to_string(q.event.seq) + ": switch " +
             std::to_string(q.event.switchId) + " cannot shrink to " +
             std::to_string(q.event.capacity) + " (" +
             outcomeError(*replaced) + "); capacity unchanged";
    recordFailed({&q});
    return false;
  }
  committedSinceRebase_ = 0;
  recordCommitted({&q}, nowNs());
  return true;
}

bool Shard::applyUninstallRun(const std::vector<const Queued*>& run,
                              std::string* error) {
  std::vector<const Queued*> resolved;
  std::vector<int> removeLocals;
  for (const Queued* q : run) {
    const auto it = globalToLocal_.find(q->event.policyId);
    if (it == globalToLocal_.end()) {
      *error = "uninstall seq " + std::to_string(q->event.seq) +
               ": unknown policy " + std::to_string(q->event.policyId);
      recordFailed({q});
      continue;
    }
    removeLocals.push_back(it->second);
    resolved.push_back(q);
  }
  if (resolved.empty()) return false;

  // Removal never violates capacity, so no solve: the session compacts
  // its ids around the retracted policies and rebases; the local ids here
  // compact the same way.
  session_->uninstall(removeLocals);
  session_->rebase();
  committedSinceRebase_ = 0;
  for (int l : removeLocals) {
    globalToLocal_.erase(localToGlobal_[static_cast<std::size_t>(l)]);
  }
  std::erase_if(localToGlobal_,
                [&](int g) { return !globalToLocal_.contains(g); });
  for (std::size_t l = 0; l < localToGlobal_.size(); ++l) {
    globalToLocal_[localToGlobal_[l]] = static_cast<int>(l);
  }
  recordCommitted(resolved, nowNs());
  return true;
}

void Shard::maybeRebase() {
  if (config_.rebaseEvents <= 0 ||
      committedSinceRebase_ < config_.rebaseEvents) {
    return;
  }
  session_->rebase();
  committedSinceRebase_ = 0;
  if (obs::enabled()) {
    obs::Registry::global().counter("serve.rebase").add(1);
  }
  std::lock_guard<std::mutex> lock(stateMutex_);
  ++counters_.rebases;
}

void Shard::publish(std::string lastError) {
  auto snap = std::make_shared<Snapshot>();
  snap->placement = session_->placement();
  snap->routing = session_->problem().routing;
  snap->policies = session_->problem().policies;
  snap->localToGlobal = localToGlobal_;
  snap->capacityShare = session_->problem().capacityOverride;
  snap->version = ++version_;
  snap->lastCommittedSeq = lastCommittedSeq_;
  snap->lastError = std::move(lastError);
  std::lock_guard<std::mutex> lock(stateMutex_);
  counters_.repacks = session_->repacks();
  counters_.escalations = session_->escalations();
  snapshot_ = std::move(snap);
}

bool Shard::drainStep() {
  std::vector<Queued> batch;
  bool overload = false;
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    overload = config_.overloadBatchAt > 0 &&
               queue_.size() >= config_.overloadBatchAt;
    const std::size_t n =
        overload ? queue_.size() : std::min(config_.maxBatch, queue_.size());
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  if (batch.empty()) return false;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    ++counters_.batches;
    if (overload) ++counters_.overloadBatches;
  }

  BatchLog log;
  batchLog_ = &log;

  // Fold matched install+uninstall pairs within the batch to a no-op: both
  // commit (and count as coalesced) without ever touching the session.
  // Structural replay preserves the fold for free — push then erase of the
  // same gid nets out.
  std::vector<char> folded(batch.size(), 0);
  {
    std::unordered_map<int, std::size_t> pendingInstall;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Event& e = batch[k].event;
      if (e.kind == EventKind::kInstall) {
        pendingInstall[e.policyId] = k;
      } else if (e.kind == EventKind::kUninstall) {
        const auto it = pendingInstall.find(e.policyId);
        if (it != pendingInstall.end()) {
          std::vector<const Queued*> pair = {&batch[it->second], &batch[k]};
          folded[it->second] = 1;
          folded[k] = 1;
          pendingInstall.erase(it);
          {
            std::lock_guard<std::mutex> lock(stateMutex_);
            counters_.coalesced += 2;
          }
          recordCommitted(pair, nowNs());
        }
      }
    }
  }

  std::string lastError;
  std::size_t i = 0;
  while (i < batch.size()) {
    if (folded[i] != 0) {
      ++i;
      continue;
    }
    const EventKind kind = batch[i].event.kind;
    std::size_t j = i;
    while (j < batch.size() &&
           (folded[j] != 0 || batch[j].event.kind == kind)) {
      ++j;
    }

    std::string error;
    if (kind == EventKind::kCapacity) {
      // Capacity events rebase the whole shard; apply them one by one.
      for (std::size_t k = i; k < j; ++k) {
        if (folded[k] != 0) continue;
        if (!applyCapacity(batch[k], &error)) lastError = error;
      }
    } else if (kind == EventKind::kUninstall) {
      std::vector<const Queued*> run;
      for (std::size_t k = i; k < j; ++k) {
        if (folded[k] == 0) run.push_back(&batch[k]);
      }
      if (!applyUninstallRun(run, &error)) lastError = error;
    } else if (kind == EventKind::kReroute) {
      // Last-wins dedup: within one run only the newest reroute of a
      // policy matters; superseded ones commit for free.
      std::unordered_map<int, std::size_t> last;
      for (std::size_t k = i; k < j; ++k) {
        if (folded[k] == 0) last[batch[k].event.policyId] = k;
      }
      std::vector<const Queued*> run;
      std::vector<const Queued*> superseded;
      for (std::size_t k = i; k < j; ++k) {
        if (folded[k] != 0) continue;
        if (last[batch[k].event.policyId] == k) {
          run.push_back(&batch[k]);
        } else {
          superseded.push_back(&batch[k]);
        }
      }
      if (!applyRerouteRun(run, true, &error)) lastError = error;
      if (!superseded.empty()) {
        {
          std::lock_guard<std::mutex> lock(stateMutex_);
          counters_.coalesced +=
              static_cast<std::int64_t>(superseded.size());
        }
        recordCommitted(superseded, nowNs());
      }
    } else {
      std::vector<const Queued*> run;
      for (std::size_t k = i; k < j; ++k) {
        if (folded[k] == 0) run.push_back(&batch[k]);
      }
      if (!applyInstallRun(run, true, &error)) lastError = error;
    }
    i = j;
  }
  // Every batch event is now resolved (committed, folded, or failed); the
  // queue is FIFO over strictly increasing seqs, so the batch tail is the
  // new watermark.
  lastCommittedSeq_ = std::max(lastCommittedSeq_, batch.back().event.seq);
  maybeRebase();
  publish(std::move(lastError));
  batchLog_ = nullptr;

  if (commitSink_) {
    const auto snap = snapshot();
    CommitRecord record;
    record.maxSeq = lastCommittedSeq_;
    record.committedSeqs = std::move(log.committed);
    record.failedSeqs = std::move(log.failed);
    const auto prev = prevPublished_;
    for (topo::SwitchId sw = 0; sw < graph_->switchCount(); ++sw) {
      if (prev == nullptr ||
          prev->placement.table(sw) != snap->placement.table(sw)) {
        record.tables.emplace_back(sw, snap->placement.table(sw));
      }
    }
    prevPublished_ = snap;
    commitSink_(std::move(record));
  }

  std::lock_guard<std::mutex> lock(queueMutex_);
  return !queue_.empty();
}

}  // namespace ruleplace::serve
