#pragma once
// One daemon shard: a partition of the ingress ports, its policies, and a
// core::IncrementalSession applying their churn.
//
// Threading contract (the whole point of the shape):
//   * enqueue() is called by the ingest thread, any time;
//   * drainStep() is called by at most one worker task at a time — the
//     daemon guards it with tryBeginDrain()/finishDrain();
//   * snapshot()/counters() are called by query threads, any time.
// The session itself is touched only inside drainStep(), so it needs no
// locking; queries only ever see the last *committed* state through an
// atomically swapped immutable Snapshot — a query can never observe a
// half-applied batch.
//
// A batch is the queue's front slice (bounded by Config::maxBatch),
// coalesced into runs of same-kind events: consecutive installs become one
// session install (one restricted re-solve for the whole run), consecutive
// reroutes one session reroute with last-wins dedup per policy.  A failed
// multi-event run is retried event-by-event so one poison event cannot take
// down its whole batch — which also exercises the session's rollback path
// back-to-back, exactly the lifecycle the PR 8 bug sweep hardens.
//
// Shard capacity: each shard owns a fixed share of every switch's TCAM
// (its base usage plus an even split of the spare), so the shards' solves
// are independent and their union never exceeds the real capacity.  With
// one shard the share is the full capacity and placement is exact.  The
// share is the session problem's capacityOverride; a capacity event
// changes it in place.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/incremental.h"
#include "serve/journal.h"
#include "serve/protocol.h"

namespace ruleplace::serve {

class Shard {
 public:
  struct Config {
    std::size_t maxBatch = 256;
    /// Committed session events between rebases (0 = never).  A rebase
    /// moves every session-placed policy into the session's fixed base: a
    /// later repack may then move only what the session placed since.
    int rebaseEvents = 512;
    /// Overload rung: when the queue holds at least this many events at
    /// drain time, the batch takes the WHOLE queue (maximum coalescing)
    /// instead of maxBatch.  0 = never.
    std::size_t overloadBatchAt = 0;
    core::PlaceOptions sessionOptions;
  };

  /// Immutable committed state, shared with query threads.  Its
  /// lastCommittedSeq is the seq watermark: every event with seq <= it is
  /// resolved (committed or failed) and reflected here.  The queue is FIFO
  /// and ingest seqs are strictly increasing, so the watermark is complete.
  struct Snapshot : SnapshotShard {
    std::int64_t version = 0;
    std::string lastError;  ///< last failed run's message ("" = none)
  };

  struct Counters {
    std::int64_t enqueued = 0;
    std::int64_t committed = 0;  ///< events applied and visible
    std::int64_t failed = 0;     ///< events rejected (infeasible/budget/...)
    std::int64_t coalesced = 0;  ///< events absorbed by last-wins dedup
    std::int64_t batches = 0;    ///< drainStep() calls that saw work
    std::int64_t solves = 0;     ///< session install/reroute calls
    std::int64_t repacks = 0;
    std::int64_t escalations = 0;
    std::int64_t rebases = 0;
    std::int64_t overloadBatches = 0;  ///< whole-queue overload drains
  };

  /// `state` is this shard's slice in *local* ids (its localToGlobal maps
  /// them back), with the per-switch capacity it may use (base usage
  /// included) and the seq watermark it already covers.  The shard's one
  /// session is built here and lives as long as the shard.
  Shard(const topo::Graph& graph, SnapshotShard state, Config config);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Queue one event (ingest thread).  `arrivalNs` is the ingest timestamp
  /// used for update-latency accounting.
  void enqueue(Event event, std::int64_t arrivalNs);

  std::size_t queueDepth() const;

  /// Claim the drain slot.  Returns false when the queue is empty or
  /// another drain is in flight; a true return obliges the caller to call
  /// drainStep() until it returns false and then finishDrain().
  bool tryBeginDrain();
  /// Apply one batch; returns true while more work is queued.
  bool drainStep();
  /// Release the drain slot.  Returns true when events raced in after the
  /// last drainStep() — the caller must re-begin.
  bool finishDrain();
  bool draining() const;

  std::shared_ptr<const Snapshot> snapshot() const;
  Counters counters() const;

  /// Per-committed-event latency sink, called at commit with
  /// (now - arrivalNs) in nanoseconds.  Set once, before events flow.
  void setLatencySink(std::function<void(std::int64_t)> sink) {
    latencySink_ = std::move(sink);
  }

  /// Per-batch commit sink, called once after each drained batch publishes,
  /// outside every shard lock, with the batch's redo record (CommitRecord
  /// fields filled except `shard`, which the daemon stamps).  Set once,
  /// before events flow.
  void setCommitSink(std::function<void(CommitRecord)> sink) {
    commitSink_ = std::move(sink);
  }

 private:
  struct Queued {
    Event event;
    std::int64_t arrivalNs = 0;
  };

  void publish(std::string lastError);
  bool applyInstallRun(const std::vector<const Queued*>& run, bool isolate,
                       std::string* error);
  bool applyRerouteRun(const std::vector<const Queued*>& run, bool isolate,
                       std::string* error);
  bool applyCapacity(const Queued& q, std::string* error);
  bool applyUninstallRun(const std::vector<const Queued*>& run,
                         std::string* error);
  void maybeRebase();
  void recordCommitted(const std::vector<const Queued*>& run,
                       std::int64_t nowNs);
  void recordFailed(const std::vector<const Queued*>& run);

  const topo::Graph* graph_;
  Config config_;
  std::unique_ptr<core::IncrementalSession> session_;
  std::vector<int> localToGlobal_;
  std::unordered_map<int, int> globalToLocal_;
  std::function<void(std::int64_t)> latencySink_;
  std::function<void(CommitRecord)> commitSink_;

  /// Per-batch seq outcomes in apply order, captured for the commit sink.
  /// Non-null only inside drainStep() (single drain thread).
  struct BatchLog {
    std::vector<std::int64_t> committed;
    std::vector<std::int64_t> failed;
  };
  BatchLog* batchLog_ = nullptr;
  std::int64_t lastCommittedSeq_ = -1;  ///< drain thread only
  /// Snapshot the commit sink last saw (drain thread only): the baseline
  /// for each batch's changed-table diff.
  std::shared_ptr<const Snapshot> prevPublished_;

  int committedSinceRebase_ = 0;

  mutable std::mutex queueMutex_;
  std::deque<Queued> queue_;
  bool draining_ = false;
  /// Incremented with the push, inside queueMutex_, so a sampler can never
  /// observe a queued event that is not yet counted (atomic because
  /// counters() reads it under stateMutex_ only).
  std::atomic<std::int64_t> enqueuedCount_{0};

  mutable std::mutex stateMutex_;  // snapshot_ + counters_
  std::shared_ptr<const Snapshot> snapshot_;
  Counters counters_;
  std::int64_t version_ = 0;
};

}  // namespace ruleplace::serve
