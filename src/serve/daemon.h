#pragma once
// The long-lived placement daemon behind tools/ruleplace_serve.
//
// One Daemon owns a scenario's graph, the base deployment, and a set of
// Shards (per-ingress partitions, each wrapping a persistent
// core::IncrementalSession).  The ingest thread feeds protocol lines
// through handleLine(); state-mutating events are routed to their shard's
// queue and acknowledged immediately, then a per-shard worker task on the
// util::ThreadPool drains the queue in coalesced batches.  Coalescing is
// two-level: bursts accumulate while a drain is in flight (or until the
// debounce window fires), and the shard folds each batch into at most one
// session solve per run of same-kind events (see shard.h).
//
// Queries never touch a session or a queue lock held across a solve: they
// compose the shards' immutable snapshots, so a query during a batch sees
// exactly the previous committed state — never a partial placement.
//
// Determinism: with one shard and manual draining (debounceSeconds < 0,
// drained only by flush()), the event stream maps to exactly one batch
// sequence, and every path is a pure function of (routeSeed, seq) — the
// property the serve-smoke CI check exploits to demand bit-identical
// placements against a one-shot install of the end state.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/verify.h"
#include "io/scenario.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/shard.h"
#include "util/thread_pool.h"

namespace ruleplace::serve {

struct DaemonOptions {
  int shards = 1;
  /// Worker threads draining shard queues (0 = min(shards, hardware)).
  int workers = 0;
  /// Events per coalesced batch (the max-batch cap).
  std::size_t maxBatch = 256;
  /// Debounce window in seconds: 0 drains eagerly (a worker is kicked on
  /// every enqueue; bursts still coalesce behind the in-flight drain),
  /// > 0 waits for the window or a full batch, < 0 never auto-drains
  /// (flush()/shutdown only — the deterministic replay mode).
  double debounceSeconds = 0.0;
  /// Per-event wall-clock budget (< 0 = none).  Re-armed for every event
  /// by the session — a fixed absolute deadline would go stale and reject
  /// everything after the first timeout.
  double eventTimeoutSeconds = -1.0;
  std::int64_t eventConflictBudget = -1;  ///< per-event conflicts (< 0 none)
  /// Feasibility-only re-solves (the incremental default).  Off = optimize
  /// each event's objective.
  bool satisfiabilityOnly = true;
  /// Escalate infeasible restricted re-solves to a full re-place.
  bool escalate = true;
  /// Committed events between session rebases (0 = never); see
  /// Shard::Config::rebaseEvents.
  int rebaseEvents = 512;
  /// Seed for deterministic path tie-breaking; path of event seq is a pure
  /// function of (routeSeed, seq).
  std::uint64_t routeSeed = 1;
  bool observability = false;

  /// Write-ahead journal directory ("" = durability off).  With a journal,
  /// construction first attempts recovery from the newest usable
  /// {snapshot + wal} generation in the directory (docs/serve.md).
  std::string journalDir;
  FsyncMode journalFsync = FsyncMode::kBatch;
  /// Appended events between snapshot cuts (0 = never snapshot).
  std::int64_t snapshotEveryEvents = 8192;
  /// IO layer for the journal; nullptr = util::realFs().  Tests inject a
  /// util::FaultFs here.
  util::Vfs* vfs = nullptr;

  /// Admission control: maximum per-shard queue depth (0 = unbounded).
  /// The shed ladder (docs/serve.md "Backpressure"):
  ///   depth >= maxQueue/2  — backpressure rung: drains switch to
  ///     whole-queue batches (maximum coalescing), accepts still ack;
  ///   depth >= maxQueue    — shed rung: events are refused with
  ///     {"ok":false,"shed":true,"retry_after_ms":...} and lastSeq does
  ///     not advance, so the same seq can be retried;
  ///   shedding stops only once depth falls below maxQueue/4 (hysteresis).
  std::size_t maxQueue = 0;
};

class Daemon {
 public:
  /// Solves the scenario's base deployment (merging off) and splits it
  /// over the shards.  Throws std::runtime_error when the base instance
  /// has no placement.  The scenario must outlive the daemon.
  Daemon(const io::Scenario& scenario, DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Process one protocol line, returning the one-line JSON response.
  /// Never throws on bad input — malformed lines yield {"ok":false,...}.
  std::string handleLine(std::string_view line);

  /// True once a shutdown request was processed; subsequent lines are
  /// rejected.
  bool stopped() const noexcept { return stopped_; }

  /// Drain every shard queue to empty (blocking).
  void flush();

  /// The composed global state: a dense problem over every committed
  /// policy plus the matching placement.  `globalIds[denseId]` maps back
  /// to protocol policy ids.
  struct Composed {
    core::PlacementProblem problem;
    core::Placement placement;
    std::vector<int> globalIds;
    std::int64_t version = 0;
    std::string lastError;
  };
  Composed compose() const;

  /// Deterministic-replay cross-check: re-applies every committed install
  /// as ONE IncrementalSession batch over the base deployment and compares
  /// the result bit-identically against the composed daemon placement.
  /// Meaningful for installs-only traces on a single shard (reroute or
  /// capacity events change the end state in ways a one-shot install does
  /// not express).  Returns "" on an exact match, else a diagnosis.  Call
  /// after flush().
  std::string oneShotDivergence() const;

  struct Stats {
    Shard::Counters totals;      ///< summed over shards
    std::size_t queueDepth = 0;  ///< summed over shards
    std::int64_t policies = 0;   ///< committed policies (incl. base)
    double p99UpdateMs = -1.0;   ///< -1 until a latency sample exists
    double maxUpdateMs = 0.0;
    /// Samples behind p99/max — at most the bounded ring size (the window
    /// is the documented accounting surface; nothing unbounded feeds it).
    std::int64_t latencySamples = 0;
    std::int64_t shed = 0;           ///< events refused at the shed rung
    std::int64_t backpressured = 0;  ///< events accepted above the
                                     ///< backpressure rung
    std::int64_t journalEvents = 0;      ///< events appended this process
    std::int64_t journalGeneration = -1;  ///< -1 = journal off
    std::string lastJournalError;
    /// Highest seq ever accepted (including recovered pending events);
    /// -1 before the first event.
    std::int64_t lastSeq = -1;
  };
  Stats stats() const;

  /// True when construction restored state from a journal.
  bool recovered() const noexcept { return recovered_; }
  /// Recovery diagnostics (torn tails, skipped generations, ...).
  const std::vector<std::string>& recoveryDiagnostics() const noexcept {
    return recoveryDiagnostics_;
  }

  /// Committed update latencies (ns), newest window (bounded ring).
  std::vector<std::int64_t> latencyWindowNs() const;
  void resetLatencyWindow();

  const core::Placement& basePlacement() const noexcept { return base_; }
  int shardCount() const noexcept { return static_cast<int>(shards_.size()); }

 private:
  struct GidInfo {
    int shard = 0;
    topo::PortId ingress = -1;
    bool live = true;  ///< false after uninstall (gids are never reused)
  };

  std::string handleEvent(Event event);
  std::string handleQuery(const std::string& what);
  /// compose(); without `withPolicies`, no policies or routing are copied
  /// (all a placement read renders).
  Composed composeState(bool withPolicies) const;
  topo::IngressPaths resolveRouting(const Event& event,
                                    topo::PortId ingress) const;
  void scheduleDrain(int shard);
  void kickAfterEnqueue(int shard);
  void recordLatency(std::int64_t ns);
  void tickerLoop();
  /// Current daemon state as a snapshot (ingest thread only).
  SnapshotState snapshotState() const;
  /// Commit-sink target: journals one batch's redo record (worker threads).
  void onCommit(int shard, CommitRecord record);
  std::int64_t retryAfterMs() const;

  const io::Scenario* scenario_;
  DaemonOptions options_;
  NameIndex names_;
  topo::ShortestPathRouter router_;
  util::Rng routeRoot_;
  core::Placement base_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<GidInfo> gids_;  // by global policy id
  std::int64_t lastSeq_ = -1;
  bool stopped_ = false;

  /// Live install seq -> gid and its inverse (uninstall by install_seq;
  /// ingest thread only).
  std::map<std::int64_t, int> installSeqToGid_;
  std::unordered_map<int, std::int64_t> gidToInstallSeq_;

  // Durability (all journal calls serialized by journalMutex_: ingest
  // appends events and cuts snapshots, workers append commit records).
  std::unique_ptr<Journal> journal_;
  mutable std::mutex journalMutex_;
  std::string lastJournalError_;  ///< guarded by journalMutex_
  bool recovered_ = false;
  std::vector<std::string> recoveryDiagnostics_;

  // Admission control (ingest thread only except the read-mostly stats).
  std::vector<char> shedding_;  ///< per-shard hysteresis latch
  std::atomic<std::int64_t> shedCount_{0};
  std::atomic<std::int64_t> backpressureCount_{0};

  mutable std::mutex latencyMutex_;
  std::vector<std::int64_t> latencyRing_;
  std::size_t latencyNext_ = 0;
  std::int64_t latencyCount_ = 0;
  double ewmaLatencyNs_ = 0.0;  ///< retry_after_ms estimate source

  std::thread ticker_;
  std::mutex tickerMutex_;
  std::condition_variable tickerCv_;
  bool tickerStop_ = false;

  // Declared last: destroyed first, so in-flight drain tasks finish before
  // the shards they reference go away.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace ruleplace::serve
