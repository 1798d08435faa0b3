#pragma once
// Content-addressed dependency-graph cache.
//
// Identical policies recur constantly in this pipeline: the same ingress
// ACL is analyzed by the encoder, the greedy baselines, the verifier and
// every incremental re-solve; merged/path-sliced instances repeat whole
// policies across ingresses.  The graph is a pure function of the policy,
// so one build can serve them all.
//
// Keying is by *exact content*, not by a hash of it: the key is the full
// canonical encoding of the policy (width plus per-rule id, priority,
// action/dummy bits and raw match words).  Equal keys therefore mean
// equal policies — a hash collision can never smuggle in a wrong graph,
// which keeps the bit-identical guarantee unconditional.  (The map still
// *buckets* by a hash of the key, but equality is always verified on the
// full encoding.)
//
// Invalidation is automatic: mutating a rule changes the policy's
// encoding, so the next acquire misses and rebuilds only that policy's
// graph — untouched policies keep hitting (observable through the
// depgraph.cache_hit / depgraph.cache_miss obs counters, which
// tests/test_depgraph_index.cpp pins).  Entries are bounded by an LRU of
// kDefaultCapacity graphs.
//
// BuildOptions are deliberately *not* part of the key: every builder,
// thread count and pool yields the same graph (see depgraph.h), so a
// cached graph is valid for any requested options.  acquire() honors
// opts.cache == false by building a private graph and leaving the cache
// untouched.  All methods are thread-safe; graphs are built outside the
// lock so concurrent misses on different policies do not serialize.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "depgraph/depgraph.h"

namespace ruleplace::depgraph {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// Canonical content encoding of a policy — the exact cache key.
std::vector<std::uint64_t> policyContentKey(const acl::Policy& policy);

class DepGraphCache {
 public:
  /// The largest shipped working set (the k=64 full-scale point's 1,024
  /// policies), so a sequential pass over any shipped instance never
  /// evicts its own graphs; docs/depgraph.md gives the footprint.
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit DepGraphCache(std::size_t capacity = kDefaultCapacity);

  /// The process-wide cache used by acquireGraph().
  static DepGraphCache& global();

  /// A dependency graph for `policy` — shared from the cache on a hit,
  /// built (and retained) on a miss, or built privately when
  /// opts.cache is false.
  std::shared_ptr<const DependencyGraph> acquire(const acl::Policy& policy,
                                                 const BuildOptions& opts = {});

  /// Drop every entry and reset the statistics (tests isolate runs with
  /// this).
  void clear();

  CacheStats stats() const;

 private:
  using Key = std::vector<std::uint64_t>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const DependencyGraph> graph;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  CacheStats stats_;
};

/// Convenience front door used by the core pipeline: cache-aware graph
/// acquisition through the global cache.
std::shared_ptr<const DependencyGraph> acquireGraph(
    const acl::Policy& policy, const BuildOptions& opts = {});

}  // namespace ruleplace::depgraph
