#pragma once
// ILP / satisfiability encoding of rule placement (paper §IV-A .. §IV-D).
//
// Variables: v_{i,j,k} — binary, 1 iff rule j of policy i is installed on
// switch k (k ∈ S_i).  With merging, additional v^m_{g,k} variables mark a
// merge group g installed as one shared entry on switch k.
//
// Constraints:
//   * Rule dependency (Eq. 1):   v_{i,u,k} >= v_{i,w,k} for every PERMIT u
//     shielding DROP w (higher priority + overlapping field).
//   * Path dependency (Eq. 2):   every (non-redundant) DROP rule is placed
//     on every path of its ingress: Σ_{k∈p_{i,j}} v_{i,w,k} >= 1.  We use
//     the per-path form the prose and Fig. 3 require (the paper's printed
//     formula aggregates over S_i, which would under-constrain).
//   * Switch capacity (Eq. 3):   Σ v at switch k (merged groups counted
//     once) <= C_k.
//   * Merging link (Eq. 4/5):    v^m_{g,k} = AND of member variables.
// Path slicing (§IV-C) restricts the drop rules each path must carry to
// those overlapping the path's traffic descriptor.
//
// The encode stage is streaming and parallel (docs/performance.md, "Encode
// stage"): each policy is encoded into a private buffer with *local*
// variable numbering (two-pass scheme), global offsets are assigned by
// prefix sum over the per-policy counts, and the buffers are spliced into
// the Model's bulk-append storage.  Variable numbering and the emitted
// model are bit-identical to the sequential encoder and across any thread
// count, because the per-policy pass is deterministic and the splice order
// is the policy order.

#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.h"
#include "depgraph/depgraph.h"
#include "depgraph/merging.h"
#include "solver/model.h"
#include "util/flat_map.h"

namespace ruleplace::core {

/// Statistics about the encoded model (reported in §V: ~290K variables /
/// ~520K constraints at k=8, r=100, p=1024).
struct EncodingStats {
  std::int64_t placementVars = 0;
  std::int64_t mergeVars = 0;
  std::int64_t ruleDependencyConstraints = 0;
  std::int64_t pathDependencyConstraints = 0;
  std::int64_t capacityConstraints = 0;
  std::int64_t mergeConstraints = 0;
  std::int64_t slicedAwayRules = 0;  ///< (path, drop-rule) pairs skipped
  /// Combinatorial objective lower bound handed to the optimizer (replaces
  /// the LP bound a commercial ILP solver would compute).
  std::int64_t objectiveLowerBound = 0;
  /// Rules that must be installed at least once (required DROPs plus their
  /// shields) — the duplication-free baseline `A` of Table II.
  std::int64_t requiredRules = 0;
  /// Paths whose required rules provably exceed the path's total capacity
  /// (presolve cut: instance infeasible without any search).
  std::int64_t presolveInfeasiblePaths = 0;
  /// Placement variables pinned to 0 by monitoring points (§VII).
  std::int64_t monitorForbiddenVars = 0;
};

/// The rules a policy must install at least once: every non-dummy DROP
/// with a duty on some path (with `usePathSlicing`, a path carrying a
/// traffic descriptor owes only the drops overlapping it), then the
/// PERMITs shielding them — drops ascending by id, then shields ascending.
/// The one definition behind EncodingStats::requiredRules and the
/// objective lower bound; core::place's certified fast path sums it
/// without building a model (docs/solver.md, "Certified fast path").
std::vector<int> requiredRuleIds(const acl::Policy& policy,
                                 const topo::IngressPaths& routing,
                                 const depgraph::DependencyGraph& dg,
                                 bool usePathSlicing);

class Encoder {
 public:
  /// `mergeInfo` must outlive the encoder and correspond to `problem`'s
  /// policies (run depgraph::analyzeMergeable first); pass nullptr when
  /// options.enableMerging is false.
  Encoder(const PlacementProblem& problem, const EncoderOptions& options,
          const depgraph::MergeAnalysis* mergeInfo = nullptr);

  const solver::Model& model() const noexcept { return model_; }
  const EncodingStats& stats() const noexcept { return stats_; }

  /// The placement variable for (policy, rule, switch), or -1 if the
  /// encoding proved it unnecessary (sliced away / never required).
  solver::ModelVar placementVar(int policyId, int ruleId,
                                topo::SwitchId sw) const noexcept;

  /// The merge variable for (group, switch), or -1.
  solver::ModelVar mergeVar(int groupId, topo::SwitchId sw) const noexcept;

  /// All placement variables with their keys (for extraction).  Placement
  /// variable v is keys()[v] — placement vars are created first, so the
  /// vector is indexed by variable id.
  struct VarKey {
    int policyId;
    int ruleId;
    topo::SwitchId switchId;
  };
  const std::vector<VarKey>& placementKeys() const noexcept { return keys_; }
  const std::vector<std::pair<int, topo::SwitchId>>& mergeKeys()
      const noexcept {
    return mergeKeyList_;
  }

  /// Warm-start hint: greedily set "place at ingress" phases.
  std::vector<std::pair<solver::ModelVar, bool>> ingressHint() const;

 private:
  /// Layout: policy 16 | rule 32 | switch 16.  Rule ids get a full 32-bit
  /// field because they grow without bound under add/remove churn (the old
  /// 21-bit field silently collided at ids >= 2^21); the 16-bit policy and
  /// switch ranges are validated in the constructor.
  static std::uint64_t packKey(int policyId, int ruleId, topo::SwitchId sw) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(policyId))
            << 48) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ruleId))
            << 16) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(sw));
  }

  struct PolicyBuild;

  void buildPolicy(int policyId, PolicyBuild& out) const;
  void encodePolicies();
  void applyMonitorConstraints();
  void encodeMerging();
  void encodeCapacity();
  void encodeObjective();
  void computeObjectiveBound();
  void markPresolveInfeasible(solver::NameRef why);

  const PlacementProblem* problem_;
  EncoderOptions options_;
  const depgraph::MergeAnalysis* mergeInfo_;

  solver::Model model_;
  util::FlatIndex64 varIndex_;  // packKey -> placement var
  std::vector<VarKey> keys_;
  util::FlatIndex64 mergeIndex_;  // packKey(0, group, sw) -> merge var
  std::vector<std::pair<int, topo::SwitchId>> mergeKeyList_;
  // Per-switch capacity expression pieces: switch -> list of (coeff, var).
  std::vector<std::vector<std::pair<std::int64_t, solver::ModelVar>>>
      switchLoad_;
  // Rules that must be installed at least once: (policy, rule) pairs —
  // every non-redundant DROP with a path duty plus the PERMITs shielding
  // them.  Basis of the objective lower bound.
  std::vector<std::pair<int, int>> requiredRules_;
  EncodingStats stats_;
};

}  // namespace ruleplace::core
