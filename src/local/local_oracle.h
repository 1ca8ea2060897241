#ifndef CLUSTAGG_LOCAL_LOCAL_ORACLE_H_
#define CLUSTAGG_LOCAL_LOCAL_ORACLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/clustering.h"
#include "core/clustering_set.h"
#include "core/distance_source.h"
#include "core/signature_index.h"

namespace clustagg {

/// Knobs for the local cluster-membership oracle.
struct LocalOracleOptions {
  /// Seed of the simulated global CC-PIVOT run. Two oracles (or an
  /// oracle and a PivotClusterer with repetitions = 1) sharing a seed
  /// simulate the *same* permutation, so their answers coincide
  /// bit-identically.
  std::uint64_t seed = 1;
  /// A vertex joins a pivot's cluster when its distance to the pivot is
  /// below this threshold — same meaning as PivotOptions::join_threshold.
  double join_threshold = 0.5;
};

/// Answer of a single ClusterOf query.
struct MembershipAnswer {
  /// Canonical cluster id: the object id of the pivot owning the queried
  /// object in the simulated global run (== the query itself when the
  /// object is a pivot, or a singleton). Two objects are in the same
  /// cluster iff their pivots are equal. For a folded oracle this is the
  /// object id of the owning *representative*, so answers for duplicate
  /// objects coincide.
  std::size_t pivot = 0;
  /// kConverged, or the interrupt tag when the RunContext budget fired
  /// mid-chain. An interrupted query degrades per the run-control
  /// contract (docs/robustness.md): the answer is the best-so-far
  /// "singleton" placement (pivot == query), exactly what an interrupted
  /// global CC-PIVOT pass assigns to its not-yet-clustered vertices.
  RunOutcome outcome = RunOutcome::kConverged;
  /// Pivot adjudications this query started (memo hits excluded) — the
  /// sublinearity measure mirrored by the local.pivot_inspections
  /// counter.
  std::uint64_t pivot_inspections = 0;
  /// High-water depth of the adjudication chain this query walked.
  std::uint64_t chain_depth = 0;
  /// Point distance queries issued against the DistanceSource.
  std::uint64_t distance_queries = 0;
  /// Memoized adjudications reused instead of recomputed.
  std::uint64_t memo_hits = 0;
};

/// Answer of a SameCluster query: two ClusterOf walks sharing one
/// budget.
struct SameClusterAnswer {
  bool same = false;
  std::size_t pivot_u = 0;
  std::size_t pivot_v = 0;
  /// Merged outcome of the two walks (interrupts degrade both answers to
  /// singleton best-so-far, so `same` then holds only for u == v).
  RunOutcome outcome = RunOutcome::kConverged;
};

/// Local cluster-membership oracle: answers "which cluster is object u
/// in?" by *lazily simulating one fixed global CC-PIVOT run* instead of
/// materializing it (the Bonchi–García-Soriano–Kutzkov local
/// correlation-clustering primitive; see docs/local_queries.md).
///
/// The simulated run is pinned by (seed, join_threshold): a deterministic
/// random permutation pi over the objects — the same stream
/// PivotClusterer draws for its first repetition — defines pivot
/// priority, and the classic recursion adjudicates ownership:
///
///   owner(v) = the first w in pi order with rank(w) <= rank(v) and
///              (w == v or X_wv < join_threshold) that is itself a
///              pivot;  v is a pivot iff owner(v) == v.
///
/// A query walks only the candidates ranked before its capture point and
/// recursively adjudicates just the ones inside the join threshold, so
/// per-query work is governed by cluster structure, not n: on instances
/// with k well-separated clusters the expected chain length is O(k + log
/// n), while a from-scratch global run is Theta(n^2 / k) (measured in
/// BENCH_local.json). Distance rows are never materialized — each probe
/// is one DistanceSource point query (3.5 ns on the packed lazy fast
/// path).
///
/// Consistency guarantee: because every query extends the *same*
/// simulated execution, answers are mutually consistent (SameCluster is
/// an equivalence relation) and bit-identical to the labels a global
/// PivotClusterer run with repetitions = 1 and the same seed assigns —
/// across dense/lazy backends, every packed-kernel tier, folded and
/// unfolded instances, and weighted/missing inputs (pinned by
/// tests/local_differential_test.cc).
///
/// Thread safety: queries are deep-const and may run concurrently from
/// many threads against one shared oracle; completed adjudications land
/// in a write-once owner table of relaxed atomics (racing writers store
/// the same value). Deterministic: concurrent and serial use return
/// identical answers.
class LocalMembershipOracle {
 public:
  /// Wraps an already-built source (n = source->size() objects).
  static Result<LocalMembershipOracle> Create(
      std::shared_ptr<const DistanceSource> source,
      const LocalOracleOptions& options = {});

  /// Builds a lazy O(n m) source over the inputs — the natural serving
  /// substrate: no quadratic build, every probe recomputed on demand.
  static Result<LocalMembershipOracle> FromClusterings(
      const ClusteringSet& input, const MissingValueOptions& missing = {},
      const LocalOracleOptions& options = {});

  /// Fold-space oracle: groups duplicate label tuples (SignatureIndex),
  /// simulates the global run over the s signature representatives, and
  /// answers object-space queries through the grouping — exactly the
  /// run `Aggregate` with fold + CC-PIVOT performs. Queries accept all n
  /// object ids; duplicates share their representative's answer.
  static Result<LocalMembershipOracle> FromClusteringsFolded(
      const ClusteringSet& input, const MissingValueOptions& missing = {},
      const LocalOracleOptions& options = {});

  /// Objects addressable by queries (n, even when folded).
  std::size_t size() const {
    return folded() ? fold_->num_objects() : sim_size();
  }

  /// True when this oracle simulates in signature space.
  bool folded() const { return fold_.has_value(); }

  /// Objects of the simulated run (s signatures when folded, else n).
  std::size_t sim_size() const { return perm_.size(); }

  const LocalOracleOptions& options() const { return options_; }

  /// The cluster object u belongs to in the simulated global run.
  /// InvalidArgument when u is out of [0, size()). Polls `run` at
  /// bounded intervals and charges one iteration per candidate step; on
  /// interrupt the answer degrades to a tagged best-so-far singleton
  /// (see MembershipAnswer::outcome).
  Result<MembershipAnswer> ClusterOf(std::size_t u,
                                     const RunContext& run = {}) const;

  /// Whether u and v share a cluster — two ClusterOf walks under one
  /// budget. Symmetric, consistent with ClusterOf, and transitive.
  Result<SameClusterAnswer> SameCluster(std::size_t u, std::size_t v,
                                        const RunContext& run = {}) const;

  /// Queries every object and returns the full labeling, normalized by
  /// first appearance in object order — byte-identical to
  /// PivotClusterer{repetitions = 1, same seed}'s normalized result
  /// (expanded through the fold when folded). O(n) queries; the memo
  /// makes the sweep O(n^2 m) worst case but near-linear on clustered
  /// instances. Interrupted objects become fresh singletons, mirroring
  /// an interrupted global pass.
  Result<Clustering> MaterializeLabels(const RunContext& run = {}) const;

  /// Drops every memoized adjudication in O(sim_size()) (cold-cache
  /// testing; answers are identical either way, and queries running
  /// concurrently stay correct).
  void ClearMemo() const;

 private:
  LocalMembershipOracle(std::shared_ptr<const DistanceSource> source,
                        const LocalOracleOptions& options);

  /// Running totals one ResolveOwner walk accumulates.
  struct QueryStats {
    std::uint64_t inspections = 0;
    std::uint64_t chain_depth = 0;
    std::uint64_t distance_queries = 0;
    std::uint64_t memo_hits = 0;
  };

  /// Adjudicates owner(v) in simulation space with an explicit stack
  /// (ranks strictly decrease downward, so depth <= rank(v) and there
  /// are no cycles). kConverged => *owner is valid and recorded in
  /// owner_.
  RunOutcome ResolveOwner(std::size_t v, const RunContext& run,
                          QueryStats* stats, std::size_t* owner) const;

  /// One query in simulation space + telemetry recording.
  MembershipAnswer QuerySim(std::size_t sim_v, std::size_t query_object,
                            const RunContext& run) const;

  std::shared_ptr<const DistanceSource> source_;
  LocalOracleOptions options_;
  /// The pinned permutation of the simulated run and its inverse.
  std::vector<std::size_t> perm_;
  std::vector<std::size_t> rank_;
  /// The object grouping when folded: object -> signature, and
  /// signature -> its representative's object id.
  std::optional<SignatureIndex> fold_;

  /// Completed adjudications: owner_[v] holds owner(v) + 1, and 0 means
  /// unknown (value-initialized atomics start at 0). owner(v) is a pure
  /// function of (seed, v), so the table never goes stale; every access
  /// is relaxed because the stored value is the whole payload.
  mutable std::vector<std::atomic<std::size_t>> owner_;
};

}  // namespace clustagg

#endif  // CLUSTAGG_LOCAL_LOCAL_ORACLE_H_
