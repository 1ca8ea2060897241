// Differential harness pinning the local membership oracle bit-identical
// to the global CC-PIVOT run it simulates: for every seeded random
// instance, every query order, both distance backends, every packed
// kernel tier, folded and unfolded, weighted and missing-label inputs,
// the oracle's answers reproduce exactly the labels PivotClusterer with
// repetitions = 1 and the same seed assigns — and SameCluster is an
// equivalence relation consistent with ClusterOf. `ctest -L
// differential` runs this suite (alongside the stream oracle harness).

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/distance_source.h"
#include "core/internal/packed_labels.h"
#include "core/pivot.h"
#include "core/signature_index.h"
#include "local/local_oracle.h"

namespace clustagg {
namespace {

Clustering RandomClustering(std::size_t n, std::size_t max_clusters,
                            Rng* rng) {
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = static_cast<Clustering::Label>(
        rng->NextBounded(max_clusters));
  }
  return Clustering(std::move(labels));
}

ClusteringSet RandomClusteringSet(std::size_t n, std::size_t m,
                                  std::size_t max_clusters, Rng* rng) {
  std::vector<Clustering> inputs;
  inputs.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    inputs.push_back(RandomClustering(n, max_clusters, rng));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  EXPECT_TRUE(set.ok()) << set.status().message();
  return *std::move(set);
}

/// A uniformly random permutation of 0..n-1.
std::vector<std::size_t> RandomPermutation(std::size_t n, Rng* rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->NextBounded(i)]);
  }
  return perm;
}

/// The reference answer: the single global CC-PIVOT pass the oracle
/// simulates, normalized by first appearance (what RunControlled with
/// repetitions = 1 returns).
Clustering GlobalPivotRun(const ClusteringSet& input, std::uint64_t seed,
                          const MissingValueOptions& missing = {},
                          DistanceBackend backend = DistanceBackend::kLazy) {
  DistanceSourceOptions source_options;
  source_options.backend = backend;
  Result<CorrelationInstance> instance =
      CorrelationInstance::Build(input, missing, source_options);
  EXPECT_TRUE(instance.ok()) << instance.status().message();
  PivotOptions options;
  options.repetitions = 1;
  options.seed = seed;
  Result<ClustererRun> run =
      PivotClusterer(options).RunControlled(*instance, RunContext());
  EXPECT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->outcome, RunOutcome::kConverged);
  return run->clustering.Normalized();
}

/// Queries every object in the given order and rebuilds the labeling the
/// answers describe, normalized by first appearance in *object* order —
/// the order-independent canonical form.
Clustering LabelsFromQueries(const LocalMembershipOracle& oracle,
                             const std::vector<std::size_t>& order,
                             bool cold = false) {
  const std::size_t n = oracle.size();
  std::vector<std::size_t> pivot_of(n, 0);
  for (std::size_t u : order) {
    if (cold) oracle.ClearMemo();
    Result<MembershipAnswer> answer = oracle.ClusterOf(u);
    EXPECT_TRUE(answer.ok()) << answer.status().message();
    EXPECT_EQ(answer->outcome, RunOutcome::kConverged);
    pivot_of[u] = answer->pivot;
  }
  std::vector<Clustering::Label> labels(n);
  std::unordered_map<std::size_t, Clustering::Label> label_of_pivot;
  Clustering::Label next = 0;
  for (std::size_t u = 0; u < n; ++u) {
    auto [it, inserted] = label_of_pivot.try_emplace(pivot_of[u], next);
    if (inserted) ++next;
    labels[u] = it->second;
  }
  return Clustering(std::move(labels));
}

/// Forces a packed-kernel tier for the enclosing scope, restoring the
/// default on destruction.
class TierOverride {
 public:
  explicit TierOverride(internal::PackedKernelTier tier) {
    internal::SetPackedKernelTierForTest(&tier);
  }
  ~TierOverride() { internal::SetPackedKernelTierForTest(nullptr); }
};

// The headline pin: MaterializeLabels is byte-identical to the global
// run across random instances, several oracle seeds per instance.
TEST(LocalDifferentialTest, MaterializeMatchesGlobalPivotRun) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 1 + rng.NextBounded(60);
    const ClusteringSet input =
        RandomClusteringSet(n, 2 + rng.NextBounded(4),
                            1 + rng.NextBounded(6), &rng);
    for (std::uint64_t oracle_seed :
         {std::uint64_t{1}, std::uint64_t{7}, seed * 1009}) {
      SCOPED_TRACE("oracle_seed = " + std::to_string(oracle_seed));
      const Clustering global = GlobalPivotRun(input, oracle_seed);
      LocalOracleOptions options;
      options.seed = oracle_seed;
      Result<LocalMembershipOracle> oracle =
          LocalMembershipOracle::FromClusterings(input, {}, options);
      ASSERT_TRUE(oracle.ok()) << oracle.status().message();
      Result<Clustering> local = oracle->MaterializeLabels();
      ASSERT_TRUE(local.ok()) << local.status().message();
      EXPECT_EQ(*local, global);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Per-query pins: in every query order (forward, backward, random,
// random subsets) each answer matches the global label structure — u and
// v share a global label iff their pivots agree, and each pivot lies in
// its object's own global cluster.
TEST(LocalDifferentialTest, ClusterOfMatchesGlobalInEveryQueryOrder) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed * 31);
    const std::size_t n = 2 + rng.NextBounded(50);
    const ClusteringSet input =
        RandomClusteringSet(n, 3, 1 + rng.NextBounded(5), &rng);
    const Clustering global = GlobalPivotRun(input, seed);
    LocalOracleOptions options;
    options.seed = seed;

    std::vector<std::vector<std::size_t>> orders;
    orders.emplace_back(n);
    std::iota(orders.back().begin(), orders.back().end(), std::size_t{0});
    orders.push_back(orders.back());
    std::reverse(orders[1].begin(), orders[1].end());
    orders.push_back(RandomPermutation(n, &rng));
    // A random strict subset: partial query loads must already be
    // globally consistent.
    std::vector<std::size_t> subset = RandomPermutation(n, &rng);
    subset.resize(1 + rng.NextBounded(n));
    orders.push_back(std::move(subset));

    for (std::size_t o = 0; o < orders.size(); ++o) {
      SCOPED_TRACE("order = " + std::to_string(o));
      // A fresh oracle per order: answers must not depend on what was
      // asked before.
      Result<LocalMembershipOracle> oracle =
          LocalMembershipOracle::FromClusterings(input, {}, options);
      ASSERT_TRUE(oracle.ok()) << oracle.status().message();
      std::vector<std::size_t> pivot_of(n, n);
      for (std::size_t u : orders[o]) {
        Result<MembershipAnswer> answer = oracle->ClusterOf(u);
        ASSERT_TRUE(answer.ok()) << answer.status().message();
        pivot_of[u] = answer->pivot;
        // The pivot is a member of u's global cluster (the pivot *is*
        // an object id, so this is well-defined).
        ASSERT_LT(answer->pivot, n);
        EXPECT_EQ(global.labels()[answer->pivot], global.labels()[u])
            << "u = " << u;
      }
      for (std::size_t u : orders[o]) {
        for (std::size_t v : orders[o]) {
          EXPECT_EQ(pivot_of[u] == pivot_of[v],
                    global.labels()[u] == global.labels()[v])
              << "u = " << u << " v = " << v;
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Backend and kernel-tier sweep: the same oracle seed over dense/lazy
// sources and every packed tier answers identically (distances are
// bit-identical across all of them, so the simulated run is too).
TEST(LocalDifferentialTest, BackendsAndKernelTiersAgree) {
  using internal::PackedKernelTier;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed * 101);
    const std::size_t n = 2 + rng.NextBounded(48);
    const ClusteringSet input =
        RandomClusteringSet(n, 2 + rng.NextBounded(3),
                            1 + rng.NextBounded(5), &rng);
    LocalOracleOptions options;
    options.seed = seed;

    const Clustering global = GlobalPivotRun(input, seed);
    std::vector<Clustering> materialized;

    {
      Result<std::shared_ptr<const DenseDistanceSource>> dense =
          DenseDistanceSource::Build(input, {});
      ASSERT_TRUE(dense.ok()) << dense.status().message();
      Result<LocalMembershipOracle> oracle =
          LocalMembershipOracle::Create(*dense, options);
      ASSERT_TRUE(oracle.ok());
      Result<Clustering> labels = oracle->MaterializeLabels();
      ASSERT_TRUE(labels.ok());
      materialized.push_back(*std::move(labels));
    }
    for (PackedKernelTier tier :
         {PackedKernelTier::kSwar, PackedKernelTier::kAvx2}) {
      SCOPED_TRACE(internal::PackedKernelTierName(tier));
      TierOverride guard(tier);
      Result<LocalMembershipOracle> oracle =
          LocalMembershipOracle::FromClusterings(input, {}, options);
      ASSERT_TRUE(oracle.ok());
      Result<Clustering> labels = oracle->MaterializeLabels();
      ASSERT_TRUE(labels.ok());
      materialized.push_back(*std::move(labels));
    }
    for (const Clustering& labels : materialized) {
      EXPECT_EQ(labels, global);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// Fold differential: the folded oracle reproduces exactly the global
// CC-PIVOT run over the signature representatives expanded back through
// the fold — the run `Aggregate` with fold + pivot performs — and
// duplicate objects always share their representative's answer.
TEST(LocalDifferentialTest, FoldedMatchesGlobalFoldedRun) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed * 53);
    // Few clusters over many objects: signatures collapse heavily.
    const std::size_t n = 4 + rng.NextBounded(60);
    const ClusteringSet input =
        RandomClusteringSet(n, 2 + rng.NextBounded(3),
                            1 + rng.NextBounded(3), &rng);
    const SignatureIndex signatures = SignatureIndex::Build(input);

    // Reference: global run over the representative subset, expanded.
    Result<CorrelationInstance> folded_instance =
        CorrelationInstance::BuildSubset(input,
                                         signatures.representatives());
    ASSERT_TRUE(folded_instance.ok());
    PivotOptions pivot_options;
    pivot_options.repetitions = 1;
    pivot_options.seed = seed;
    Result<ClustererRun> global = PivotClusterer(pivot_options)
                                      .RunControlled(*folded_instance,
                                                     RunContext());
    ASSERT_TRUE(global.ok());
    const Clustering expanded =
        signatures.Expand(global->clustering).Normalized();

    LocalOracleOptions options;
    options.seed = seed;
    Result<LocalMembershipOracle> oracle =
        LocalMembershipOracle::FromClusteringsFolded(input, {}, options);
    ASSERT_TRUE(oracle.ok()) << oracle.status().message();
    ASSERT_EQ(oracle->sim_size(), signatures.num_signatures());
    Result<Clustering> local = oracle->MaterializeLabels();
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(*local, expanded);

    // Duplicates share their representative's pivot.
    for (std::size_t u = 0; u < n; ++u) {
      const std::size_t rep =
          signatures.representatives()[signatures.signature_of(u)];
      Result<MembershipAnswer> mine = oracle->ClusterOf(u);
      Result<MembershipAnswer> reps = oracle->ClusterOf(rep);
      ASSERT_TRUE(mine.ok() && reps.ok());
      EXPECT_EQ(mine->pivot, reps->pivot) << "u = " << u;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// Weighted and missing-label inputs: the oracle serves the exact
// distances the global run sees, under both missing-value policies and
// fractional weights.
TEST(LocalDifferentialTest, WeightedAndMissingInputsMatchGlobal) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed * 17);
    const std::size_t n = 2 + rng.NextBounded(40);
    const std::size_t m = 2 + rng.NextBounded(4);
    std::vector<Clustering> inputs;
    std::vector<double> weights;
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<Clustering::Label> labels(n);
      for (std::size_t v = 0; v < n; ++v) {
        // ~12% missing labels.
        labels[v] = rng.NextBounded(8) == 0
                        ? Clustering::kMissing
                        : static_cast<Clustering::Label>(
                              rng.NextBounded(4));
      }
      inputs.emplace_back(std::move(labels));
      weights.push_back(0.25 + 0.25 * static_cast<double>(
                                          rng.NextBounded(8)));
    }
    Result<ClusteringSet> set =
        ClusteringSet::Create(std::move(inputs), std::move(weights));
    ASSERT_TRUE(set.ok()) << set.status().message();

    for (MissingValuePolicy policy :
         {MissingValuePolicy::kRandomCoin, MissingValuePolicy::kIgnore}) {
      SCOPED_TRACE(policy == MissingValuePolicy::kRandomCoin ? "coin"
                                                       : "ignore");
      MissingValueOptions missing;
      missing.policy = policy;
      const Clustering global = GlobalPivotRun(*set, seed, missing);
      LocalOracleOptions options;
      options.seed = seed;
      Result<LocalMembershipOracle> oracle =
          LocalMembershipOracle::FromClusterings(*set, missing, options);
      ASSERT_TRUE(oracle.ok()) << oracle.status().message();
      Result<Clustering> local = oracle->MaterializeLabels();
      ASSERT_TRUE(local.ok());
      EXPECT_EQ(*local, global);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// SameCluster is an equivalence relation consistent with ClusterOf:
// reflexive, symmetric, and transitive on sampled triples — every
// answer derived from the one shared simulated run.
TEST(LocalDifferentialTest, SameClusterIsAnEquivalenceRelation) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed * 71);
    const std::size_t n = 3 + rng.NextBounded(40);
    const ClusteringSet input =
        RandomClusteringSet(n, 3, 1 + rng.NextBounded(4), &rng);
    LocalOracleOptions options;
    options.seed = seed;
    Result<LocalMembershipOracle> oracle =
        LocalMembershipOracle::FromClusterings(input, {}, options);
    ASSERT_TRUE(oracle.ok());

    for (std::size_t trial = 0; trial < 40; ++trial) {
      const std::size_t u = rng.NextBounded(n);
      const std::size_t v = rng.NextBounded(n);
      const std::size_t w = rng.NextBounded(n);
      Result<SameClusterAnswer> uu = oracle->SameCluster(u, u);
      Result<SameClusterAnswer> uv = oracle->SameCluster(u, v);
      Result<SameClusterAnswer> vu = oracle->SameCluster(v, u);
      Result<SameClusterAnswer> vw = oracle->SameCluster(v, w);
      Result<SameClusterAnswer> uw = oracle->SameCluster(u, w);
      ASSERT_TRUE(uu.ok() && uv.ok() && vu.ok() && vw.ok() && uw.ok());
      EXPECT_TRUE(uu->same);                 // reflexive
      EXPECT_EQ(uv->same, vu->same);         // symmetric
      if (uv->same && vw->same) {            // transitive
        EXPECT_TRUE(uw->same)
            << "u = " << u << " v = " << v << " w = " << w;
      }
      // Consistent with ClusterOf.
      Result<MembershipAnswer> cu = oracle->ClusterOf(u);
      Result<MembershipAnswer> cv = oracle->ClusterOf(v);
      ASSERT_TRUE(cu.ok() && cv.ok());
      EXPECT_EQ(uv->same, cu->pivot == cv->pivot);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// Memoized and cold-cache loads are bit-identical — per query order,
// against the global reference.
TEST(LocalDifferentialTest, MemoizedAndColdCacheAnswersAreIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed * 131);
    const std::size_t n = 2 + rng.NextBounded(40);
    const ClusteringSet input =
        RandomClusteringSet(n, 3, 1 + rng.NextBounded(4), &rng);
    const Clustering global = GlobalPivotRun(input, seed);
    LocalOracleOptions options;
    options.seed = seed;
    Result<LocalMembershipOracle> hot =
        LocalMembershipOracle::FromClusterings(input, {}, options);
    Result<LocalMembershipOracle> off =
        LocalMembershipOracle::FromClusterings(input, {}, options);
    ASSERT_TRUE(hot.ok() && off.ok());
    const std::vector<std::size_t> order = RandomPermutation(n, &rng);
    EXPECT_EQ(LabelsFromQueries(*hot, order),
              LabelsFromQueries(*off, order, /*cold=*/true));
    Result<Clustering> hot_labels = hot->MaterializeLabels();
    Result<Clustering> off_labels = off->MaterializeLabels();
    ASSERT_TRUE(hot_labels.ok() && off_labels.ok());
    EXPECT_EQ(*hot_labels, global);
    EXPECT_EQ(*off_labels, global);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace clustagg
