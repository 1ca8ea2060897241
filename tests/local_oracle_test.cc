// Unit, edge-case, memoization, and concurrency coverage for the local
// cluster-membership oracle (src/local/). The bit-identity differential
// against the global CC-PIVOT run lives in local_differential_test.cc;
// here the oracle's own contract is pinned: degenerate instances,
// invalid arguments, the run-control degradation path, memo semantics
// (answers identical hot and cold), and thread safety of concurrent
// queries and clears against one shared oracle (the ci/sanitize.sh
// `local` TSan gate).

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/clustering_set.h"
#include "core/distance_source.h"
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

/// m copies of the same labeling: distances are exactly 0 within a
/// cluster and 1 across, the cleanest planted structure.
ClusteringSet UnanimousSet(const std::vector<Clustering::Label>& labels,
                           std::size_t m = 3) {
  std::vector<Clustering> inputs(m, Clustering(labels));
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  EXPECT_TRUE(set.ok()) << set.status().message();
  return *std::move(set);
}

LocalMembershipOracle MakeOracle(const ClusteringSet& input,
                                 const LocalOracleOptions& options = {}) {
  Result<LocalMembershipOracle> oracle =
      LocalMembershipOracle::FromClusterings(input, {}, options);
  EXPECT_TRUE(oracle.ok()) << oracle.status().message();
  return std::move(oracle).value();
}

// ------------------------------------------------- degenerate instances

TEST(LocalOracleTest, EmptyInstance) {
  const LocalMembershipOracle oracle = MakeOracle(UnanimousSet({}));
  EXPECT_EQ(oracle.size(), 0u);
  Result<Clustering> labels = oracle.MaterializeLabels();
  ASSERT_TRUE(labels.ok()) << labels.status().message();
  EXPECT_EQ(labels->size(), 0u);
  EXPECT_EQ(oracle.ClusterOf(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LocalOracleTest, SingleObject) {
  const LocalMembershipOracle oracle = MakeOracle(UnanimousSet({0}));
  Result<MembershipAnswer> answer = oracle.ClusterOf(0);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_EQ(answer->pivot, 0u);
  EXPECT_EQ(answer->outcome, RunOutcome::kConverged);
  Result<SameClusterAnswer> same = oracle.SameCluster(0, 0);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->same);
}

TEST(LocalOracleTest, SingleClusterInstance) {
  const std::size_t n = 12;
  const LocalMembershipOracle oracle =
      MakeOracle(UnanimousSet(std::vector<Clustering::Label>(n, 0)));
  Result<MembershipAnswer> first = oracle.ClusterOf(0);
  ASSERT_TRUE(first.ok());
  for (std::size_t u = 1; u < n; ++u) {
    Result<MembershipAnswer> answer = oracle.ClusterOf(u);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->pivot, first->pivot) << "u = " << u;
    Result<SameClusterAnswer> same = oracle.SameCluster(0, u);
    ASSERT_TRUE(same.ok());
    EXPECT_TRUE(same->same) << "u = " << u;
  }
}

TEST(LocalOracleTest, AllSingletonsInstance) {
  const std::size_t n = 10;
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = static_cast<Clustering::Label>(v);
  }
  const LocalMembershipOracle oracle = MakeOracle(UnanimousSet(labels));
  for (std::size_t u = 0; u < n; ++u) {
    Result<MembershipAnswer> answer = oracle.ClusterOf(u);
    ASSERT_TRUE(answer.ok());
    // Every object is its own pivot: nothing is within the threshold.
    EXPECT_EQ(answer->pivot, u);
  }
  Result<SameClusterAnswer> same = oracle.SameCluster(2, 7);
  ASSERT_TRUE(same.ok());
  EXPECT_FALSE(same->same);
}

TEST(LocalOracleTest, MissingLabelsAreServed) {
  // Object 2 has no opinion in the second clustering; both policies must
  // produce a servable oracle with consistent answers.
  std::vector<Clustering> inputs;
  inputs.push_back(Clustering({0, 0, 1, 1}));
  inputs.push_back(Clustering({0, 0, Clustering::kMissing, 1}));
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  ASSERT_TRUE(set.ok());
  for (MissingValuePolicy policy :
       {MissingValuePolicy::kRandomCoin, MissingValuePolicy::kIgnore}) {
    MissingValueOptions missing;
    missing.policy = policy;
    Result<LocalMembershipOracle> oracle =
        LocalMembershipOracle::FromClusterings(*set, missing, {});
    ASSERT_TRUE(oracle.ok()) << oracle.status().message();
    Result<Clustering> labels = oracle->MaterializeLabels();
    ASSERT_TRUE(labels.ok());
    EXPECT_EQ(labels->size(), 4u);
    // 0 and 1 agree everywhere; they must share a cluster.
    Result<SameClusterAnswer> same = oracle->SameCluster(0, 1);
    ASSERT_TRUE(same.ok());
    EXPECT_TRUE(same->same);
  }
}

TEST(LocalOracleTest, FractionalWeightsAreServed) {
  std::vector<Clustering> inputs;
  inputs.push_back(Clustering({0, 0, 1, 1, 2}));
  inputs.push_back(Clustering({0, 1, 1, 1, 2}));
  inputs.push_back(Clustering({0, 0, 1, 2, 2}));
  Result<ClusteringSet> set =
      ClusteringSet::Create(std::move(inputs), {0.25, 1.5, 0.75});
  ASSERT_TRUE(set.ok()) << set.status().message();
  Result<LocalMembershipOracle> oracle =
      LocalMembershipOracle::FromClusterings(*set, {}, {});
  ASSERT_TRUE(oracle.ok()) << oracle.status().message();
  Result<Clustering> labels = oracle->MaterializeLabels();
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(labels->size(), 5u);
}

// ------------------------------------------------------ argument checks

TEST(LocalOracleTest, OutOfRangeIdsAreInvalidArgument) {
  const LocalMembershipOracle oracle =
      MakeOracle(UnanimousSet({0, 0, 1, 1}));
  EXPECT_EQ(oracle.ClusterOf(4).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(oracle.ClusterOf(std::size_t{0} - 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(oracle.SameCluster(0, 4).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(oracle.SameCluster(4, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LocalOracleTest, InvalidOptionsAreRejected) {
  EXPECT_EQ(LocalMembershipOracle::Create(nullptr, {}).status().code(),
            StatusCode::kInvalidArgument);
  LocalOracleOptions bad;
  bad.join_threshold = 1.5;
  EXPECT_EQ(LocalMembershipOracle::FromClusterings(
                UnanimousSet({0, 1}), {}, bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  bad.join_threshold = -0.1;
  EXPECT_EQ(LocalMembershipOracle::FromClusteringsFolded(
                UnanimousSet({0, 1}), {}, bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------- run control

/// Path instance: X_uv = 0 exactly for |u - v| == 1, else 1. Every walk
/// scans a long prefix of the permutation (each step one candidate), so
/// a tight iteration budget reliably fires mid-chain.
class PathDistanceSource final : public DistanceSource {
 public:
  explicit PathDistanceSource(std::size_t n) : n_(n) {}
  std::size_t size() const override { return n_; }
  double distance(std::size_t u, std::size_t v) const override {
    const std::size_t gap = u < v ? v - u : u - v;
    return gap == 1 ? 0.0 : (u == v ? 0.0 : 1.0);
  }
  const char* name() const override { return "path"; }

 private:
  std::size_t n_;
};

LocalMembershipOracle PathOracle(std::size_t n) {
  Result<LocalMembershipOracle> oracle = LocalMembershipOracle::Create(
      std::make_shared<PathDistanceSource>(n), {});
  EXPECT_TRUE(oracle.ok()) << oracle.status().message();
  return std::move(oracle).value();
}

/// An object whose cold walk runs long enough to cross a poll boundary
/// and whose true pivot differs from itself, probed on an independent
/// same-seed oracle so the budgeted run below starts cold.
std::size_t LongChainNonPivot(std::size_t n) {
  const LocalMembershipOracle probe = PathOracle(n);
  for (std::size_t u = 0; u < n; ++u) {
    probe.ClearMemo();  // every probe measures a cold walk
    Result<MembershipAnswer> answer = probe.ClusterOf(u);
    EXPECT_TRUE(answer.ok());
    if (answer->distance_queries > 128 && answer->pivot != u) return u;
  }
  ADD_FAILURE() << "no long-chain non-pivot object in the path instance";
  return 0;
}

TEST(LocalOracleTest, BudgetMidChainDegradesToTaggedSingleton) {
  const std::size_t n = 300;
  const std::size_t u = LongChainNonPivot(n);
  const LocalMembershipOracle oracle = PathOracle(n);
  const RunContext run = RunContext::WithIterationBudget(1);
  Result<MembershipAnswer> answer = oracle.ClusterOf(u, run);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_EQ(answer->outcome, RunOutcome::kDeadlineExceeded);
  // Degradation contract: the tagged best-so-far placement is the
  // singleton an interrupted global pass would leave the object in —
  // *not* the converged pivot (which differs for this object).
  EXPECT_EQ(answer->pivot, u);
}

TEST(LocalOracleTest, CancelledQueryIsTagged) {
  const std::size_t n = 300;
  const std::size_t u = LongChainNonPivot(n);
  const LocalMembershipOracle oracle = PathOracle(n);
  const RunContext run = RunContext::Cancellable();
  run.RequestCancel();
  Result<MembershipAnswer> answer = oracle.ClusterOf(u, run);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_EQ(answer->outcome, RunOutcome::kCancelled);
  EXPECT_EQ(answer->pivot, u);
}

TEST(LocalOracleTest, InterruptedMaterializeStaysAValidPartition) {
  const std::size_t n = 300;
  const LocalMembershipOracle oracle = PathOracle(n);
  // Enough budget for some queries, not the whole sweep: later objects
  // degrade to fresh singletons and the result is still a partition of
  // all n objects.
  const RunContext run = RunContext::WithIterationBudget(64);
  Result<Clustering> labels = oracle.MaterializeLabels(run);
  ASSERT_TRUE(labels.ok()) << labels.status().message();
  EXPECT_EQ(labels->size(), n);
  EXPECT_GE(labels->NumClusters(), 1u);
}

// ------------------------------------------------------------- memoize

TEST(LocalOracleTest, MemoizedColdAndDisabledAnswersAgree) {
  Rng rng(11);
  const ClusteringSet input = RandomClusteringSet(40, 4, 5, &rng);

  const LocalMembershipOracle hot = MakeOracle(input, {});
  const LocalMembershipOracle cold = MakeOracle(input, {});

  for (std::size_t u = 0; u < input.num_objects(); ++u) {
    Result<MembershipAnswer> warm1 = hot.ClusterOf(u);
    ASSERT_TRUE(warm1.ok());
    Result<MembershipAnswer> warm2 = hot.ClusterOf(u);  // memo hit
    ASSERT_TRUE(warm2.ok());
    cold.ClearMemo();  // every cold query walks its whole chain
    Result<MembershipAnswer> fresh = cold.ClusterOf(u);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(warm1->pivot, fresh->pivot) << "u = " << u;
    EXPECT_EQ(warm2->pivot, fresh->pivot) << "u = " << u;
    // The repeat of a memoized query is a straight cache hit.
    EXPECT_GE(warm2->memo_hits, 1u) << "u = " << u;
  }

  // Clearing the memo only costs recomputation, never the answer.
  Result<MembershipAnswer> before = hot.ClusterOf(0);
  hot.ClearMemo();
  Result<MembershipAnswer> after = hot.ClusterOf(0);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->pivot, after->pivot);
}

// ---------------------------------------------------------------- fold

TEST(LocalOracleTest, FoldedOracleSharesAnswersAcrossDuplicates) {
  // Objects 0/1 and 2/3 carry identical label tuples: two signatures.
  std::vector<Clustering> inputs;
  inputs.push_back(Clustering({0, 0, 1, 1, 2}));
  inputs.push_back(Clustering({4, 4, 5, 5, 6}));
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  ASSERT_TRUE(set.ok());
  Result<LocalMembershipOracle> oracle =
      LocalMembershipOracle::FromClusteringsFolded(*set, {}, {});
  ASSERT_TRUE(oracle.ok()) << oracle.status().message();
  EXPECT_TRUE(oracle->folded());
  EXPECT_EQ(oracle->size(), 5u);
  EXPECT_EQ(oracle->sim_size(), 3u);
  Result<MembershipAnswer> a0 = oracle->ClusterOf(0);
  Result<MembershipAnswer> a1 = oracle->ClusterOf(1);
  Result<MembershipAnswer> a2 = oracle->ClusterOf(2);
  Result<MembershipAnswer> a3 = oracle->ClusterOf(3);
  ASSERT_TRUE(a0.ok() && a1.ok() && a2.ok() && a3.ok());
  EXPECT_EQ(a0->pivot, a1->pivot);
  EXPECT_EQ(a2->pivot, a3->pivot);
  Result<SameClusterAnswer> same = oracle->SameCluster(0, 1);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->same);
}

// --------------------------------------------------------- concurrency

TEST(LocalOracleTest, ConcurrentQueriesMatchSerialAnswers) {
  Rng rng(23);
  const ClusteringSet input = RandomClusteringSet(60, 4, 4, &rng);
  const std::size_t n = input.num_objects();
  const LocalMembershipOracle oracle = MakeOracle(input, {});

  // Serial ground truth from an independent oracle (fresh memo).
  const LocalMembershipOracle reference = MakeOracle(input, {});
  std::vector<std::size_t> expected(n);
  for (std::size_t u = 0; u < n; ++u) {
    Result<MembershipAnswer> answer = reference.ClusterOf(u);
    ASSERT_TRUE(answer.ok());
    expected[u] = answer->pivot;
  }

  // Many threads hammer one shared oracle, each in a different order,
  // while one more thread keeps clearing the owner table under them;
  // this is the TSan target of `ci/sanitize.sh local`.
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::size_t>> got(
      kThreads, std::vector<std::size_t>(n, 0));
  std::atomic<bool> querying{true};
  std::thread clearer([&] {
    while (querying.load()) oracle.ClearMemo();
  });
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < n; ++i) {
        // Each thread sweeps every object, rotated so the threads hit
        // the memo in different orders.
        const std::size_t u = (i + t * 7) % n;
        Result<MembershipAnswer> answer = oracle.ClusterOf(u);
        ASSERT_TRUE(answer.ok());
        got[t][u] = answer->pivot;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  querying.store(false);
  clearer.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace clustagg
