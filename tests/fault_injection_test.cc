// Fault-injection tests: deterministic failure schedules (query-count
// triggers and simulated allocation failures) driving every degradation
// path — dense→lazy, exact→balls+localsearch, cancel-mid-algorithm —
// and proving each one yields a valid clustering and a truthful tag.

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "core/aggregator.h"
#include "core/correlation_instance.h"
#include "core/distance_source.h"
#include "core/fault_injection.h"
#include "core/sampling.h"

namespace clustagg {
namespace {

ClusteringSet RandomInput(std::size_t n, std::size_t m, std::size_t k,
                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

std::shared_ptr<const DistanceSource> LazySource(const ClusteringSet& input) {
  Result<std::shared_ptr<const LazyDistanceSource>> source =
      LazyDistanceSource::Build(input);
  CLUSTAGG_CHECK(source.ok());
  return *source;
}

// ------------------------------------------ counting / trigger wrapper

TEST(FaultInjectingSourceTest, ForwardsQueriesAndCounts) {
  const ClusteringSet input = RandomInput(20, 4, 3, 3);
  std::shared_ptr<const DistanceSource> inner = LazySource(input);
  FaultInjectingDistanceSource wrapper(inner, RunContext());
  EXPECT_EQ(wrapper.size(), 20u);
  EXPECT_STREQ(wrapper.name(), "lazy");
  EXPECT_EQ(wrapper.queries(), 0u);
  EXPECT_DOUBLE_EQ(wrapper.distance(1, 2), inner->distance(1, 2));
  EXPECT_EQ(wrapper.queries(), 1u);
  std::vector<double> row(20);
  wrapper.FillRow(3, row);
  EXPECT_EQ(wrapper.queries(), 2u);  // one bulk query = one unit
  EXPECT_DOUBLE_EQ(row[7], inner->distance(3, 7));
}

TEST(FaultInjectingSourceTest, HidesTheDenseMatrix) {
  // Devirtualized hot paths would bypass the wrapper's counting; the
  // wrapper must therefore never expose the inner dense matrix.
  const ClusteringSet input = RandomInput(16, 3, 3, 5);
  Result<std::shared_ptr<const DenseDistanceSource>> dense =
      DenseDistanceSource::Build(input);
  ASSERT_TRUE(dense.ok());
  ASSERT_NE((*dense)->dense_matrix(), nullptr);
  FaultInjectingDistanceSource wrapper(*dense, RunContext());
  EXPECT_EQ(wrapper.dense_matrix(), nullptr);
  EXPECT_STREQ(wrapper.name(), "dense");
}

TEST(FaultInjectingSourceTest, CancelScheduleIsDeterministic) {
  // Cancelling at the K-th distance query interrupts the algorithm at
  // exactly the same point on every run — same partition, same tag —
  // independent of wall clock. Single-threaded so the query order is a
  // pure function of the algorithm.
  const ClusteringSet input = RandomInput(40, 5, 4, 7);
  auto run_once = [&](std::uint64_t cancel_at) {
    RunContext run = RunContext::Cancellable();
    auto wrapper = std::make_shared<FaultInjectingDistanceSource>(
        LazySource(input), run, cancel_at);
    const CorrelationInstance instance =
        CorrelationInstance::FromSource(wrapper, 1);
    Result<ClustererRun> result =
        BallsClusterer().RunControlled(instance, run);
    CLUSTAGG_CHECK(result.ok());
    return std::pair(std::move(result->clustering), result->outcome);
  };
  const auto [first, first_outcome] = run_once(60);
  const auto [second, second_outcome] = run_once(60);
  EXPECT_EQ(first_outcome, RunOutcome::kCancelled);
  EXPECT_EQ(second_outcome, RunOutcome::kCancelled);
  EXPECT_EQ(first.labels(), second.labels());
  EXPECT_EQ(first.size(), 40u);
  EXPECT_TRUE(first.Validate().ok());
  EXPECT_FALSE(first.HasMissing());
  // An untriggered schedule converges to the unwrapped answer.
  const auto [unlimited, unlimited_outcome] = run_once(0);
  EXPECT_EQ(unlimited_outcome, RunOutcome::kConverged);
  const CorrelationInstance plain =
      CorrelationInstance::FromSource(LazySource(input), 1);
  Result<ClustererRun> reference =
      BallsClusterer().RunControlled(plain, RunContext());
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(unlimited.SamePartition(reference->clustering));
}

TEST(FaultInjectingSourceTest, EarlierTriggerInterruptsEarlier) {
  const ClusteringSet input = RandomInput(40, 5, 4, 7);
  for (std::uint64_t cancel_at : {1u, 10u, 45u}) {
    RunContext run = RunContext::Cancellable();
    auto wrapper = std::make_shared<FaultInjectingDistanceSource>(
        LazySource(input), run, cancel_at);
    const CorrelationInstance instance =
        CorrelationInstance::FromSource(wrapper, 1);
    Result<ClustererRun> result =
        BallsClusterer().RunControlled(instance, run);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->outcome, RunOutcome::kCancelled) << cancel_at;
    EXPECT_GE(wrapper->queries(), cancel_at);
    EXPECT_TRUE(result->clustering.Validate().ok());
    EXPECT_EQ(result->clustering.size(), 40u);
  }
}

// --------------------------------------------- allocation-failure hook

RunContext AlwaysFailAllocations(std::atomic<std::size_t>* last_bytes) {
  RunContext run = RunContext::Cancellable();
  FaultHooks hooks;
  hooks.fail_allocation = [last_bytes](std::size_t bytes) {
    if (last_bytes != nullptr) last_bytes->store(bytes);
    return true;
  };
  run.set_fault_hooks(hooks);
  return run;
}

TEST(AllocationFaultTest, DenseBuildReportsResourceExhausted) {
  const ClusteringSet input = RandomInput(40, 4, 3, 9);
  std::atomic<std::size_t> bytes{0};
  const RunContext run = AlwaysFailAllocations(&bytes);
  Result<std::shared_ptr<const DenseDistanceSource>> dense =
      DenseDistanceSource::Build(input, MissingValueOptions{}, 1, run);
  ASSERT_FALSE(dense.ok());
  EXPECT_EQ(dense.status().code(), StatusCode::kResourceExhausted);
  // The hook saw the true size of the packed float triangle.
  EXPECT_EQ(bytes.load(), 40u * 39u / 2u * sizeof(float));
}

TEST(AllocationFaultTest, AggregateFallsBackDenseToLazy) {
  const ClusteringSet input = RandomInput(50, 5, 4, 11);

  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kBalls;
  options.backend = DistanceBackend::kDense;
  options.num_threads = 1;
  options.run = AlwaysFailAllocations(nullptr);
  Result<AggregationResult> degraded = Aggregate(input, options);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->outcome, RunOutcome::kFellBack);
  ASSERT_EQ(degraded->fallbacks.size(), 1u);
  EXPECT_NE(degraded->fallbacks[0].find("dense backend allocation failed"),
            std::string::npos);

  // The degraded answer is exactly what an explicit lazy run produces.
  AggregatorOptions lazy = options;
  lazy.backend = DistanceBackend::kLazy;
  lazy.run = RunContext();
  Result<AggregationResult> reference = Aggregate(input, lazy);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->outcome, RunOutcome::kConverged);
  EXPECT_TRUE(degraded->clustering.SamePartition(reference->clustering));
  EXPECT_DOUBLE_EQ(degraded->total_disagreements,
                   reference->total_disagreements);
}

TEST(AllocationFaultTest, FallbacksCanBeDisabled) {
  const ClusteringSet input = RandomInput(50, 5, 4, 11);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kBalls;
  options.backend = DistanceBackend::kDense;
  options.num_threads = 1;
  options.run = AlwaysFailAllocations(nullptr);
  options.allow_fallbacks = false;
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(AllocationFaultTest, AgglomerativeWorkingMatrixFailure) {
  // The agglomerative clusterer's own O(n^2/2) working matrix consults
  // the hook too; without a lazy equivalent it is a hard error.
  const ClusteringSet input = RandomInput(30, 4, 3, 13);
  Result<CorrelationInstance> instance = CorrelationInstance::Build(input);
  ASSERT_TRUE(instance.ok());
  const RunContext run = AlwaysFailAllocations(nullptr);
  Result<ClustererRun> result =
      AgglomerativeClusterer().RunControlled(*instance, run);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(AllocationFaultTest, SamplingCostTableReportsResourceExhausted) {
  // Every input gives every object a label of its own, so the sample
  // clusters into s singletons and each input carries s sample labels:
  // the assignment cost table holds s * m * (s + 2) doubles, more than
  // any matrix the sample phase asks for. A hook refusing only that
  // request turns the run into ResourceExhausted, never an abort.
  const std::size_t n = 400;
  const std::size_t m = 3;
  const std::size_t s = 40;
  std::vector<Clustering::Label> unique(n);
  for (std::size_t v = 0; v < n; ++v) {
    unique[v] = static_cast<Clustering::Label>(v);
  }
  const ClusteringSet input =
      *ClusteringSet::Create(std::vector<Clustering>(m, Clustering(unique)));
  SamplingOptions options;
  options.sample_size = s;

  std::atomic<std::size_t> refused{0};
  RunContext run = RunContext::Cancellable();
  FaultHooks hooks;
  hooks.fail_allocation = [&refused, s](std::size_t bytes) {
    if (bytes <= s * (s - 1) / 2 * sizeof(double)) return false;
    refused.store(bytes);
    return true;
  };
  run.set_fault_hooks(hooks);
  Result<ClustererRun> result = SamplingAggregateControlled(
      input, AgglomerativeClusterer(), run, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(refused.load(), s * m * (s + 2) * sizeof(double));

  // Without the fault the same run completes.
  Result<ClustererRun> unfaulted = SamplingAggregateControlled(
      input, AgglomerativeClusterer(), RunContext::Cancellable(), options);
  ASSERT_TRUE(unfaulted.ok());
  EXPECT_EQ(unfaulted->clustering.size(), n);
}

// ------------------------------------------------ exact → balls chain

TEST(ExactFallbackTest, AggregateSwapsInBallsBeyondTractableSize) {
  const ClusteringSet input = RandomInput(40, 4, 3, 17);

  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  options.num_threads = 1;
  Result<AggregationResult> fell_back = Aggregate(input, options);
  ASSERT_TRUE(fell_back.ok());
  EXPECT_EQ(fell_back->outcome, RunOutcome::kFellBack);
  ASSERT_EQ(fell_back->fallbacks.size(), 1u);
  EXPECT_NE(fell_back->fallbacks[0].find("EXACT is intractable"),
            std::string::npos);
  EXPECT_TRUE(fell_back->clustering.Validate().ok());
  EXPECT_EQ(fell_back->clustering.size(), 40u);

  // The substitution is exactly BALLS + LOCALSEARCH refinement.
  AggregatorOptions balls = options;
  balls.algorithm = AggregationAlgorithm::kBalls;
  balls.refine_with_local_search = true;
  Result<AggregationResult> reference = Aggregate(input, balls);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(fell_back->clustering.SamePartition(reference->clustering));
  EXPECT_DOUBLE_EQ(fell_back->total_disagreements,
                   reference->total_disagreements);
}

TEST(ExactFallbackTest, HardErrorWhenFallbacksDisabled) {
  const ClusteringSet input = RandomInput(40, 4, 3, 17);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  options.allow_fallbacks = false;
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExactFallbackTest, TractableSizesStillRunExact) {
  // No fallback below the threshold: EXACT itself runs and converges.
  const ClusteringSet input = RandomInput(8, 4, 3, 19);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RunOutcome::kConverged);
  EXPECT_TRUE(result->fallbacks.empty());
}

}  // namespace
}  // namespace clustagg
