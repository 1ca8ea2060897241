// Run-control layer tests: deadlines, cooperative cancellation, and
// iteration budgets across every clusterer, crossed with both
// missing-value policies and both distance backends. The invariant under
// test everywhere: whatever the budget does, the result is a valid,
// complete partition with a truthful RunOutcome tag.

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "core/aggregator.h"
#include "core/best_clustering.h"
#include "core/correlation_instance.h"

namespace clustagg {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

ClusteringSet RandomInputWithMissing(std::size_t n, std::size_t m,
                                     std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = rng.NextBernoulli(0.1)
                      ? Clustering::kMissing
                      : static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

void ExpectCompletePartition(const Clustering& clustering, std::size_t n) {
  EXPECT_EQ(clustering.size(), n);
  EXPECT_TRUE(clustering.Validate().ok());
  EXPECT_FALSE(clustering.HasMissing());
}

/// Every CorrelationClusterer except EXACT (which needs a tiny n and is
/// covered separately below).
std::vector<std::unique_ptr<CorrelationClusterer>> AllClusterers() {
  std::vector<std::unique_ptr<CorrelationClusterer>> out;
  out.push_back(std::make_unique<BallsClusterer>());
  out.push_back(std::make_unique<AgglomerativeClusterer>());
  out.push_back(std::make_unique<FurthestClusterer>());
  out.push_back(std::make_unique<LocalSearchClusterer>());
  out.push_back(std::make_unique<PivotClusterer>());
  out.push_back(std::make_unique<AnnealingClusterer>());
  out.push_back(std::make_unique<MajorityClusterer>());
  return out;
}

struct Config {
  MissingValuePolicy policy;
  DistanceBackend backend;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  std::string name = info.param.policy == MissingValuePolicy::kRandomCoin
                         ? "Coin"
                         : "Ignore";
  name += info.param.backend == DistanceBackend::kDense ? "Dense" : "Lazy";
  return name;
}

class RunControlMatrixTest : public ::testing::TestWithParam<Config> {
 protected:
  static constexpr std::size_t kObjects = 60;

  CorrelationInstance BuildInstance() const {
    MissingValueOptions missing;
    missing.policy = GetParam().policy;
    DistanceSourceOptions source{GetParam().backend, 2, {}};
    Result<CorrelationInstance> built = CorrelationInstance::Build(
        RandomInputWithMissing(kObjects, 5, 4, 11), missing, source);
    CLUSTAGG_CHECK(built.ok());
    return std::move(built).value();
  }
};

INSTANTIATE_TEST_SUITE_P(
    PoliciesTimesBackends, RunControlMatrixTest,
    ::testing::Values(
        Config{MissingValuePolicy::kRandomCoin, DistanceBackend::kDense},
        Config{MissingValuePolicy::kRandomCoin, DistanceBackend::kLazy},
        Config{MissingValuePolicy::kIgnore, DistanceBackend::kDense},
        Config{MissingValuePolicy::kIgnore, DistanceBackend::kLazy}),
    ConfigName);

TEST_P(RunControlMatrixTest, PreCancelledRunsReturnTaggedPartitions) {
  const CorrelationInstance instance = BuildInstance();
  for (const auto& clusterer : AllClusterers()) {
    RunContext run = RunContext::Cancellable();
    run.RequestCancel();
    Result<ClustererRun> result = clusterer->RunControlled(instance, run);
    ASSERT_TRUE(result.ok()) << clusterer->name();
    EXPECT_EQ(result->outcome, RunOutcome::kCancelled) << clusterer->name();
    ExpectCompletePartition(result->clustering, kObjects);
  }
}

TEST_P(RunControlMatrixTest, ExpiredDeadlinesReturnTaggedPartitions) {
  const CorrelationInstance instance = BuildInstance();
  for (const auto& clusterer : AllClusterers()) {
    const RunContext run =
        RunContext::WithDeadlineAt(RunContext::Clock::now() -
                                   milliseconds(1));
    Result<ClustererRun> result = clusterer->RunControlled(instance, run);
    ASSERT_TRUE(result.ok()) << clusterer->name();
    EXPECT_EQ(result->outcome, RunOutcome::kDeadlineExceeded)
        << clusterer->name();
    ExpectCompletePartition(result->clustering, kObjects);
  }
}

TEST_P(RunControlMatrixTest, IterationBudgetReadsAsDeadlineExceeded) {
  const CorrelationInstance instance = BuildInstance();
  for (const auto& clusterer : AllClusterers()) {
    const RunContext run = RunContext::WithIterationBudget(8);
    Result<ClustererRun> result = clusterer->RunControlled(instance, run);
    ASSERT_TRUE(result.ok()) << clusterer->name();
    EXPECT_EQ(result->outcome, RunOutcome::kDeadlineExceeded)
        << clusterer->name();
    ExpectCompletePartition(result->clustering, kObjects);
  }
}

TEST_P(RunControlMatrixTest, UnlimitedContextMatchesPlainRun) {
  const CorrelationInstance instance = BuildInstance();
  for (const auto& clusterer : AllClusterers()) {
    Result<ClustererRun> controlled =
        clusterer->RunControlled(instance, RunContext());
    ASSERT_TRUE(controlled.ok()) << clusterer->name();
    EXPECT_EQ(controlled->outcome, RunOutcome::kConverged)
        << clusterer->name();
    ExpectCompletePartition(controlled->clustering, kObjects);
    Result<Clustering> plain = clusterer->Run(instance);
    ASSERT_TRUE(plain.ok()) << clusterer->name();
    EXPECT_TRUE(controlled->clustering.SamePartition(*plain))
        << clusterer->name();
  }
}

TEST_P(RunControlMatrixTest, GenerousDeadlineDoesNotChangeTheResult) {
  // A budget that never fires must be invisible: identical partition and
  // a kConverged tag.
  const CorrelationInstance instance = BuildInstance();
  for (const auto& clusterer : AllClusterers()) {
    const RunContext run = RunContext::WithDeadline(milliseconds(60000));
    Result<ClustererRun> budgeted = clusterer->RunControlled(instance, run);
    ASSERT_TRUE(budgeted.ok()) << clusterer->name();
    EXPECT_EQ(budgeted->outcome, RunOutcome::kConverged)
        << clusterer->name();
    Result<Clustering> plain = clusterer->Run(instance);
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(budgeted->clustering.SamePartition(*plain))
        << clusterer->name();
  }
}

TEST_P(RunControlMatrixTest, SamplingHonorsCancellation) {
  const ClusteringSet input = RandomInputWithMissing(120, 5, 4, 23);
  BallsClusterer base;
  SamplingOptions options;
  options.sample_size = 30;
  options.missing.policy = GetParam().policy;
  options.source.backend = GetParam().backend;
  options.source.num_threads = 2;
  RunContext run = RunContext::Cancellable();
  run.RequestCancel();
  Result<ClustererRun> result =
      SamplingAggregateControlled(input, base, run, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RunOutcome::kCancelled);
  ExpectCompletePartition(result->clustering, 120);
}

TEST_P(RunControlMatrixTest, AggregateExpiredDeadlineIsNotAnError) {
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  options.missing.policy = GetParam().policy;
  options.backend = GetParam().backend;
  options.num_threads = 2;
  options.run =
      RunContext::WithDeadlineAt(RunContext::Clock::now() - milliseconds(1));
  Result<AggregationResult> result =
      Aggregate(RandomInputWithMissing(kObjects, 5, 4, 31), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RunOutcome::kDeadlineExceeded);
  ExpectCompletePartition(result->clustering, kObjects);
}

TEST(RunControlLocalSearchTest, PassesShorterThanABlockStillCharge) {
  // Regression: the sweep charges its budget in blocks of 64 objects, so
  // a pass over n < 64 objects (or the tail of any n not divisible by
  // 64) used to cost zero iterations and an iteration budget could never
  // fire. With the tail charged, n = 60 costs exactly 60 per completed
  // pass: the MoveState build charges 60 more, so a budget of 100 must
  // fire at the pass-2 poll instead of silently converging.
  const CorrelationInstance instance = CorrelationInstance::Build(
      RandomInputWithMissing(60, 5, 4, 47)).value();
  const RunContext run = RunContext::WithIterationBudget(100);
  Result<ClustererRun> result =
      LocalSearchClusterer().RunControlled(instance, run);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RunOutcome::kDeadlineExceeded);
  ExpectCompletePartition(result->clustering, 60);
}

// ------------------------------------------------------------- EXACT

TEST(RunControlExactTest, CancellationYieldsValidPartition) {
  // EXACT polls every 4096 search nodes, so a tiny search may converge
  // before noticing the flag; both outcomes are legitimate, but the
  // partition must be valid either way and the tag truthful.
  const CorrelationInstance instance = CorrelationInstance::Build(
      RandomInputWithMissing(12, 4, 3, 7)).value();
  RunContext run = RunContext::Cancellable();
  run.RequestCancel();
  Result<ClustererRun> result =
      ExactClusterer().RunControlled(instance, run);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->outcome == RunOutcome::kCancelled ||
              result->outcome == RunOutcome::kConverged);
  ExpectCompletePartition(result->clustering, 12);
  if (result->outcome == RunOutcome::kConverged) {
    // A converged run must actually be the optimum: it matches the
    // unlimited solve.
    Result<Clustering> optimum = ExactClusterer().Run(instance);
    ASSERT_TRUE(optimum.ok());
    EXPECT_TRUE(result->clustering.SamePartition(*optimum));
  }
}

// --------------------------------------------- mid-run cancellation

TEST(RunControlWatchdogTest, WatchdogThreadCancelsALongAnnealingRun) {
  // An annealing schedule that would run for minutes, cancelled from
  // another thread after a few milliseconds: the run must come back
  // promptly with a valid partition tagged kCancelled. (If the machine
  // somehow finishes the schedule first the tag is kConverged; the
  // schedule below is far too long for that.)
  const CorrelationInstance instance = CorrelationInstance::Build(
      RandomInputWithMissing(80, 5, 4, 41)).value();
  AnnealingOptions options;
  options.moves_per_temperature = 200000;
  options.max_levels = 1000000;
  options.min_acceptance_rate = 0.0;  // never stop early
  options.cooling = 0.999999;         // effectively never cools down
  RunContext run = RunContext::Cancellable();
  std::thread watchdog([&run] {
    std::this_thread::sleep_for(milliseconds(20));
    run.RequestCancel();
  });
  Result<ClustererRun> result =
      AnnealingClusterer(options).RunControlled(instance, run);
  watchdog.join();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RunOutcome::kCancelled);
  ExpectCompletePartition(result->clustering, 80);
}

// -------------------------------------------------- instance builds

TEST(RunControlBuildTest, DenseBuildInterruptIsAStatusNotAPartialMatrix) {
  // A half-built distance matrix is unusable, so CorrelationInstance
  // construction reports interrupts as Status instead of degrading.
  RunContext run = RunContext::Cancellable();
  run.RequestCancel();
  const DistanceSourceOptions source{DistanceBackend::kDense, 2, run};
  Result<CorrelationInstance> built = CorrelationInstance::Build(
      RandomInputWithMissing(64, 4, 3, 13), MissingValueOptions{}, source);
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(RunContext::IsInterrupt(built.status()));
  EXPECT_EQ(built.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(RunContext::OutcomeFromInterrupt(built.status()),
            RunOutcome::kCancelled);
}

// ------------------------------------------------- BESTCLUSTERING

TEST(RunControlBestClusteringTest, FirstCandidateAlwaysScored) {
  const ClusteringSet input = RandomInputWithMissing(40, 6, 3, 17);
  RunContext run = RunContext::Cancellable();
  run.RequestCancel();
  Result<BestClusteringResult> best =
      BestClustering(input, MissingValueOptions{}, run);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->outcome, RunOutcome::kCancelled);
  // Even cancelled before the comparison loop, the result is a real
  // scored candidate (the first input).
  EXPECT_EQ(best->index, 0u);
  ExpectCompletePartition(best->clustering, 40);
}

// -------------------------------------------------- RunContext unit

TEST(RunContextTest, UnlimitedNeverStops) {
  const RunContext run;
  EXPECT_TRUE(run.unlimited());
  EXPECT_EQ(run.Poll(), RunOutcome::kConverged);
  EXPECT_FALSE(run.ShouldStop());
  EXPECT_FALSE(run.cancel_requested());
  EXPECT_FALSE(run.deadline_expired());
  EXPECT_FALSE(run.SimulateAllocationFailure(1u << 30));
  run.ChargeIterations(1000);  // no-op, must not crash
}

TEST(RunContextTest, CancellationIsSharedAcrossCopies) {
  const RunContext original = RunContext::Cancellable();
  const RunContext copy = original;
  EXPECT_EQ(copy.Poll(), RunOutcome::kConverged);
  original.RequestCancel();
  EXPECT_EQ(copy.Poll(), RunOutcome::kCancelled);
  EXPECT_TRUE(copy.cancel_requested());
}

TEST(RunContextTest, DeadlineExpires) {
  const RunContext run = RunContext::WithDeadline(nanoseconds(0));
  EXPECT_EQ(run.Poll(), RunOutcome::kDeadlineExceeded);
  EXPECT_TRUE(run.deadline_expired());
  const RunContext far = RunContext::WithDeadline(milliseconds(60000));
  EXPECT_EQ(far.Poll(), RunOutcome::kConverged);
}

TEST(RunContextTest, CancellationBeatsDeadline) {
  const RunContext run = RunContext::WithDeadline(nanoseconds(0));
  run.RequestCancel();
  EXPECT_EQ(run.Poll(), RunOutcome::kCancelled);
}

TEST(RunContextTest, IterationBudgetFiresAsDeadline) {
  const RunContext run = RunContext::WithIterationBudget(10);
  EXPECT_EQ(run.Poll(), RunOutcome::kConverged);
  run.ChargeIterations(9);
  EXPECT_EQ(run.Poll(), RunOutcome::kConverged);
  run.ChargeIterations(1);
  EXPECT_EQ(run.Poll(), RunOutcome::kDeadlineExceeded);
}

TEST(RunContextTest, MergeOutcomesPicksTheMostSevere) {
  using O = RunOutcome;
  EXPECT_EQ(MergeOutcomes(O::kConverged, O::kConverged), O::kConverged);
  EXPECT_EQ(MergeOutcomes(O::kConverged, O::kFellBack), O::kFellBack);
  EXPECT_EQ(MergeOutcomes(O::kFellBack, O::kDeadlineExceeded),
            O::kDeadlineExceeded);
  EXPECT_EQ(MergeOutcomes(O::kDeadlineExceeded, O::kCancelled),
            O::kCancelled);
  EXPECT_EQ(MergeOutcomes(O::kCancelled, O::kConverged), O::kCancelled);
}

TEST(RunContextTest, OutcomeNamesAreStable) {
  EXPECT_STREQ(RunOutcomeName(RunOutcome::kConverged), "converged");
  EXPECT_STREQ(RunOutcomeName(RunOutcome::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(RunOutcomeName(RunOutcome::kCancelled), "cancelled");
  EXPECT_STREQ(RunOutcomeName(RunOutcome::kFellBack), "fell_back");
}

// ----------------- outcome truthfulness across the degradation chain
//
// A run that both degrades AND hits its budget must report the budget
// (deadline_exceeded outranks fell_back in MergeOutcomes): the fallback
// is still listed in `fallbacks`, but the outcome tag tells the caller
// the answer is a best-so-far, not a completed degraded run.

TEST(RunControlDegradationTest, ExactFallbackPlusIterationBudget) {
  // n = 40 is beyond EXACT's tractable size, so the pipeline swaps in
  // BALLS + LOCALSEARCH; an 8-iteration budget then fires inside the
  // substituted run.
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  options.num_threads = 1;
  options.run = RunContext::WithIterationBudget(8);
  Result<AggregationResult> result =
      Aggregate(RandomInputWithMissing(40, 4, 3, 41), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->fallbacks.empty());
  EXPECT_NE(result->fallbacks[0].find("EXACT is intractable"),
            std::string::npos);
  EXPECT_EQ(result->outcome, RunOutcome::kDeadlineExceeded);
  ExpectCompletePartition(result->clustering, 40);
}

TEST(RunControlDegradationTest, ExactFallbackPlusExpiredDeadline) {
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  options.num_threads = 1;
  options.run =
      RunContext::WithDeadlineAt(RunContext::Clock::now() - milliseconds(1));
  Result<AggregationResult> result =
      Aggregate(RandomInputWithMissing(40, 4, 3, 43), options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->fallbacks.empty());
  EXPECT_EQ(result->outcome, RunOutcome::kDeadlineExceeded);
  ExpectCompletePartition(result->clustering, 40);
}

TEST(RunControlDegradationTest, DenseToLazyFallbackPlusExpiredDeadline) {
  // The dense build's allocation fails (fault hook), forcing the lazy
  // retry; the already-expired deadline then cuts the clustering run
  // short. Severity: deadline_exceeded, with the dense->lazy note kept.
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kBalls;
  options.backend = DistanceBackend::kDense;
  options.num_threads = 1;
  RunContext run =
      RunContext::WithDeadlineAt(RunContext::Clock::now() - milliseconds(1));
  FaultHooks hooks;
  hooks.fail_allocation = [](std::size_t) { return true; };
  run.set_fault_hooks(hooks);
  options.run = run;
  Result<AggregationResult> result =
      Aggregate(RandomInputWithMissing(50, 4, 3, 47), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->fallbacks.empty());
  EXPECT_NE(result->fallbacks[0].find("dense backend allocation failed"),
            std::string::npos);
  EXPECT_EQ(result->outcome, RunOutcome::kDeadlineExceeded);
  ExpectCompletePartition(result->clustering, 50);
}

TEST(RunContextTest, StopStatusRoundTrips) {
  const RunContext run = RunContext::Cancellable();
  const Status cancelled = run.StopStatus(RunOutcome::kCancelled);
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_TRUE(RunContext::IsInterrupt(cancelled));
  EXPECT_EQ(RunContext::OutcomeFromInterrupt(cancelled),
            RunOutcome::kCancelled);
  const Status deadline = run.StopStatus(RunOutcome::kDeadlineExceeded);
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(RunContext::OutcomeFromInterrupt(deadline),
            RunOutcome::kDeadlineExceeded);
  EXPECT_FALSE(RunContext::IsInterrupt(Status::InvalidArgument("x")));
}

}  // namespace
}  // namespace clustagg
