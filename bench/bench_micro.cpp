// Google-benchmark microbenchmarks for the core primitives: the two
// disagreement-distance implementations, instance construction, and each
// correlation-clustering algorithm, across input sizes. These back the
// complexity claims in Section 4 (O(mn^2) matrix construction, O(n^2)
// BALLS, O(n^2 log n) AGGLOMERATIVE, O(k^2 n) FURTHEST) and the
// naive-vs-contingency distance design decision in DESIGN.md §5.

#include <benchmark/benchmark.h>

#include "clustagg/clustagg.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/internal/packed_labels.h"

namespace clustagg {
namespace {

Clustering RandomClustering(std::size_t n, std::size_t k, Rng* rng) {
  std::vector<Clustering::Label> labels(n);
  for (auto& l : labels) {
    l = static_cast<Clustering::Label>(rng->NextBounded(k));
  }
  return Clustering(std::move(labels));
}

ClusteringSet PlantedInput(std::size_t n, std::size_t m, std::size_t k,
                           double noise, uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering::Label> planted(n);
  for (std::size_t v = 0; v < n; ++v) {
    planted[v] = static_cast<Clustering::Label>(v % k);
  }
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(planted);
    for (auto& l : labels) {
      if (rng.NextBernoulli(noise)) {
        l = static_cast<Clustering::Label>(rng.NextBounded(k));
      }
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

void BM_DisagreementNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Clustering a = RandomClustering(n, 8, &rng);
  const Clustering b = RandomClustering(n, 8, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*DisagreementDistanceNaive(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DisagreementNaive)->Range(64, 4096)->Complexity();

void BM_DisagreementContingency(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Clustering a = RandomClustering(n, 8, &rng);
  const Clustering b = RandomClustering(n, 8, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*DisagreementDistance(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DisagreementContingency)->Range(64, 4096)->Complexity();

void BM_BuildInstance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ClusteringSet input = PlantedInput(n, 8, 5, 0.2, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CorrelationInstance::Build(input).value());
  }
}
BENCHMARK(BM_BuildInstance)->Range(64, 1024);

// Parallel dense construction at the acceptance point (n = 4096, m = 9):
// the speedup of Arg(4) over Arg(1) is the scaling claim for the
// row-partitioned builder.
void BM_BuildInstanceDense(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const ClusteringSet input = PlantedInput(4096, 9, 8, 0.2, 2);
  for (auto _ : state) {
    Result<CorrelationInstance> instance = CorrelationInstance::Build(
        input, {}, {DistanceBackend::kDense, threads, {}});
    CLUSTAGG_CHECK_OK(instance.status());
    benchmark::DoNotOptimize(instance);
  }
}
BENCHMARK(BM_BuildInstanceDense)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Lazy point queries at the acceptance point (n = 4096, m = 9) on the
// packed SWAR word kernel. Pairs come from a precomputed buffer: the RNG
// draw alone costs more than the kernel, so in-loop generation would
// bury it.
void BM_LazyQueryPacked(benchmark::State& state) {
  const internal::PackedKernelTier tier = internal::PackedKernelTier::kSwar;
  internal::SetPackedKernelTierForTest(&tier);
  const std::size_t n = 4096;
  const ClusteringSet input = PlantedInput(n, 9, 8, 0.2, 5);
  Result<std::shared_ptr<const LazyDistanceSource>> lazy =
      LazyDistanceSource::Build(input, {});
  CLUSTAGG_CHECK_OK(lazy.status());
  constexpr std::size_t kPairBuf = 1 << 16;
  std::vector<std::uint32_t> pair_u(kPairBuf);
  std::vector<std::uint32_t> pair_v(kPairBuf);
  Rng rng(11);
  for (std::size_t i = 0; i < kPairBuf; ++i) {
    pair_u[i] = static_cast<std::uint32_t>(rng.NextBounded(n));
    pair_v[i] = static_cast<std::uint32_t>(rng.NextBounded(n));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*lazy)->distance(pair_u[i], pair_v[i]));
    i = (i + 1) & (kPairBuf - 1);
  }
  internal::SetPackedKernelTierForTest(nullptr);
}
BENCHMARK(BM_LazyQueryPacked);

// Dense build at the acceptance point on the SWAR row kernel, one
// thread: compare with the Arg(1) BM_BuildInstanceDense run, which also
// pays for the instance wrapper.
void BM_DenseBuildPacked(benchmark::State& state) {
  const internal::PackedKernelTier tier = internal::PackedKernelTier::kSwar;
  internal::SetPackedKernelTierForTest(&tier);
  const ClusteringSet input = PlantedInput(4096, 9, 8, 0.2, 2);
  for (auto _ : state) {
    Result<std::shared_ptr<const DenseDistanceSource>> dense =
        DenseDistanceSource::Build(input, {}, 1);
    CLUSTAGG_CHECK_OK(dense.status());
    benchmark::DoNotOptimize(dense);
  }
  internal::SetPackedKernelTierForTest(nullptr);
}
BENCHMARK(BM_DenseBuildPacked)->Unit(benchmark::kMillisecond);

void BM_BuildInstanceLazy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ClusteringSet input = PlantedInput(n, 9, 8, 0.2, 2);
  for (auto _ : state) {
    Result<CorrelationInstance> instance = CorrelationInstance::Build(
        input, {}, {DistanceBackend::kLazy, 1, {}});
    CLUSTAGG_CHECK_OK(instance.status());
    benchmark::DoNotOptimize(instance);
  }
}
BENCHMARK(BM_BuildInstanceLazy)->Range(1024, 65536);

template <typename ClustererT>
void RunAlgorithm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ClusteringSet input = PlantedInput(n, 6, 5, 0.2, 3);
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  const ClustererT clusterer;
  for (auto _ : state) {
    Result<Clustering> c = clusterer.Run(instance);
    CLUSTAGG_CHECK_OK(c.status());
    benchmark::DoNotOptimize(c);
  }
}

void BM_Balls(benchmark::State& state) {
  RunAlgorithm<BallsClusterer>(state);
}
BENCHMARK(BM_Balls)->Range(64, 1024);

void BM_Agglomerative(benchmark::State& state) {
  RunAlgorithm<AgglomerativeClusterer>(state);
}
BENCHMARK(BM_Agglomerative)->Range(64, 1024);

void BM_Furthest(benchmark::State& state) {
  RunAlgorithm<FurthestClusterer>(state);
}
BENCHMARK(BM_Furthest)->Range(64, 1024);

void BM_LocalSearch(benchmark::State& state) {
  RunAlgorithm<LocalSearchClusterer>(state);
}
BENCHMARK(BM_LocalSearch)->Range(64, 512);

void BM_Pivot(benchmark::State& state) {
  RunAlgorithm<PivotClusterer>(state);
}
BENCHMARK(BM_Pivot)->Range(64, 1024);

void BM_Majority(benchmark::State& state) {
  RunAlgorithm<MajorityClusterer>(state);
}
BENCHMARK(BM_Majority)->Range(64, 1024);

void BM_SamplingAggregate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ClusteringSet input = PlantedInput(n, 6, 5, 0.15, 4);
  const AgglomerativeClusterer base;
  SamplingOptions options;
  options.sample_size = 256;
  for (auto _ : state) {
    Result<Clustering> c = SamplingAggregate(input, base, options);
    CLUSTAGG_CHECK_OK(c.status());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SamplingAggregate)->Range(1024, 16384);

void BM_KMeans(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  GaussianMixtureOptions gen;
  gen.num_clusters = 5;
  gen.points_per_cluster = n / 5;
  gen.noise_fraction = 0.0;
  gen.seed = 5;
  Result<Dataset2D> data = GenerateGaussianMixture(gen);
  CLUSTAGG_CHECK_OK(data.status());
  KMeansOptions options;
  options.k = 5;
  options.seed = 6;
  for (auto _ : state) {
    Result<KMeansResult> r = KMeans(data->points, options);
    CLUSTAGG_CHECK_OK(r.status());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KMeans)->Range(512, 8192);

void BM_HierarchicalAverage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  GaussianMixtureOptions gen;
  gen.num_clusters = 4;
  gen.points_per_cluster = n / 4;
  gen.noise_fraction = 0.0;
  gen.seed = 7;
  Result<Dataset2D> data = GenerateGaussianMixture(gen);
  CLUSTAGG_CHECK_OK(data.status());
  HierarchicalOptions options;
  options.linkage = Linkage::kAverage;
  options.k = 4;
  for (auto _ : state) {
    Result<Clustering> c = HierarchicalCluster(data->points, options);
    CLUSTAGG_CHECK_OK(c.status());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_HierarchicalAverage)->Range(128, 1024);

}  // namespace
}  // namespace clustagg
