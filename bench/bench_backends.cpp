// Distance-backend comparison harness.
//
// Part 1 pits the seed's clustering-major row-wise dense kernel (kept
// here as a frozen baseline) against the shipped bit-packed SWAR row
// kernel and the AVX2 kernel (on a CPU with AVX2) on an n = 4096, m = 9
// instance, at 1 thread and at every hardware thread, checking
// bit-identical output at every tier and reporting the speedups.
//
// Part 2 measures parallel dense construction scaling at 1, 2, 4, and 8
// threads on the CPU's default tier — the band-partitioned builder
// should scale near-linearly up to the host's actual core count (see
// "host.hardware_threads" in the emitted json; on a 1-core container
// every multi-thread row is pure scheduling overhead).
//
// Part 3 measures per-query latency of the lazy backend on the packed
// single-word kernel (complete labels, unit weights), on the packed
// missing-cell kernel (10% missing labels, unit weights) and on the
// general loop (the same labels under non-unit weights). Queries walk a
// precomputed pair buffer so the numbers isolate the distance call from
// index generation (an RNG draw costs more than the kernel under test).
//
// Part 4 measures duplicate-signature folding on a Mushrooms-shaped
// fixture (n = 8192 objects, 512 distinct signatures): full pipeline
// with --fold off vs. on.
//
// Parts 1-4 are written to BENCH_backends.json (current directory) so
// future PRs can track the trajectory.
//
// Every figure of parts 1-4 is the median of kRuns timed runs after one
// untimed warm-up run, which takes the one-time costs (thread start-up,
// cold caches); each run still allocates and first-touches its own
// output, as a real build does.
//
// Part 5 runs a full (non-sampled) LOCALSEARCH under the lazy backend at
// a size where the dense matrix would not be built (default n = 50000:
// ~1.25e9 pairs, ~5 GB as floats). The lazy backend keeps O(n*m) memory,
// so the whole run fits in a few hundred MB. Pass 0 to skip it.
//
// Usage: bench_backends [n_lazy] (default 50000; pass a smaller n for a
// quick smoke run, 0 to skip part 5).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "clustagg/clustagg.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/symmetric_matrix.h"
#include "core/internal/packed_labels.h"

namespace {

using namespace clustagg;
using bench::JsonObject;
using internal::PackedKernelTier;

constexpr std::size_t kRuns = 7;

/// Median wall time of kRuns calls of `fn`, after one untimed warm-up
/// call. `fn` returns what it built, which is freed after the clock
/// stops, so no sample includes tearing down its predecessor's output.
template <typename Fn>
double MedianSeconds(Fn&& fn) {
  fn();
  std::vector<double> samples(kRuns);
  for (double& sample : samples) {
    Stopwatch watch;
    [[maybe_unused]] const auto built = fn();
    sample = watch.ElapsedSeconds();
  }
  std::sort(samples.begin(), samples.end());
  return samples[kRuns / 2];
}

/// Forces a kernel tier for one measurement and restores the default on
/// scope exit. Tier changes only affect sources built afterwards, so
/// every guarded block builds its own source.
class TierGuard {
 public:
  explicit TierGuard(PackedKernelTier tier) {
    internal::SetPackedKernelTierForTest(&tier);
  }
  ~TierGuard() { internal::SetPackedKernelTierForTest(nullptr); }
};

ClusteringSet PlantedInput(std::size_t n, std::size_t m, std::size_t k,
                           double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<Clustering::Label>(
          rng.NextBernoulli(noise) ? rng.NextBounded(k) : v % k);
    }
    clusterings.emplace_back(std::move(labels));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(clusterings));
  CLUSTAGG_CHECK_OK(set.status());
  return *std::move(set);
}

/// A duplicate-heavy fixture: `distinct` random label tuples, each
/// repeated n / distinct times (interleaved) — the shape of the paper's
/// categorical evaluations, where most rows share a signature.
ClusteringSet DuplicatedInput(std::size_t n, std::size_t distinct,
                              std::size_t m, std::size_t k,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> base(distinct);
    for (auto& l : base) {
      l = static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) labels[v] = base[v % distinct];
    clusterings.emplace_back(std::move(labels));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(clusterings));
  CLUSTAGG_CHECK_OK(set.status());
  return *std::move(set);
}

// ------------------------------------------------ legacy kernel (seed)

/// The pre-overhaul dense kernel, frozen verbatim as the baseline:
/// clustering-major label columns (labels[i * n + v], stride n between
/// the two labels of one comparison) filled row-by-row with the general
/// weighted accumulation for every pair.
struct LegacyColumns {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<Clustering::Label> labels;
  std::vector<double> weights;
  double total_weight = 0.0;
};

LegacyColumns MakeLegacyColumns(const ClusteringSet& input) {
  LegacyColumns cols;
  cols.n = input.num_objects();
  cols.m = input.num_clusterings();
  cols.total_weight = input.total_weight();
  cols.weights.resize(cols.m);
  cols.labels.resize(cols.m * cols.n);
  for (std::size_t i = 0; i < cols.m; ++i) {
    cols.weights[i] = input.weight(i);
    const Clustering& c = input.clustering(i);
    Clustering::Label* out = cols.labels.data() + i * cols.n;
    for (std::size_t v = 0; v < cols.n; ++v) out[v] = c.label(v);
  }
  return cols;
}

double LegacyColumnDistance(const LegacyColumns& cols, std::size_t u,
                            std::size_t v) {
  double disagreeing = 0.0;
  double opinionated = 0.0;
  for (std::size_t i = 0; i < cols.m; ++i) {
    const Clustering::Label lu = cols.labels[i * cols.n + u];
    const Clustering::Label lv = cols.labels[i * cols.n + v];
    if (lu == Clustering::kMissing || lv == Clustering::kMissing) continue;
    opinionated += cols.weights[i];
    if (lu != lv) disagreeing += cols.weights[i];
  }
  // kRandomCoin at p = 0.5; no labels are missing in the bench fixture,
  // so the correction adds exactly 0.
  disagreeing += (cols.total_weight - opinionated) * 0.5;
  return disagreeing / cols.total_weight;
}

SymmetricMatrix<float> LegacyRowWiseBuild(const LegacyColumns& cols,
                                          std::size_t num_threads) {
  Result<SymmetricMatrix<float>> matrix =
      SymmetricMatrix<float>::Create(cols.n);
  CLUSTAGG_CHECK_OK(matrix.status());
  SymmetricMatrix<float> distances = std::move(matrix).value();
  std::vector<float>& packed = distances.packed();
  const std::size_t n = cols.n;
  const std::size_t threads =
      EffectiveRowThreads(n, ResolveThreadCount(num_threads));
  ParallelForRows(
      n, threads, RunContext(), [&](std::size_t u, std::size_t) {
        if (u + 1 >= n) return;
        float* row = packed.data() + distances.PackedIndex(u, u + 1);
        for (std::size_t v = u + 1; v < n; ++v) {
          row[v - u - 1] =
              static_cast<float>(LegacyColumnDistance(cols, u, v));
        }
      });
  return distances;
}

// ------------------------------------------------------------- parts

void LegacyVsPackedKernel(JsonObject* json) {
  const std::size_t n = 4096;
  const std::size_t m = 9;
  const std::size_t threads = ResolveThreadCount(0);
  std::printf("dense kernel, n = %zu, m = %zu, threads = 1 and %zu\n", n,
              m, threads);
  const ClusteringSet input = PlantedInput(n, m, 8, 0.2, 2);

  const LegacyColumns legacy_cols = MakeLegacyColumns(input);
  const SymmetricMatrix<float> legacy = LegacyRowWiseBuild(legacy_cols, 0);
  const double legacy_seconds =
      MedianSeconds([&] { return LegacyRowWiseBuild(legacy_cols, 0); });
  std::printf("  legacy row-wise (clustering-major), %zu threads: %.3f s\n",
              threads, legacy_seconds);

  JsonObject part;
  part.Set("n", n)
      .Set("m", m)
      .Set("threads", threads)
      .Set("runs", kRuns)
      .Set("legacy_rowwise_build_ns", legacy_seconds * 1e9);
  // Bit-packed SWAR row kernel, then the AVX2 kernel when the CPU has
  // it. A faster kernel with different numbers would be a bug, not a
  // win, so each must reproduce the legacy matrix bit for bit.
  const struct {
    const char* name;
    const char* prefix;
    PackedKernelTier tier;
  } tiers[] = {{"SWAR", "packed", PackedKernelTier::kSwar},
               {"AVX2", "avx2", PackedKernelTier::kAvx2}};
  double swar_one = 0.0;
  double swar_all = 0.0;
  for (const auto& t : tiers) {
    if (t.tier == PackedKernelTier::kAvx2 &&
        !internal::Avx2KernelAvailable()) {
      continue;
    }
    TierGuard guard(t.tier);
    const auto build = [&](std::size_t num_threads) {
      Result<std::shared_ptr<const DenseDistanceSource>> dense =
          DenseDistanceSource::Build(input, {}, num_threads);
      CLUSTAGG_CHECK_OK(dense.status());
      return *std::move(dense);
    };
    for (std::size_t num_threads : {std::size_t{1}, threads}) {
      CLUSTAGG_CHECK(build(num_threads)->dense_matrix()->packed() ==
                     legacy.packed());
    }
    const double one = MedianSeconds([&] { return build(1); });
    const double all = MedianSeconds([&] { return build(threads); });
    std::printf("  packed (%s row kernel): 1 thread %.4f s, %zu threads "
                "%.4f s, speedup over legacy %.2fx\n",
                t.name, one, threads, all, legacy_seconds / all);
    const std::string prefix(t.prefix);
    part.Set(prefix + "_build_ns_threads_1", one * 1e9)
        .Set(prefix + "_build_ns", all * 1e9)
        .Set(prefix + "_speedup", legacy_seconds / all);
    if (t.tier == PackedKernelTier::kSwar) {
      swar_one = one;
      swar_all = all;
    } else {
      std::printf("  AVX2 over SWAR: %.2fx at 1 thread, %.2fx at %zu "
                  "threads\n", swar_one / one, swar_all / all, threads);
      part.Set("avx2_over_swar_threads_1", swar_one / one)
          .Set("avx2_over_swar", swar_all / all);
    }
  }
  json->Set("dense_kernel", part);
}

void DenseConstructionScaling(JsonObject* json) {
  const std::size_t n = 4096;
  const std::size_t m = 9;
  std::printf("\ndense construction scaling, n = %zu, m = %zu\n", n, m);
  const ClusteringSet input = PlantedInput(n, m, 8, 0.2, 2);
  double serial_seconds = 0.0;
  JsonObject part;
  // The builder carves the triangle into cost-weighted row bands (equal
  // pair mass instead of equal height), so late thin bands no longer
  // starve the workers that drew early fat ones.
  part.Set("partitioning", std::string("cost_weighted_bands"));
  for (std::size_t threads : {1, 2, 4, 8}) {
    const double seconds = MedianSeconds([&] {
      Result<CorrelationInstance> instance = CorrelationInstance::Build(
          input, {}, {DistanceBackend::kDense, threads, {}});
      CLUSTAGG_CHECK_OK(instance.status());
      return instance;
    });
    if (threads == 1) serial_seconds = seconds;
    std::printf("  threads = %zu: %.3f s (speedup %.2fx)\n", threads,
                seconds, serial_seconds / seconds);
    part.Set("build_ns_threads_" + std::to_string(threads), seconds * 1e9);
  }
  json->Set("dense_scaling", part);
}

void QueryLatency(JsonObject* json) {
  const std::size_t n = 4096;
  const std::size_t m = 9;
  const std::size_t queries = 4'000'000;
  std::printf("\nlazy per-query latency, n = %zu, m = %zu\n", n, m);

  // Plain path: complete labels, unit weights.
  const ClusteringSet complete = PlantedInput(n, m, 8, 0.2, 5);
  // Missing-cell path: the same shape with 10% missing labels, still
  // unit weights, so it packs with presence masks.
  Rng rng(7);
  std::vector<Clustering> noisy;
  std::vector<double> weights;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = rng.NextBernoulli(0.1)
                      ? Clustering::kMissing
                      : complete.clustering(i).label(v);
    }
    noisy.emplace_back(std::move(labels));
    weights.push_back(0.5 + 0.25 * static_cast<double>(i));
  }
  const ClusteringSet with_missing = *ClusteringSet::Create(noisy);
  // General path: the same labels under non-unit weights, which never
  // pack.
  const ClusteringSet weighted =
      *ClusteringSet::Create(std::move(noisy), std::move(weights));

  // Precomputed random pair buffer, cycled: two RNG draws cost ~14 ns —
  // more than the kernels under test — so drawing inside the timed loop
  // would bury the comparison in generator noise. Every case walks the
  // same pairs.
  constexpr std::size_t kPairBuf = 1 << 16;
  std::vector<std::uint32_t> pair_u(kPairBuf);
  std::vector<std::uint32_t> pair_v(kPairBuf);
  Rng pairs(11);
  for (std::size_t i = 0; i < kPairBuf; ++i) {
    pair_u[i] = static_cast<std::uint32_t>(pairs.NextBounded(n));
    pair_v[i] = static_cast<std::uint32_t>(pairs.NextBounded(n));
  }

  JsonObject part;
  part.Set("n", n).Set("m", m).Set("queries", queries);
  part.Set("methodology", std::string("precomputed_pair_buffer"))
      .Set("runs", kRuns);
  const struct {
    const char* name;
    const char* key;
    const ClusteringSet* input;
  } cases[] = {{"packed fast path (SWAR word)", "packed_query_ns", &complete},
               {"packed missing-cell path (10% missing)", "missing_cell_ns",
                &with_missing},
               {"general path (10% missing, weighted)", "general_path_ns",
                &weighted}};
  for (const auto& c : cases) {
    TierGuard guard(PackedKernelTier::kSwar);
    Result<std::shared_ptr<const LazyDistanceSource>> lazy =
        LazyDistanceSource::Build(*c.input, {});
    CLUSTAGG_CHECK_OK(lazy.status());
    double sink = 0.0;
    const double ns = MedianSeconds([&] {
      sink = 0.0;
      for (std::size_t q = 0; q < queries; ++q) {
        const std::size_t i = q & (kPairBuf - 1);
        sink += (*lazy)->distance(pair_u[i], pair_v[i]);
      }
      return sink;
    }) * 1e9 / static_cast<double>(queries);
    std::printf("  %s: %.1f ns/query (checksum %.1f)\n", c.name, ns, sink);
    part.Set(c.key, ns);
    // Same pairs, summed in the same order from float(PairwiseDistance):
    // every kernel must reproduce the reference to the last bit.
    double reference = 0.0;
    for (std::size_t q = 0; q < queries; ++q) {
      const std::size_t i = q & (kPairBuf - 1);
      reference += static_cast<float>(
          c.input->PairwiseDistance(pair_u[i], pair_v[i]));
    }
    CLUSTAGG_CHECK(sink == reference);
  }
  json->Set("lazy_query", part);
}

void FoldSpeedup(JsonObject* json) {
  const std::size_t n = 8192;
  const std::size_t distinct = 512;
  const std::size_t m = 9;
  std::printf("\nduplicate-signature folding, n = %zu, %zu distinct "
              "signatures\n", n, distinct);
  const ClusteringSet input = DuplicatedInput(n, distinct, m, 8, 13);

  JsonObject part;
  part.Set("n", n).Set("m", m);
  double unfolded_seconds = 0.0;
  for (bool fold : {false, true}) {
    AggregatorOptions options;
    options.algorithm = AggregationAlgorithm::kBalls;
    options.fold = fold;
    const double seconds =
        MedianSeconds([&] { return Aggregate(input, options); });
    Result<AggregationResult> result = Aggregate(input, options);
    CLUSTAGG_CHECK_OK(result.status());
    if (!fold) unfolded_seconds = seconds;
    std::printf("  BALLS fold=%s: %.3f s, %zu clusters, E_D = %.0f\n",
                fold ? "on" : "off", seconds,
                result->clustering.NumClusters(),
                result->total_disagreements);
    if (fold) {
      CLUSTAGG_CHECK(result->folded);
      std::printf("  fold ratio s/n = %zu/%zu = %.4f, speedup %.2fx\n",
                  result->fold_signatures, n,
                  static_cast<double>(result->fold_signatures) /
                      static_cast<double>(n),
                  unfolded_seconds / seconds);
      part.Set("signatures", result->fold_signatures)
          .Set("fold_ratio",
               static_cast<double>(result->fold_signatures) /
                   static_cast<double>(n))
          .Set("folded_ns", seconds * 1e9)
          .Set("speedup", unfolded_seconds / seconds);
    } else {
      part.Set("unfolded_ns", seconds * 1e9);
    }
  }
  json->Set("fold", part);
}

void LazyLocalSearch(std::size_t n) {
  const std::size_t m = 9;
  std::printf("\nfull LOCALSEARCH under the lazy backend, n = %zu, "
              "m = %zu (dense would need %.1f GB)\n",
              n, m,
              static_cast<double>(n) * (static_cast<double>(n) - 1.0) / 2.0 *
                  sizeof(float) / 1e9);
  const ClusteringSet input = PlantedInput(n, m, 32, 0.2, 3);
  Stopwatch watch;
  Result<CorrelationInstance> instance =
      CorrelationInstance::Build(input, {}, {DistanceBackend::kLazy, 0, {}});
  CLUSTAGG_CHECK_OK(instance.status());
  std::printf("  lazy build: %.3f s\n", watch.ElapsedSeconds());

  // Random init with ~sqrt(n) clusters keeps the move table O(n^1.5)
  // instead of the O(n^2) a singleton start would allocate.
  LocalSearchOptions options;
  options.init = LocalSearchOptions::Init::kRandom;
  options.max_passes = 2;
  const LocalSearchClusterer clusterer(options);
  watch.Restart();
  Result<Clustering> result = clusterer.Run(*instance);
  CLUSTAGG_CHECK_OK(result.status());
  std::printf("  LOCALSEARCH (2 passes): %.3f s, %zu clusters\n",
              watch.ElapsedSeconds(), result->NumClusters());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("hardware threads: %zu\n\n", ResolveThreadCount(0));
  JsonObject json;
  json.Set("bench", std::string("backends"));
  json.Set("hardware_threads", ResolveThreadCount(0));
  LegacyVsPackedKernel(&json);
  DenseConstructionScaling(&json);
  QueryLatency(&json);
  FoldSpeedup(&json);
  bench::WriteBenchJson("BENCH_backends.json", json);
  const std::size_t n_lazy =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 50000;
  if (n_lazy > 0) LazyLocalSearch(n_lazy);
  return 0;
}
