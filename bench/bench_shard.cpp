// Shard-and-conquer pipeline harness.
//
// Builds a large multi-component instance — `groups` planted clusters
// whose label pools are disjoint, so every cross-group pair has
// X_uv = 1 and the agreement graph (X_uv < 1/2) decomposes into
// `groups` connected components (plus the occasional extra-noisy
// template isolated as a singleton) — and compares the unsharded
// pipeline against --shards=auto, both under lazy + fold.
//
// Within a group, objects cycle through `sigs_per_group` signature
// templates (so folding collapses n objects to at most
// groups * sigs_per_group nodes); each template keeps the group's base
// label per clustering with probability 1 - noise and flips to a random
// in-pool label otherwise, which keeps typical within-group distances
// below 1/2 and the group connected.
//
// Two solvers bracket the pipeline's economics:
//   - BALLS: a near-linear solve, so the O(s^2) agreement scan the
//     sharder pays up front is NOT amortized — expect break-even or a
//     small loss. Recorded honestly as the floor.
//   - AGGLOMERATIVE: superlinear, with an O(s^2) packed distance matrix
//     of its own. Per-shard solves touch sum s_i^2 pairs instead of
//     s^2, so the scan is amortized and peak matrix memory drops by
//     ~shard_count x. This is the headline case.
//
// No agreement edge is ever cut here (components fit their shards), so
// stitch_error_bound = 0 and the stitched solutions compete on exactly
// the same objective.
//
// Results go to BENCH_shard.json (current directory).
//
// Usage: bench_shard [n] (default 100000; pass a smaller n for a quick
// smoke run).

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "clustagg/clustagg.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"

namespace {

using namespace clustagg;
using bench::JsonObject;

/// `groups` planted clusters over disjoint label pools: group g draws
/// labels from [g*k, (g+1)*k), base label g*k, per-template noise flips
/// to a random in-pool label. Objects interleave over the group's
/// signature templates so every template occurs ~n/(groups*spg) times.
ClusteringSet MultiComponentInput(std::size_t n, std::size_t m,
                                  std::size_t groups, std::size_t spg,
                                  std::size_t k, double noise,
                                  std::uint64_t seed) {
  Rng rng(seed);
  // templates[g][t][i]: label of template t of group g in clustering i.
  std::vector<std::vector<std::vector<Clustering::Label>>> templates(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    templates[g].resize(spg);
    for (std::size_t t = 0; t < spg; ++t) {
      templates[g][t].resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t pool = g * k;
        templates[g][t][i] = static_cast<Clustering::Label>(
            rng.NextBernoulli(noise) ? pool + rng.NextBounded(k) : pool);
      }
    }
  }
  const std::size_t per_group = n / groups;
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t g = v / per_group < groups ? v / per_group
                                                   : groups - 1;
      const std::size_t t = (v % per_group) % spg;
      labels[v] = templates[g][t][i];
    }
    clusterings.emplace_back(std::move(labels));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(clusterings));
  CLUSTAGG_CHECK_OK(set.status());
  return *std::move(set);
}

struct CaseResult {
  double seconds = 0.0;
  double cost = 0.0;
  AggregationResult result;
};

CaseResult RunCase(const ClusteringSet& input,
                   AggregationAlgorithm algorithm, bool shard) {
  AggregatorOptions options;
  options.algorithm = algorithm;
  options.balls.alpha = 0.4;
  options.backend = DistanceBackend::kLazy;
  options.fold = true;
  options.shard.mode = shard ? ShardingMode::kAuto : ShardingMode::kOff;
  Stopwatch watch;
  Result<AggregationResult> result = Aggregate(input, options);
  CLUSTAGG_CHECK_OK(result.status());
  CaseResult out;
  out.seconds = watch.ElapsedSeconds();
  out.cost = result->total_disagreements;
  out.result = *std::move(result);
  return out;
}

JsonObject BenchAlgorithm(const ClusteringSet& input,
                          AggregationAlgorithm algorithm, const char* name,
                          std::size_t groups, bool expect_speedup) {
  const CaseResult flat = RunCase(input, algorithm, false);
  std::printf("  %s unsharded: %.3f s, %zu clusters, E_D = %.0f\n", name,
              flat.seconds, flat.result.clustering.NumClusters(), flat.cost);
  const CaseResult sharded = RunCase(input, algorithm, true);
  const double speedup = flat.seconds / sharded.seconds;
  std::printf("  %s sharded:   %.3f s, %zu clusters, E_D = %.0f\n", name,
              sharded.seconds, sharded.result.clustering.NumClusters(),
              sharded.cost);
  std::printf("  %s: %zu shards over %zu components, stitch error bound "
              "= %.2f, speedup %.2fx\n",
              name, sharded.result.shard_count,
              sharded.result.shard_components,
              sharded.result.stitch_error_bound, speedup);

  CLUSTAGG_CHECK(sharded.result.sharded);
  CLUSTAGG_CHECK(sharded.result.shard_count > 1);
  // At least one component per planted group (disjoint pools make the
  // groups unmergeable); a handful of extra-noisy templates may land
  // farther than 1/2 from everything in their pool and show up as
  // singleton components on top.
  CLUSTAGG_CHECK(sharded.result.shard_components >= groups);
  // The acceptance bar: on the superlinear solver, --shards=auto must
  // beat the unsharded lazy pipeline end-to-end.
  if (expect_speedup) CLUSTAGG_CHECK(speedup > 1.0);

  JsonObject part;
  part.Set("unsharded_ns", flat.seconds * 1e9)
      .Set("unsharded_cost", flat.cost)
      .Set("unsharded_clusters", flat.result.clustering.NumClusters())
      .Set("sharded_ns", sharded.seconds * 1e9)
      .Set("sharded_cost", sharded.cost)
      .Set("sharded_clusters", sharded.result.clustering.NumClusters())
      .Set("shards", sharded.result.shard_count)
      .Set("components", sharded.result.shard_components)
      .Set("stitch_error_bound", sharded.result.stitch_error_bound)
      .Set("cost_gap", sharded.cost - flat.cost)
      .Set("speedup", speedup);
  return part;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 100000;
  const std::size_t m = 9;
  const std::size_t groups = 32;
  const std::size_t spg = 1024;  // signature templates per group
  const std::size_t k = 8;
  std::printf("hardware threads: %zu\n", ResolveThreadCount(0));
  std::printf("multi-component fixture: n = %zu, m = %zu, %zu groups x "
              "%zu signature templates\n",
              n, m, groups, spg);
  const ClusteringSet input =
      MultiComponentInput(n, m, groups, spg, k, 0.2, 17);
  const SignatureIndex fold = SignatureIndex::Build(input);
  std::printf("distinct signatures: %zu\n\n", fold.num_signatures());

  JsonObject json;
  json.Set("bench", std::string("shard"))
      .Set("n", n)
      .Set("m", m)
      .Set("groups", groups)
      .Set("signatures", fold.num_signatures());

  std::printf("BALLS (near-linear solve; scan not amortized):\n");
  json.Set("balls", BenchAlgorithm(input, AggregationAlgorithm::kBalls,
                                   "BALLS", groups, false));
  std::printf("\nAGGLOMERATIVE (superlinear solve + O(s^2) matrix):\n");
  json.Set("agglomerative",
           BenchAlgorithm(input, AggregationAlgorithm::kAgglomerative,
                          "AGGLOMERATIVE", groups, true));

  bench::WriteBenchJson("BENCH_shard.json", json);
  return 0;
}
