// Local membership-query trajectory: cold vs. memoized point-query
// throughput of LocalMembershipOracle at n = 10^4..10^5, chain-depth
// distribution, and the query-count crossover against simply running
// one full global CC-PIVOT pass (which the oracle simulates). Writes
// BENCH_local.json — see docs/local_queries.md and docs/performance.md.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/pivot.h"
#include "local/local_oracle.h"

namespace clustagg::bench {
namespace {

/// m noisy views of k planted clusters: each clustering starts from the
/// planted labels (v mod k) and reassigns a `noise` fraction of objects
/// uniformly — the aggregation workload local queries are built for.
ClusteringSet PlantedSet(std::size_t n, std::size_t m, std::size_t k,
                         double noise, Rng* rng) {
  std::vector<Clustering> inputs;
  inputs.reserve(m);
  for (std::size_t c = 0; c < m; ++c) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<Clustering::Label>(v % k);
    }
    const std::size_t flips = static_cast<std::size_t>(noise * n);
    for (std::size_t i = 0; i < flips; ++i) {
      labels[rng->NextBounded(n)] =
          static_cast<Clustering::Label>(rng->NextBounded(k));
    }
    inputs.push_back(Clustering(std::move(labels)));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  CLUSTAGG_CHECK_OK(set.status());
  return *std::move(set);
}

struct QueryStats {
  double seconds = 0.0;
  double mean_chain_depth = 0.0;
  std::uint64_t p99_chain_depth = 0;
  double mean_distance_queries = 0.0;
};

/// Runs the given query ids against the oracle, optionally clearing the
/// memo before every query (the cold regime: each answer re-walks its
/// full adjudication chain, as a one-off lookup against a fresh oracle
/// would). Only ClusterOf is timed; the O(n) clear is not.
QueryStats RunQueries(const LocalMembershipOracle& oracle,
                      const std::vector<std::size_t>& ids, bool cold) {
  QueryStats stats;
  std::vector<std::uint64_t> depths;
  depths.reserve(ids.size());
  std::uint64_t total_distance_queries = 0;
  const RunContext run;
  for (std::size_t u : ids) {
    if (cold) oracle.ClearMemo();
    Stopwatch watch;
    Result<MembershipAnswer> answer = oracle.ClusterOf(u, run);
    stats.seconds += watch.ElapsedSeconds();
    CLUSTAGG_CHECK_OK(answer.status());
    depths.push_back(answer->chain_depth);
    total_distance_queries += answer->distance_queries;
  }
  std::sort(depths.begin(), depths.end());
  std::uint64_t depth_sum = 0;
  for (std::uint64_t d : depths) depth_sum += d;
  stats.mean_chain_depth =
      static_cast<double>(depth_sum) / static_cast<double>(depths.size());
  stats.p99_chain_depth = depths[depths.size() * 99 / 100];
  stats.mean_distance_queries = static_cast<double>(total_distance_queries) /
                                static_cast<double>(ids.size());
  return stats;
}

JsonObject BenchOne(std::size_t n) {
  constexpr std::size_t kClusterings = 8;
  constexpr std::size_t kClusters = 20;
  constexpr double kNoise = 0.1;
  constexpr std::size_t kQueries = 1000;
  constexpr std::uint64_t kSeed = 7;

  Rng rng(42 + n);
  const ClusteringSet input =
      PlantedSet(n, kClusterings, kClusters, kNoise, &rng);

  LocalOracleOptions options;
  options.seed = kSeed;
  Stopwatch build_watch;
  Result<LocalMembershipOracle> oracle =
      LocalMembershipOracle::FromClusterings(input, {}, options);
  CLUSTAGG_CHECK_OK(oracle.status());
  const double build_seconds = build_watch.ElapsedSeconds();

  // The baseline the oracle replaces: one full global CC-PIVOT pass
  // over the same lazy instance, same seed.
  DistanceSourceOptions source_options;
  source_options.backend = DistanceBackend::kLazy;
  Result<CorrelationInstance> instance =
      CorrelationInstance::Build(input, {}, source_options);
  CLUSTAGG_CHECK_OK(instance.status());
  PivotOptions pivot_options;
  pivot_options.repetitions = 1;
  pivot_options.seed = kSeed;
  Stopwatch global_watch;
  Result<ClustererRun> global =
      PivotClusterer(pivot_options).RunControlled(*instance, RunContext());
  CLUSTAGG_CHECK_OK(global.status());
  const double global_seconds = global_watch.ElapsedSeconds();

  std::vector<std::size_t> ids(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) ids[i] = rng.NextBounded(n);

  const QueryStats cold = RunQueries(*oracle, ids, /*cold=*/true);
  RunQueries(*oracle, ids, /*cold=*/false);  // warm the memo
  const QueryStats memoized = RunQueries(*oracle, ids, /*cold=*/false);

  const double cold_per_query = cold.seconds / kQueries;
  const double crossover = cold_per_query > 0.0
                               ? global_seconds / cold_per_query
                               : 0.0;
  std::printf(
      "n=%zu: build %.3f ms, global pivot pass %.1f ms | cold %.0f q/s "
      "(%.1f us/q, %.0f dist q/q, chain mean %.2f p99 %llu) | memoized "
      "%.0f q/s | crossover at %.0f cold queries\n",
      n, 1e3 * build_seconds, 1e3 * global_seconds, kQueries / cold.seconds,
      1e6 * cold_per_query, cold.mean_distance_queries, cold.mean_chain_depth,
      static_cast<unsigned long long>(cold.p99_chain_depth),
      kQueries / memoized.seconds, crossover);

  JsonObject record;
  record.Set("n", n);
  record.Set("clusterings", kClusterings);
  record.Set("planted_clusters", kClusters);
  record.Set("queries", kQueries);
  record.Set("build_seconds", build_seconds);
  record.Set("global_pivot_seconds", global_seconds);
  record.Set("cold_queries_per_sec", kQueries / cold.seconds);
  record.Set("cold_mean_distance_queries", cold.mean_distance_queries);
  record.Set("cold_mean_chain_depth", cold.mean_chain_depth);
  record.Set("cold_p99_chain_depth",
             static_cast<std::size_t>(cold.p99_chain_depth));
  record.Set("memoized_queries_per_sec", kQueries / memoized.seconds);
  record.Set("crossover_cold_queries", crossover);
  return record;
}

int Main() {
  std::printf("=== local membership queries: oracle vs. global pass ===\n");
  JsonObject out;
  out.Set("bench", std::string("local"));
  for (std::size_t n : {std::size_t{10000}, std::size_t{30000},
                        std::size_t{100000}}) {
    out.Set("n_" + std::to_string(n), BenchOne(n));
  }
  WriteBenchJson("BENCH_local.json", out);
  return 0;
}

}  // namespace
}  // namespace clustagg::bench

int main() { return clustagg::bench::Main(); }
