// Figure 5 (right) reproduction: SAMPLING running time on large
// synthetic datasets.
//
// The paper generates five Gaussian clusters plus 20% uniform noise at
// 50K / 100K / 500K / 1M points, clusters each dataset with k-means for
// k = 2..10, and aggregates the nine clusterings with SAMPLING (sample
// size 1000). Expected shape: the total running time grows linearly in
// the dataset size (the assignment phase dominates), and the five
// correct clusters are identified at every scale.
//
// Default sizes stop at 500K so the whole bench suite stays CI-friendly
// on one core; pass a max size in points as argv[1] (e.g. 1000000) to
// run the paper's full range.

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace clustagg;
  using namespace clustagg::bench;

  std::size_t max_points = 500000;
  if (argc > 1) max_points = static_cast<std::size_t>(std::atoll(argv[1]));

  std::printf("Figure 5 (right): SAMPLING scalability, sample size 1000\n");
  std::printf("(5 Gaussian clusters + 20%% noise; inputs: k-means "
              "k=2..10)\n");

  TablePrinter table({"points", "generate+kmeans(s)", "aggregate(s)",
                      "sample(s)", "assign(s)", "recluster(s)",
                      "clusters", "large clusters"});
  for (std::size_t n : {50000u, 100000u, 250000u, 500000u, 1000000u}) {
    if (n > max_points) break;
    GaussianMixtureOptions gen;
    gen.num_clusters = 5;
    gen.points_per_cluster = n / 6;  // ~5/6 clustered + 20% noise = n
    gen.noise_fraction = 0.2;
    gen.seed = n;
    Result<Dataset2D> data = GenerateGaussianMixture(gen);
    CLUSTAGG_CHECK_OK(data.status());

    Stopwatch watch;
    // Cap Lloyd iterations: the inputs only need to be reasonable, and
    // the paper's subject here is the aggregation time, not k-means.
    KMeansEnsembleOptions sweep;
    sweep.max_iterations = 25;
    sweep.seed = 1000;
    const ClusteringSet inputs =
        KMeansEnsemble(data->points, sweep).value();
    const double kmeans_seconds = watch.ElapsedSeconds();

    SamplingOptions options;
    options.sample_size = 1000;
    options.seed = 3;
    SamplingStats stats;
    const AgglomerativeClusterer base;
    watch.Restart();
    Result<Clustering> result =
        SamplingAggregate(inputs, base, options, &stats);
    CLUSTAGG_CHECK_OK(result.status());
    const double aggregate_seconds = watch.ElapsedSeconds();

    std::size_t large = 0;
    for (std::size_t s : result->ClusterSizes()) {
      if (s >= data->size() / 20) ++large;
    }
    table.AddRow({std::to_string(data->size()),
                  TablePrinter::Fixed(kmeans_seconds, 2),
                  TablePrinter::Fixed(aggregate_seconds, 2),
                  TablePrinter::Fixed(stats.sample_phase_seconds, 2),
                  TablePrinter::Fixed(stats.assign_phase_seconds, 2),
                  TablePrinter::Fixed(stats.recluster_phase_seconds, 2),
                  std::to_string(result->NumClusters()),
                  std::to_string(large)});
  }

  std::ostringstream os;
  table.Print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf(
      "\nReading: aggregate time should scale linearly with the number "
      "of points (the assignment phase dominates), and 'large clusters' "
      "should be 5 at every size — the paper's Figure 5 (right). The "
      "extra small clusters hold background-noise points (outliers), as "
      "in Figure 4.\n");
  return 0;
}
