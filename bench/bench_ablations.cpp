// Ablation benches for the design choices called out in DESIGN.md §5:
//
//  A. BALLS alpha sweep — the theory constant 1/4 vs the paper's
//     practical 2/5 (and neighbors): cost and cluster-count trade-off.
//  B. BALLS vertex-ordering heuristic — sorting by total incident weight
//     on vs off.
//  C. LOCALSEARCH initialization — singletons vs one-cluster vs random,
//     and LOCALSEARCH as a post-processing refinement of each other
//     algorithm (the paper recommends it).
//  D. Empirical approximation ratios against the exact optimum on small
//     random instances (Theorem 1 says BALLS <= 3; observed ratios are
//     far better).

#include <cstdio>

#include "bench_common.h"

namespace {

using namespace clustagg;

ClusteringSet RandomInput(std::size_t n, std::size_t m, std::size_t k,
                          uint64_t seed, double noise) {
  Rng rng(seed);
  // Planted groups + per-clustering noise, so instances have structure.
  std::vector<Clustering::Label> planted(n);
  for (std::size_t v = 0; v < n; ++v) {
    planted[v] = static_cast<Clustering::Label>(v % k);
  }
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(planted);
    for (auto& l : labels) {
      if (rng.NextBernoulli(noise)) {
        l = static_cast<Clustering::Label>(rng.NextBounded(k + 2));
      }
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

}  // namespace

int main() {
  using namespace clustagg;
  using namespace clustagg::bench;

  // ------------------------------------------------ A: alpha sweep
  std::printf("=== Ablation A: BALLS alpha sweep ===\n");
  {
    const ClusteringSet input = RandomInput(400, 8, 6, 11, 0.25);
    const CorrelationInstance instance =
        CorrelationInstance::Build(input).value();
    TablePrinter table({"alpha", "clusters", "cost d(C)",
                        "cost / lower bound"});
    const double lb = instance.LowerBound();
    for (double alpha : {0.1, 0.25, 0.3, 0.4, 0.5}) {
      BallsOptions options;
      options.alpha = alpha;
      Result<Clustering> c = BallsClusterer(options).Run(instance);
      CLUSTAGG_CHECK_OK(c.status());
      const double cost = *instance.Cost(*c);
      table.AddRow({TablePrinter::Fixed(alpha, 2),
                    std::to_string(c->NumClusters()),
                    TablePrinter::Fixed(cost, 0),
                    TablePrinter::Fixed(cost / lb, 3)});
    }
    std::ostringstream os;
    table.Print(os);
    std::fputs(os.str().c_str(), stdout);
    std::printf("Reading: alpha=0.25 (the 3-approximation constant) "
                "over-fragments; the paper's practical 0.4 gets close to "
                "the lower bound.\n\n");
  }

  // ------------------------------------- B: vertex-ordering heuristic
  std::printf("=== Ablation B: BALLS vertex ordering ===\n");
  {
    TablePrinter table({"seed", "sorted cost", "unsorted cost",
                        "sorted k", "unsorted k"});
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const ClusteringSet input = RandomInput(300, 6, 5, seed, 0.3);
      const CorrelationInstance instance =
          CorrelationInstance::Build(input).value();
      BallsOptions sorted;
      sorted.alpha = 0.4;
      sorted.sort_by_incident_weight = true;
      BallsOptions unsorted = sorted;
      unsorted.sort_by_incident_weight = false;
      Result<Clustering> cs = BallsClusterer(sorted).Run(instance);
      Result<Clustering> cu = BallsClusterer(unsorted).Run(instance);
      CLUSTAGG_CHECK_OK(cs.status());
      CLUSTAGG_CHECK_OK(cu.status());
      table.AddRow({std::to_string(seed),
                    TablePrinter::Fixed(*instance.Cost(*cs), 0),
                    TablePrinter::Fixed(*instance.Cost(*cu), 0),
                    std::to_string(cs->NumClusters()),
                    std::to_string(cu->NumClusters())});
    }
    std::ostringstream os;
    table.Print(os);
    std::fputs(os.str().c_str(), stdout);
    std::printf("Reading: on unstructured random instances the two "
                "orderings land within ~1%% of each other; the paper's "
                "sorted heuristic pays off on structured data (cheap "
                "insurance, never a large loss).\n\n");
  }

  // ---------------------------- C: LOCALSEARCH init and refinement
  std::printf("=== Ablation C: LOCALSEARCH initialization & "
              "refinement ===\n");
  {
    const ClusteringSet input = RandomInput(350, 7, 5, 23, 0.3);
    const CorrelationInstance instance =
        CorrelationInstance::Build(input).value();
    TablePrinter table({"start", "cost before", "cost after", "k after",
                        "time(s)"});
    // Stand-alone starts.
    for (auto [init, name] :
         {std::pair{LocalSearchOptions::Init::kSingletons, "singletons"},
          std::pair{LocalSearchOptions::Init::kSingleCluster,
                    "one cluster"},
          std::pair{LocalSearchOptions::Init::kRandom, "random"}}) {
      LocalSearchOptions options;
      options.init = init;
      options.seed = 9;
      Stopwatch watch;
      Result<Clustering> c = LocalSearchClusterer(options).Run(instance);
      CLUSTAGG_CHECK_OK(c.status());
      table.AddRow({name, "-", TablePrinter::Fixed(*instance.Cost(*c), 0),
                    std::to_string(c->NumClusters()),
                    TablePrinter::Fixed(watch.ElapsedSeconds(), 2)});
    }
    // ANNEALING from scratch (the Filkov-Skiena metaheuristic).
    {
      AnnealingOptions options;
      options.seed = 9;
      Stopwatch watch;
      Result<Clustering> c = AnnealingClusterer(options).Run(instance);
      CLUSTAGG_CHECK_OK(c.status());
      table.AddRow({"annealing", "-",
                    TablePrinter::Fixed(*instance.Cost(*c), 0),
                    std::to_string(c->NumClusters()),
                    TablePrinter::Fixed(watch.ElapsedSeconds(), 2)});
    }
    // As a refinement of the other algorithms.
    const BallsClusterer balls(BallsOptions{.alpha = 0.4,
                                            .sort_by_incident_weight =
                                                true});
    const AgglomerativeClusterer agglomerative;
    const FurthestClusterer furthest;
    const LocalSearchClusterer refiner;
    const CorrelationClusterer* algorithms[] = {&balls, &agglomerative,
                                                &furthest};
    for (const CorrelationClusterer* algorithm : algorithms) {
      Result<Clustering> rough = algorithm->Run(instance);
      CLUSTAGG_CHECK_OK(rough.status());
      Stopwatch watch;
      Result<Clustering> refined = refiner.RunFrom(instance, *rough);
      CLUSTAGG_CHECK_OK(refined.status());
      std::string label = algorithm->name();
      label += " + LS";
      table.AddRow({label,
                    TablePrinter::Fixed(*instance.Cost(*rough), 0),
                    TablePrinter::Fixed(*instance.Cost(*refined), 0),
                    std::to_string(refined->NumClusters()),
                    TablePrinter::Fixed(watch.ElapsedSeconds(), 2)});
    }
    std::ostringstream os;
    table.Print(os);
    std::fputs(os.str().c_str(), stdout);
    std::printf("Reading: refinement never increases the cost; the paper "
                "notes LOCALSEARCH 'improves significantly the solutions "
                "found by the previous algorithms'.\n\n");
  }

  // ------------------------------ D: empirical approximation ratios
  std::printf("=== Ablation D: empirical approximation ratios (vs exact "
              "optimum, n=10) ===\n");
  {
    TablePrinter table({"algorithm", "mean ratio", "max ratio",
                        "proven bound"});
    struct Accum {
      double sum = 0.0;
      double max = 0.0;
      int count = 0;
      void Add(double r) {
        sum += r;
        max = std::max(max, r);
        ++count;
      }
    };
    Accum balls_acc, agglo_acc, furthest_acc, ls_acc, best_acc,
        pivot_acc, majority_acc;
    const int trials = 40;
    for (int t = 0; t < trials; ++t) {
      const ClusteringSet input = RandomInput(10, 5, 3, 100 + t, 0.35);
      const CorrelationInstance instance =
          CorrelationInstance::Build(input).value();
      Result<Clustering> opt = ExactClusterer().Run(instance);
      CLUSTAGG_CHECK_OK(opt.status());
      const double opt_cost = *instance.Cost(*opt);
      if (opt_cost <= 0.0) continue;
      auto ratio = [&](const Clustering& c) {
        return *instance.Cost(c) / opt_cost;
      };
      balls_acc.Add(ratio(*BallsClusterer().Run(instance)));
      agglo_acc.Add(ratio(*AgglomerativeClusterer().Run(instance)));
      furthest_acc.Add(ratio(*FurthestClusterer().Run(instance)));
      ls_acc.Add(ratio(*LocalSearchClusterer().Run(instance)));
      pivot_acc.Add(ratio(*PivotClusterer().Run(instance)));
      majority_acc.Add(ratio(*MajorityClusterer().Run(instance)));
      best_acc.Add(BestClustering(input)->total_disagreements /
                   *input.TotalDisagreements(*opt));
    }
    auto add = [&](const char* name, const Accum& a, const char* bound) {
      table.AddRow({name, TablePrinter::Fixed(a.sum / a.count, 3),
                    TablePrinter::Fixed(a.max, 3), bound});
    };
    add("BALLS (a=0.25)", balls_acc, "3 (Theorem 1)");
    add("AGGLOMERATIVE", agglo_acc, "2 for m=3");
    add("FURTHEST", furthest_acc, "-");
    add("LOCALSEARCH", ls_acc, "-");
    add("CC-PIVOT (r=8)", pivot_acc, "5 expected");
    add("MAJORITY", majority_acc, "- (baseline)");
    add("BESTCLUSTERING", best_acc, "2(1-1/m) = 1.6");
    std::ostringstream os;
    table.Print(os);
    std::fputs(os.str().c_str(), stdout);
    std::printf("Reading: observed ratios sit far below the proven "
                "bounds; LOCALSEARCH is typically optimal on instances "
                "this small.\n\n");
  }

  // ------------------- E: random pivots vs the sorted-ball heuristic
  std::printf("=== Ablation E: CC-PIVOT (random pivots) vs BALLS (sorted "
              "+ alpha test) ===\n");
  {
    TablePrinter table({"seed", "BALLS(0.4) cost", "CC-PIVOT cost",
                        "MAJORITY cost", "lower bound"});
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const ClusteringSet input = RandomInput(300, 6, 5, 100 + seed, 0.3);
      const CorrelationInstance instance =
          CorrelationInstance::Build(input).value();
      BallsOptions balls_options;
      balls_options.alpha = 0.4;
      Result<Clustering> balls =
          BallsClusterer(balls_options).Run(instance);
      PivotOptions pivot_options;
      pivot_options.seed = seed;
      Result<Clustering> pivot =
          PivotClusterer(pivot_options).Run(instance);
      Result<Clustering> majority = MajorityClusterer().Run(instance);
      CLUSTAGG_CHECK_OK(balls.status());
      CLUSTAGG_CHECK_OK(pivot.status());
      CLUSTAGG_CHECK_OK(majority.status());
      table.AddRow({std::to_string(seed),
                    TablePrinter::Fixed(*instance.Cost(*balls), 0),
                    TablePrinter::Fixed(*instance.Cost(*pivot), 0),
                    TablePrinter::Fixed(*instance.Cost(*majority), 0),
                    TablePrinter::Fixed(instance.LowerBound(), 0)});
    }
    std::ostringstream os;
    table.Print(os);
    std::fputs(os.str().c_str(), stdout);
    std::printf("Reading: the two ball-growing strategies land close to "
                "each other; MAJORITY (single linkage on the consensus "
                "graph) pays for transitive chaining.\n\n");
  }

  // ---------------- F: missing-value policies (Section 2's two options)
  std::printf("=== Ablation F: missing-value policies on Votes-like data "
              "===\n");
  {
    TablePrinter table({"missing cells", "policy", "k", "E_C(%)"});
    for (std::size_t missing_cells : {288u, 1500u, 3000u}) {
      SyntheticCategoricalOptions gen;
      gen.num_rows = 435;
      gen.cardinalities.assign(16, 2);
      gen.num_latent_groups = 2;
      gen.group_to_class = {0, 1};
      gen.group_weights = {0.61, 0.39};
      gen.attribute_noise = 0.05;
      gen.maverick_fraction = 0.25;
      gen.informative_fraction = 0.85;
      gen.missing_cells = missing_cells;
      gen.seed = 42;
      Result<SyntheticCategoricalData> data = GenerateCategorical(gen);
      CLUSTAGG_CHECK_OK(data.status());
      Result<ClusteringSet> input = AttributeClusterings(data->table);
      CLUSTAGG_CHECK_OK(input.status());
      struct PolicyCase {
        const char* name;
        MissingValueOptions missing;
      };
      PolicyCase cases[3];
      cases[0].name = "coin p=0.5";
      cases[1].name = "coin p=0.9";
      cases[1].missing.coin_together_probability = 0.9;
      cases[2].name = "ignore";
      cases[2].missing.policy = MissingValuePolicy::kIgnore;
      for (const PolicyCase& pc : cases) {
        AggregatorOptions options;
        options.algorithm = AggregationAlgorithm::kLocalSearch;
        options.missing = pc.missing;
        Result<AggregationResult> result = Aggregate(*input, options);
        CLUSTAGG_CHECK_OK(result.status());
        Result<double> error = ClassificationError(
            result->clustering, data->table.class_labels());
        CLUSTAGG_CHECK_OK(error.status());
        table.AddRow({std::to_string(missing_cells), pc.name,
                      std::to_string(result->clustering.NumClusters()),
                      TablePrinter::Fixed(100.0 * *error, 1)});
      }
    }
    std::ostringstream os;
    table.Print(os);
    std::fputs(os.str().c_str(), stdout);
    std::printf("Reading: at realistic missing rates the two policies "
                "agree; at heavy missingness the neutral coin (p=0.5) "
                "stays stable while a biased coin (p=0.9) starts gluing "
                "unrelated rows together.\n");
  }
  return 0;
}
