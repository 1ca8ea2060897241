// Table 2 reproduction: clustering categorical data — Votes.
//
// The paper's Table 2 compares the five aggregation algorithms against
// the class labels, the per-pair lower bound, and the ROCK / LIMBO
// baselines on the UCI Congressional Votes dataset (435 rows, 16 binary
// attributes, 288 missing values). This harness runs the same comparison
// on the Votes-like synthetic table (same schema and qualitative
// structure; see DESIGN.md §4 for the substitution note).
//
// Expected shape (paper): every aggregation algorithm settles on k = 2-3
// on its own with E_C around 11-15%; LOCALSEARCH attains the lowest E_D
// of the aggregators; the baselines need k as input and score a similar
// E_C but a worse E_D (they do not optimize it).

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace clustagg;
  using namespace clustagg::bench;

  Result<SyntheticCategoricalData> data = MakeVotesLike(/*seed=*/42);
  CLUSTAGG_CHECK_OK(data.status());
  const CategoricalTable& table = data->table;
  std::printf("Table 2: Votes-like dataset (%zu rows, %zu attributes, "
              "%zu missing values)\n", table.num_rows(),
              table.num_attributes(), table.CountMissing());

  Result<ClusteringSet> input = AttributeClusterings(table);
  CLUSTAGG_CHECK_OK(input.status());
  const std::vector<std::int32_t>& classes = table.class_labels();

  std::vector<TableRow> rows;
  rows.push_back(ScoreRow("Class labels", ClassLabelClustering(classes),
                          *input, classes, 0.0));

  for (TableRow& row : RunAggregationRows(*input, classes)) {
    rows.push_back(std::move(row));
  }

  // Baselines at the k the aggregators discovered (k = 2), with the
  // thresholds from the original papers adapted to this data.
  {
    RockOptions rock;
    // The paper uses theta = 0.73 on real Votes; the synthetic mavericks
    // are noisier than real defectors, so the threshold that gives ROCK
    // a connected neighbor graph is lower here (same calibration step
    // Guha et al. describe).
    rock.theta = 0.45;
    rock.k = 2;
    Stopwatch watch;
    Result<Clustering> c = RockCluster(table, rock);
    CLUSTAGG_CHECK_OK(c.status());
    rows.push_back(ScoreRow("ROCK (t=0.45,k=2)", *c, *input, classes,
                            watch.ElapsedSeconds()));
  }
  {
    LimboOptions limbo;
    limbo.k = 2;
    limbo.phi = 0.0;
    Stopwatch watch;
    Result<Clustering> c = LimboCluster(table, limbo);
    CLUSTAGG_CHECK_OK(c.status());
    rows.push_back(ScoreRow("LIMBO (phi=0,k=2)", *c, *input, classes,
                            watch.ElapsedSeconds()));
  }

  // Extension algorithms (not in the paper's table; see docs/algorithms.md).
  for (AggregationAlgorithm algorithm :
       {AggregationAlgorithm::kPivot, AggregationAlgorithm::kMajority}) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    Stopwatch watch;
    Result<AggregationResult> result = Aggregate(*input, options);
    CLUSTAGG_CHECK_OK(result.status());
    std::string name = "* ";
    name += AggregationAlgorithmName(algorithm);
    rows.push_back(ScoreRow(name, result->clustering, *input, classes,
                            watch.ElapsedSeconds()));
  }

  const double lower_bound =
      CorrelationInstance::DisagreementBound(*input).value();
  PrintComparisonTable("Table 2: Votes", rows, lower_bound);
  std::printf(
      "\nReading: aggregators choose k themselves (paper: k=2-3, E_C "
      "11-15%%); LOCALSEARCH should have the lowest E_D; 'Class labels' "
      "shows that optimizing agreement (E_D) is not the same objective "
      "as class purity. Absolute E_D is higher than the paper's because "
      "the synthetic mavericks are noisier than real defectors; the "
      "ordering is what carries over. Starred rows are this library's "
      "extension algorithms, outside the paper's table.\n");
  return 0;
}
