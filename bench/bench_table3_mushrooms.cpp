// Table 3 and Table 1 reproduction: clustering categorical data —
// Mushrooms.
//
// Table 3 compares the aggregation algorithms with ROCK and LIMBO on UCI
// Mushrooms (8124 rows, 22 attributes, 2480 missing values); Table 1
// shows the confusion matrix of the AGGLOMERATIVE clustering against the
// poisonous/edible classes. This harness reproduces both on the
// Mushrooms-like synthetic table (same schema; 9 planted species
// groups). Expected shape (paper): aggregators pick k around 7-10 with
// E_C near 10%; BESTCLUSTERING has low E_D but terrible E_C; baselines
// at the suggested k values reach comparable or better E_C (LIMBO
// shines) but worse E_D.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_common.h"

int main() {
  using namespace clustagg;
  using namespace clustagg::bench;

  Result<SyntheticCategoricalData> data = MakeMushroomsLike(/*seed=*/42);
  CLUSTAGG_CHECK_OK(data.status());
  const CategoricalTable& table = data->table;
  std::printf("Table 3: Mushrooms-like dataset (%zu rows, %zu attributes, "
              "%zu missing values)\n", table.num_rows(),
              table.num_attributes(), table.CountMissing());

  Result<ClusteringSet> input = AttributeClusterings(table);
  CLUSTAGG_CHECK_OK(input.status());
  const std::vector<std::int32_t>& classes = table.class_labels();

  std::vector<TableRow> rows;
  rows.push_back(ScoreRow("Class labels", ClassLabelClustering(classes),
                          *input, classes, 0.0));

  Clustering agglomerative_result;
  {
    std::vector<TableRow> agg_rows = RunAggregationRows(*input, classes);
    // Keep the AGGLOMERATIVE clustering for the Table 1 confusion matrix.
    AggregatorOptions options;
    options.algorithm = AggregationAlgorithm::kAgglomerative;
    Result<AggregationResult> agglo = Aggregate(*input, options);
    CLUSTAGG_CHECK_OK(agglo.status());
    agglomerative_result = std::move(agglo->clustering);
    for (TableRow& row : agg_rows) rows.push_back(std::move(row));
  }

  // Baselines at the paper's suggested k values. ROCK runs on a sample
  // (as in the original ROCK paper) because link counting is quadratic;
  // theta is 0.75 rather than the paper's 0.8 because the synthetic rows
  // are slightly less duplicated than real Mushrooms tuples.
  for (std::size_t k : {2u, 7u, 9u}) {
    RockOptions rock;
    rock.theta = 0.75;
    rock.k = k;
    rock.sample_size = 1500;
    rock.seed = 7;
    Stopwatch watch;
    Result<Clustering> c = RockCluster(table, rock);
    CLUSTAGG_CHECK_OK(c.status());
    std::string name = "ROCK (t=0.75,k=";
    name += std::to_string(k);
    name += ")";
    rows.push_back(ScoreRow(name, *c, *input, classes,
                            watch.ElapsedSeconds()));
  }
  for (std::size_t k : {2u, 7u, 9u}) {
    LimboOptions limbo;
    limbo.k = k;
    limbo.phi = 0.3;
    limbo.max_summaries = 400;
    Stopwatch watch;
    Result<Clustering> c = LimboCluster(table, limbo);
    CLUSTAGG_CHECK_OK(c.status());
    std::string name = "LIMBO (phi=0.3,k=";
    name += std::to_string(k);
    name += ")";
    rows.push_back(ScoreRow(name, *c, *input, classes,
                            watch.ElapsedSeconds()));
  }

  PrintComparisonTable("Table 3: Mushrooms", rows,
                       DisagreementLowerBound(*input));

  // ------------------------------------------------ Table 1 companion
  std::printf("\n=== Table 1: confusion matrix, AGGLOMERATIVE on "
              "Mushrooms ===\n");
  const Clustering clusters = agglomerative_result.Normalized();
  const std::vector<std::size_t> sizes = clusters.ClusterSizes();
  // Show the largest clusters (the paper's table has 7 columns); fold
  // any long tail of small clusters into a "rest" column.
  std::vector<std::size_t> order(sizes.size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sizes[a] > sizes[b];
  });
  const std::size_t shown = std::min<std::size_t>(order.size(), 12);
  std::vector<std::size_t> printed_column(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    printed_column[order[i]] = std::min(i, shown);
  }
  // Class id -> counts per printed column ("rest" last), only for the
  // classes that occur, in ascending class id.
  std::map<std::int32_t, std::vector<std::size_t>> counts;
  for (std::size_t v = 0; v < clusters.size(); ++v) {
    std::vector<std::size_t>& row =
        counts.try_emplace(classes[v], shown + 1, 0).first->second;
    ++row[printed_column[static_cast<std::size_t>(clusters.label(v))]];
  }
  std::vector<std::string> header = {"class"};
  for (std::size_t i = 0; i < shown; ++i) {
    std::string col = "c";
    col += std::to_string(i + 1);
    header.push_back(std::move(col));
  }
  if (shown < order.size()) header.emplace_back("rest");
  TablePrinter confusion(header);
  const char* class_names[] = {"Poisonous", "Edible"};
  for (const auto& [cls, class_counts] : counts) {
    std::vector<std::string> row = {cls < 2 ? class_names[cls]
                                            : std::to_string(cls)};
    for (std::size_t i = 0; i < shown; ++i) {
      row.push_back(std::to_string(class_counts[i]));
    }
    if (shown < order.size()) {
      row.push_back(std::to_string(class_counts[shown]));
    }
    confusion.AddRow(std::move(row));
  }
  std::ostringstream os;
  confusion.Print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf(
      "\nReading: as in the paper's Table 1, most clusters should be "
      "pure (all-poisonous or all-edible), with at most a couple of "
      "mixed ones.\n");
  return 0;
}
