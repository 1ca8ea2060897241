#ifndef CLUSTAGG_BENCH_BENCH_COMMON_H_
#define CLUSTAGG_BENCH_BENCH_COMMON_H_

// Shared helpers for the table/figure reproduction harnesses.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clustagg/clustagg.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/internal/packed_labels.h"

namespace clustagg::bench {

/// Telemetry dump mode requested via the CLUSTAGG_STATS environment
/// variable: "json", "table", or "" (disabled, the default). Any other
/// value is treated as "table".
inline const char* StatsMode() {
  static const char* mode = [] {
    const char* env = std::getenv("CLUSTAGG_STATS");
    if (env == nullptr || env[0] == '\0') return "";
    return std::strcmp(env, "json") == 0 ? "json" : "table";
  }();
  return mode;
}

/// Dumps one run's telemetry to stderr (so table output on stdout stays
/// machine-readable), prefixed with the run label.
inline void MaybeDumpStats(const std::string& label,
                           const Telemetry& telemetry) {
  const char* mode = StatsMode();
  if (mode[0] == '\0') return;
  std::fprintf(stderr, "--- stats: %s ---\n", label.c_str());
  if (std::strcmp(mode, "json") == 0) {
    std::fprintf(stderr, "%s\n", telemetry.ToJson().c_str());
  } else {
    std::ostringstream os;
    telemetry.PrintTable(os);
    std::fputs(os.str().c_str(), stderr);
  }
}

/// Minimal ordered JSON-object builder for the machine-readable
/// `BENCH_<name>.json` trajectory files: later PRs diff these against
/// their own runs to catch performance regressions, so keys must stay
/// stable and insertion-ordered. Values are numbers, strings, or nested
/// objects; no arrays (a trajectory entry is a flat record of metrics).
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return SetRaw(key, buf);
  }
  JsonObject& Set(const std::string& key, std::int64_t value) {
    return SetRaw(key, std::to_string(value));
  }
  JsonObject& Set(const std::string& key, std::size_t value) {
    return SetRaw(key, std::to_string(value));
  }
  JsonObject& Set(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return SetRaw(key, quoted);
  }
  JsonObject& Set(const std::string& key, const JsonObject& nested) {
    return SetRaw(key, nested.ToString());
  }

  /// Two-space indented; a nested object's lines shift with the field
  /// that holds it, so every depth renders aligned.
  std::string ToString() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "  \"" + fields_[i].first + "\": ";
      for (char c : fields_[i].second) {
        out += c;
        if (c == '\n') out += "  ";
      }
    }
    out += "\n}";
    return out;
  }

 private:
  JsonObject& SetRaw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// First "model name" line of /proc/cpuinfo, or "unknown" where the file
/// or the field does not exist (non-Linux, non-x86).
inline std::string CpuModelName() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  std::string model = "unknown";
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) break;
    ++colon;
    while (*colon == ' ' || *colon == '\t') ++colon;
    model = colon;
    while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
      model.pop_back();
    }
    break;
  }
  std::fclose(f);
  return model;
}

/// Host provenance record stamped into every BENCH_*.json: trajectory
/// numbers are only comparable against runs from the same hardware /
/// compiler / kernel-tier configuration, so the record travels with the
/// measurements instead of living in a README nobody updates.
inline JsonObject HostJson() {
  JsonObject host;
  host.Set("hardware_threads",
           static_cast<std::size_t>(std::thread::hardware_concurrency()));
  host.Set("cpu", CpuModelName());
  host.Set("compiler", std::string(__VERSION__));
#if defined(CLUSTAGG_BENCH_BUILD_TYPE)
  host.Set("build_type", std::string(CLUSTAGG_BENCH_BUILD_TYPE));
#endif
  // Set only by the end-to-end benchmark's second build
  // (e2ebench/CMakeLists.txt); the harnesses under bench/ read 0.
#if defined(CLUSTAGG_BENCH_NATIVE) && CLUSTAGG_BENCH_NATIVE
  host.Set("native", std::size_t{1});
#else
  host.Set("native", std::size_t{0});
#endif
  host.Set("kernel_tier",
           std::string(internal::PackedKernelTierName(
               internal::ActivePackedKernelTier())));
  host.Set("avx2_kernel",
           std::size_t{internal::Avx2KernelAvailable() ? 1u : 0u});
  return host;
}

/// Writes one trajectory record to `path` (overwriting) and echoes the
/// path to stderr so bench logs show where the machine-readable copy
/// went. Every record gets the HostJson() provenance appended under
/// "host".
inline void WriteBenchJson(const std::string& path, const JsonObject& obj) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  CLUSTAGG_CHECK(f != nullptr);
  JsonObject stamped = obj;
  stamped.Set("host", HostJson());
  const std::string text = stamped.ToString() + "\n";
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/// Ground-truth labels of a Dataset2D as a Clustering, giving each noise
/// point (-1) its own singleton id so that pair metrics treat noise as
/// unclustered.
inline Clustering TruthClustering(const Dataset2D& data) {
  std::vector<Clustering::Label> labels(data.size());
  Clustering::Label next_noise = 1000000;
  for (std::size_t i = 0; i < data.size(); ++i) {
    labels[i] = data.ground_truth[i] >= 0 ? data.ground_truth[i]
                                          : next_noise++;
  }
  return Clustering(std::move(labels));
}

/// One row of a Table 2/3-style comparison.
struct TableRow {
  std::string name;
  std::size_t k = 0;
  double classification_error = 0.0;
  double disagreement_error = 0.0;
  double seconds = 0.0;
};

inline void PrintComparisonTable(const std::string& title,
                                 const std::vector<TableRow>& rows,
                                 double lower_bound) {
  std::printf("\n=== %s ===\n", title.c_str());
  TablePrinter table({"algorithm", "k", "E_C(%)", "E_D", "time(s)"});
  table.AddRow({"Lower bound", "", "",
                TablePrinter::WithCommas(
                    static_cast<long long>(lower_bound)),
                ""});
  table.AddSeparator();
  for (const TableRow& row : rows) {
    table.AddRow({row.name, std::to_string(row.k),
                  TablePrinter::Fixed(100.0 * row.classification_error, 1),
                  TablePrinter::WithCommas(
                      static_cast<long long>(row.disagreement_error)),
                  TablePrinter::Fixed(row.seconds, 2)});
  }
  std::ostringstream os;
  table.Print(os);
  std::fputs(os.str().c_str(), stdout);
}

/// Scores one candidate clustering against the class labels and the
/// aggregation objective.
inline TableRow ScoreRow(const std::string& name, const Clustering& c,
                         const ClusteringSet& input,
                         const std::vector<std::int32_t>& class_labels,
                         double seconds) {
  TableRow row;
  row.name = name;
  row.k = c.NumClusters();
  Result<double> error = ClassificationError(c, class_labels);
  CLUSTAGG_CHECK_OK(error.status());
  row.classification_error = *error;
  Result<double> ed = input.TotalDisagreements(c);
  CLUSTAGG_CHECK_OK(ed.status());
  row.disagreement_error = *ed;
  row.seconds = seconds;
  return row;
}

/// Runs the paper's five aggregation algorithms (BALLS at the practical
/// alpha = 0.4, as in Tables 2 and 3) and returns one scored row each.
/// The distance backend and thread count are forwarded to every run so
/// the harnesses can compare dense vs. lazy and serial vs. parallel.
inline std::vector<TableRow> RunAggregationRows(
    const ClusteringSet& input,
    const std::vector<std::int32_t>& class_labels,
    DistanceBackend backend = DistanceBackend::kDense,
    std::size_t num_threads = 0) {
  std::vector<TableRow> rows;
  const struct {
    AggregationAlgorithm algorithm;
    const char* name;
  } configs[] = {
      {AggregationAlgorithm::kBestClustering, "BESTCLUSTERING"},
      {AggregationAlgorithm::kAgglomerative, "AGGLOMERATIVE"},
      {AggregationAlgorithm::kFurthest, "FURTHEST"},
      {AggregationAlgorithm::kBalls, "BALLS (a=0.4)"},
      {AggregationAlgorithm::kLocalSearch, "LOCALSEARCH"},
  };
  for (const auto& config : configs) {
    AggregatorOptions options;
    options.algorithm = config.algorithm;
    options.balls.alpha = 0.4;
    options.backend = backend;
    options.num_threads = num_threads;
    // One fresh sink per algorithm so CLUSTAGG_STATS=json|table dumps a
    // per-run phase/trace breakdown rather than a merged blur.
    Telemetry telemetry;
    if (StatsMode()[0] != '\0') {
      options.run = options.run.WithTelemetry(&telemetry);
    }
    Stopwatch watch;
    Result<AggregationResult> result = Aggregate(input, options);
    CLUSTAGG_CHECK_OK(result.status());
    rows.push_back(ScoreRow(config.name, result->clustering, input,
                            class_labels, watch.ElapsedSeconds()));
    MaybeDumpStats(config.name, telemetry);
  }
  return rows;
}

/// The class-label clustering itself (the tables' first row: E_C = 0 by
/// definition, E_D shows what the labels cost under the aggregation
/// objective).
inline Clustering ClassLabelClustering(
    const std::vector<std::int32_t>& class_labels) {
  std::vector<Clustering::Label> labels(class_labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = class_labels[i];
  }
  return Clustering(std::move(labels));
}

}  // namespace clustagg::bench

#endif  // CLUSTAGG_BENCH_BENCH_COMMON_H_
