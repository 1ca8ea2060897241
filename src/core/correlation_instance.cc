#include "core/correlation_instance.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/instrumentation.h"

namespace clustagg {

Result<CorrelationInstance> CorrelationInstance::FromDistances(
    SymmetricMatrix<float> distances) {
  for (float x : distances.packed()) {
    if (!(x >= 0.0f && x <= 1.0f)) {
      return Status::InvalidArgument(
          "correlation distances must lie in [0, 1], got " +
          std::to_string(x));
    }
  }
  return FromSource(
      std::make_shared<const DenseDistanceSource>(std::move(distances)));
}

Result<CorrelationInstance> CorrelationInstance::Build(
    const ClusteringSet& input, const MissingValueOptions& missing,
    const DistanceSourceOptions& options) {
  Result<std::shared_ptr<const DistanceSource>> source =
      BuildDistanceSource(input, missing, options);
  if (!source.ok()) return source.status();
  return CorrelationInstance(std::move(source).value(), options.num_threads);
}

Result<CorrelationInstance> CorrelationInstance::BuildSubset(
    const ClusteringSet& input, const std::vector<std::size_t>& subset,
    const MissingValueOptions& missing, const DistanceSourceOptions& options) {
  return Build(input.Restrict(subset), missing, options);
}

Result<CorrelationInstance> CorrelationInstance::BuildFolded(
    const ClusteringSet& input, const SignatureIndex& fold,
    const MissingValueOptions& missing, const DistanceSourceOptions& options) {
  CLUSTAGG_CHECK(fold.num_objects() == input.num_objects());
  Result<std::shared_ptr<const DistanceSource>> source = BuildDistanceSource(
      input.Restrict(fold.representatives()), missing, options);
  if (!source.ok()) return source.status();
  return CorrelationInstance(std::move(source).value(), options.num_threads,
                             fold.multiplicities());
}

CorrelationInstance CorrelationInstance::FromSource(
    std::shared_ptr<const DistanceSource> source, std::size_t num_threads,
    std::vector<double> multiplicities) {
  if (!multiplicities.empty() && source != nullptr) {
    CLUSTAGG_CHECK(multiplicities.size() == source->size());
  }
  return CorrelationInstance(std::move(source), num_threads,
                             std::move(multiplicities));
}

std::vector<double> CorrelationInstance::Weights() const {
  return folded() ? multiplicities_ : std::vector<double>(size(), 1.0);
}

Result<double> CorrelationInstance::Cost(const Clustering& candidate,
                                         const RunContext& run) const {
  const std::size_t n = size();
  if (candidate.size() != n) {
    return Status::InvalidArgument(
        "candidate clustering covers " + std::to_string(candidate.size()) +
        " objects, expected " + std::to_string(n));
  }
  if (candidate.HasMissing()) {
    return Status::InvalidArgument(
        "candidate clustering must be complete (no missing labels)");
  }
  if (n == 0) return 0.0;
  TelemetryCount(run.telemetry(), "instance.cost_evals");

  // Each row's pairs (u, v > u) are summed sequentially in ascending v
  // into row_cost[u]; the rows are then reduced in ascending u. Both
  // orders are fixed, so the result is bit-identical for every thread
  // count and backend. Pair (u, v) is weighted by w[u] * w[v]: a folded
  // pair stands for that many original pairs at the same distance.
  const std::vector<double> w = Weights();
  std::vector<double> row_cost(n, 0.0);
  const bool completed = ForEachUpperRow(run, [&](std::size_t u, auto tail) {
    const Clustering::Label lu = candidate.label(u);
    const double wu = w[u];
    double cost = 0.0;
    for (std::size_t v = u + 1; v < n; ++v) {
      const double x = tail[v - u - 1];
      cost += (lu == candidate.label(v) ? x : 1.0 - x) * (wu * w[v]);
    }
    row_cost[u] = cost;
  });
  if (!completed) return run.InterruptStatus();
  double cost = 0.0;
  for (double c : row_cost) cost += c;
  return cost;
}

double CorrelationInstance::LowerBound() const {
  Result<double> bound = LowerBound(RunContext());
  // The unlimited context never interrupts, and nothing else fails.
  CLUSTAGG_CHECK(bound.ok());
  return *bound;
}

Result<double> CorrelationInstance::LowerBound(const RunContext& run) const {
  const std::size_t n = size();
  if (n == 0) return 0.0;
  const std::vector<double> w = Weights();
  std::vector<double> row_bound(n, 0.0);
  const bool completed = ForEachUpperRow(run, [&](std::size_t u, auto tail) {
    const double wu = w[u];
    double bound = 0.0;
    for (std::size_t v = u + 1; v < n; ++v) {
      const double x = tail[v - u - 1];
      bound += std::min(x, 1.0 - x) * (wu * w[v]);
    }
    row_bound[u] = bound;
  });
  if (!completed) return run.InterruptStatus();
  double bound = 0.0;
  for (double b : row_bound) bound += b;
  return bound;
}

std::vector<double> CorrelationInstance::TotalIncidentWeights() const {
  Result<std::vector<double>> weights = TotalIncidentWeights(RunContext());
  // The unlimited context never interrupts, and nothing else fails.
  CLUSTAGG_CHECK(weights.ok());
  return std::move(weights).value();
}

Result<std::vector<double>> CorrelationInstance::TotalIncidentWeights(
    const RunContext& run) const {
  const std::size_t n = size();
  std::vector<double> weights(n, 0.0);
  if (n == 0) return weights;
  // weights[u] sums its full row in ascending v (X_uu = 0 adds nothing).
  // Column v is weighted by w[v]: a folded neighbor stands for that many
  // originals at the same distance.
  const std::vector<double> w = Weights();
  const bool completed =
      ForEachRow(run, [&](std::size_t u, std::span<const double> row) {
        double total = 0.0;
        for (std::size_t v = 0; v < n; ++v) total += w[v] * row[v];
        weights[u] = total;
      });
  if (!completed) return run.InterruptStatus();
  return weights;
}

bool CorrelationInstance::SatisfiesTriangleInequality(
    double tolerance) const {
  const std::size_t n = size();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (v == u) continue;
      for (std::size_t w = u + 1; w < n; ++w) {
        if (w == v) continue;
        if (distance(u, w) > distance(u, v) + distance(v, w) + tolerance) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace clustagg
