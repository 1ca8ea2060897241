#include "core/correlation_instance.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "core/instrumentation.h"

namespace clustagg {

namespace {

/// Threads worth spawning for this instance's row-parallel reductions.
std::size_t ReductionThreads(std::size_t rows, std::size_t requested) {
  return EffectiveRowThreads(rows, ResolveThreadCount(requested));
}

/// Scratch rows, one per thread, for backends without O(1) row access.
std::vector<std::vector<double>> ThreadRows(std::size_t threads,
                                            std::size_t n) {
  return std::vector<std::vector<double>>(threads, std::vector<double>(n));
}

/// The interrupt status after ParallelForRowsCancellable returned false.
Status InterruptStatus(const RunContext& run) {
  const RunOutcome outcome = run.Poll();
  return outcome == RunOutcome::kConverged
             ? Status::DeadlineExceeded("run interrupted")
             : run.StopStatus(outcome);
}

}  // namespace

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
  // count and backend. Folded instances weight pair (u, v) by
  // mult[u] * mult[v]: each folded pair stands for that many original
  // pairs at the same distance.
  const double* mult =
      multiplicities_.empty() ? nullptr : multiplicities_.data();
  std::vector<double> row_cost(n, 0.0);
  const std::size_t threads = ReductionThreads(n, num_threads_);
  bool completed;
  if (dense_ != nullptr) {
    const std::vector<float>& packed = dense_->packed();
    completed = ParallelForRowsCancellable(
        n, threads, run, [&](std::size_t u, std::size_t) {
          if (u + 1 >= n) return;
          const float* tail = packed.data() + dense_->PackedIndex(u, u + 1);
          const Clustering::Label lu = candidate.label(u);
          double cost = 0.0;
          if (mult == nullptr) {
            for (std::size_t v = u + 1; v < n; ++v) {
              const double x = tail[v - u - 1];
              cost += lu == candidate.label(v) ? x : 1.0 - x;
            }
          } else {
            const double wu = mult[u];
            for (std::size_t v = u + 1; v < n; ++v) {
              const double x = tail[v - u - 1];
              cost += (lu == candidate.label(v) ? x : 1.0 - x) *
                      (wu * mult[v]);
            }
          }
          row_cost[u] = cost;
        });
  } else {
    std::vector<std::vector<double>> rows = ThreadRows(threads, n);
    completed = ParallelForRowsCancellable(
        n, threads, run, [&](std::size_t u, std::size_t tid) {
          if (u + 1 >= n) return;
          std::vector<double>& row = rows[tid];
          source_->FillRow(u, row);
          const Clustering::Label lu = candidate.label(u);
          double cost = 0.0;
          if (mult == nullptr) {
            for (std::size_t v = u + 1; v < n; ++v) {
              const double x = row[v];
              cost += lu == candidate.label(v) ? x : 1.0 - x;
            }
          } else {
            const double wu = mult[u];
            for (std::size_t v = u + 1; v < n; ++v) {
              const double x = row[v];
              cost += (lu == candidate.label(v) ? x : 1.0 - x) *
                      (wu * mult[v]);
            }
          }
          row_cost[u] = cost;
        });
  }
  if (!completed) return InterruptStatus(run);
  double cost = 0.0;
  for (double c : row_cost) cost += c;
  return cost;
}

double CorrelationInstance::LowerBound() const {
  Result<double> bound = LowerBound(RunContext());
  CLUSTAGG_CHECK(bound.ok());
  return *bound;
}

Result<double> CorrelationInstance::LowerBound(const RunContext& run) const {
  const std::size_t n = size();
  if (n == 0) return 0.0;
  const double* mult =
      multiplicities_.empty() ? nullptr : multiplicities_.data();
  std::vector<double> row_bound(n, 0.0);
  const std::size_t threads = ReductionThreads(n, num_threads_);
  bool completed;
  if (dense_ != nullptr) {
    const std::vector<float>& packed = dense_->packed();
    completed = ParallelForRowsCancellable(
        n, threads, run, [&](std::size_t u, std::size_t) {
          if (u + 1 >= n) return;
          const float* tail = packed.data() + dense_->PackedIndex(u, u + 1);
          double bound = 0.0;
          if (mult == nullptr) {
            for (std::size_t v = u + 1; v < n; ++v) {
              const float x = tail[v - u - 1];
              bound += std::min<double>(x, 1.0 - static_cast<double>(x));
            }
          } else {
            const double wu = mult[u];
            for (std::size_t v = u + 1; v < n; ++v) {
              const float x = tail[v - u - 1];
              bound += std::min<double>(x, 1.0 - static_cast<double>(x)) *
                       (wu * mult[v]);
            }
          }
          row_bound[u] = bound;
        });
  } else {
    std::vector<std::vector<double>> rows = ThreadRows(threads, n);
    completed = ParallelForRowsCancellable(
        n, threads, run, [&](std::size_t u, std::size_t tid) {
          if (u + 1 >= n) return;
          std::vector<double>& row = rows[tid];
          source_->FillRow(u, row);
          double bound = 0.0;
          if (mult == nullptr) {
            for (std::size_t v = u + 1; v < n; ++v) {
              bound += std::min(row[v], 1.0 - row[v]);
            }
          } else {
            const double wu = mult[u];
            for (std::size_t v = u + 1; v < n; ++v) {
              bound += std::min(row[v], 1.0 - row[v]) * (wu * mult[v]);
            }
          }
          row_bound[u] = bound;
        });
  }
  if (!completed) return InterruptStatus(run);
  double bound = 0.0;
  for (double b : row_bound) bound += b;
  return bound;
}

std::vector<double> CorrelationInstance::TotalIncidentWeights() const {
  Result<std::vector<double>> weights = TotalIncidentWeights(RunContext());
  CLUSTAGG_CHECK(weights.ok());
  return std::move(weights).value();
}

Result<std::vector<double>> CorrelationInstance::TotalIncidentWeights(
    const RunContext& run) const {
  const std::size_t n = size();
  std::vector<double> weights(n, 0.0);
  if (n == 0) return weights;
  // weights[u] sums its full row in ascending v, the same association
  // order the serial packed scan produced (pairs (v, u), v < u, arrive
  // before pairs (u, v), v > u). Folded instances weight column v by
  // mult[v]: each folded neighbor stands for that many originals at the
  // same distance.
  const double* mult =
      multiplicities_.empty() ? nullptr : multiplicities_.data();
  const std::size_t threads = ReductionThreads(n, num_threads_);
  bool completed;
  if (dense_ != nullptr) {
    const float* packed = dense_->packed().data();
    completed = ParallelForRowsCancellable(
        n, threads, run, [&](std::size_t u, std::size_t) {
          double total = 0.0;
          // Column u of the strict upper triangle by packed stride (see
          // DenseDistanceSource::FillRow): same values, same ascending-v
          // order, one addition per element instead of a packed-index
          // multiply.
          std::size_t idx = u - 1;  // PackedIndex(0, u) when u > 0
          if (mult == nullptr) {
            for (std::size_t v = 0; v < u; ++v) {
              total += packed[idx];
              idx += n - v - 2;
            }
            if (u + 1 < n) {
              const float* tail = packed + dense_->PackedIndex(u, u + 1);
              for (std::size_t v = u + 1; v < n; ++v) {
                total += tail[v - u - 1];
              }
            }
          } else {
            for (std::size_t v = 0; v < u; ++v) {
              total += mult[v] * packed[idx];
              idx += n - v - 2;
            }
            if (u + 1 < n) {
              const float* tail = packed + dense_->PackedIndex(u, u + 1);
              for (std::size_t v = u + 1; v < n; ++v) {
                total += mult[v] * tail[v - u - 1];
              }
            }
          }
          weights[u] = total;
        });
  } else {
    std::vector<std::vector<double>> rows = ThreadRows(threads, n);
    completed = ParallelForRowsCancellable(
        n, threads, run, [&](std::size_t u, std::size_t tid) {
          std::vector<double>& row = rows[tid];
          source_->FillRow(u, row);
          double total = 0.0;
          if (mult == nullptr) {
            for (std::size_t v = 0; v < n; ++v) total += row[v];
          } else {
            for (std::size_t v = 0; v < n; ++v) total += mult[v] * row[v];
          }
          weights[u] = total;
        });
  }
  if (!completed) return InterruptStatus(run);
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
