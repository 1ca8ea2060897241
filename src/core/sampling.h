#ifndef CLUSTAGG_CORE_SAMPLING_H_
#define CLUSTAGG_CORE_SAMPLING_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "core/clusterer.h"
#include "core/clustering.h"
#include "core/clustering_set.h"
#include "core/distance_source.h"

namespace clustagg {

/// Options for the SAMPLING meta-algorithm.
struct SamplingOptions {
  /// Number of objects sampled uniformly at random for the expensive
  /// aggregation phase. 0 picks the Chernoff-guided default
  /// `sample_log_factor * ln(n)`, which hits every constant-fraction
  /// cluster with high probability (Section 4.1).
  std::size_t sample_size = 0;

  /// Multiplier for the ln(n) default; larger values trade running time
  /// for a better chance of sampling small clusters.
  double sample_log_factor = 50.0;

  /// Seed for the uniform sample.
  std::uint64_t seed = 1;

  /// Re-run the base algorithm on the singleton clusters produced by the
  /// assignment phase (the paper's post-processing; without it small
  /// clusters shatter into singletons).
  bool recluster_singletons = true;

  /// Missing-value policy used when computing on-the-fly distances.
  MissingValueOptions missing;

  /// Backend and thread count for the quadratic sample (and singleton
  /// re-clustering) instances. The sample is small by design, so dense is
  /// almost always right; the knob exists so a caller can run the whole
  /// pipeline matrix-free.
  DistanceSourceOptions source;

  /// Fold duplicate signatures inside the sampled (and singleton
  /// re-clustering) sub-instances: objects of the subset whose full
  /// m-label tuple is identical are clustered as one weighted
  /// representative and expanded back afterwards (see SignatureIndex).
  /// Exact; a no-op when every subset member is unique.
  bool fold = false;
};

/// Diagnostics from a SAMPLING run (used by the Figure 5 benches).
struct SamplingStats {
  std::size_t sample_size = 0;
  std::size_t singletons_after_assignment = 0;
  double sample_phase_seconds = 0.0;
  double assign_phase_seconds = 0.0;
  double recluster_phase_seconds = 0.0;
};

/// The SAMPLING meta-algorithm (Section 4.1): aggregate a uniform sample
/// with `base`, assign every non-sampled object to the cluster of the
/// sample minimizing the correlation cost (or to a singleton), then
/// collect all singletons and aggregate them again with `base`. Under
/// kRandomCoin the assignment reads a cost table of k * sum_i (L_i + 2)
/// doubles (k sample clusters, L_i <= sample_size distinct sample labels
/// of clustering i; at most 8 * m * (sample_size + 2) * sample_size
/// bytes) built in O(m * sample_size + k * sum_i L_i), then takes O(m * k)
/// per object: one hashed label lookup and one k-wide add per input.
/// kIgnore pays O(sample_size * m) per object. Only the sample pays the
/// quadratic cost. A cost table too large to allocate is
/// ResourceExhausted.
Result<Clustering> SamplingAggregate(const ClusteringSet& input,
                                     const CorrelationClusterer& base,
                                     const SamplingOptions& options = {},
                                     SamplingStats* stats = nullptr);

/// Budgeted SAMPLING: `run` is threaded into the sample instance build,
/// the base algorithm's runs, the assignment loop (polled every few
/// objects), and the singleton re-clustering. Whenever the budget fires
/// the pipeline degrades instead of erroring: objects not yet assigned
/// become singletons and the re-clustering phase is skipped; the returned
/// outcome records the earliest interruption.
Result<ClustererRun> SamplingAggregateControlled(
    const ClusteringSet& input, const CorrelationClusterer& base,
    const RunContext& run, const SamplingOptions& options = {},
    SamplingStats* stats = nullptr);

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_SAMPLING_H_
