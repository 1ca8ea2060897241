#include "core/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/correlation_instance.h"
#include "core/instrumentation.h"
#include "core/signature_index.h"

namespace clustagg {

namespace {

/// Precomputed per-(cluster, input-clustering) label histograms that turn
/// the assignment-phase sum M(v, C_j) = sum_{u in C_j} X_vu into an O(m)
/// lookup instead of an O(|C_j| * m) scan:
///   sum_{u in C_j} [label_i(u) != label_i(v)]
///     = present_{i,j} - count_{i,j}[label_i(v)],
/// plus the expected (1 - p) per member without a label under the coin
/// policy. Only valid for MissingValuePolicy::kRandomCoin (the kIgnore
/// policy normalizes per pair and does not decompose).
class AssignmentIndex {
 public:
  AssignmentIndex(const ClusteringSet& input,
                  const std::vector<std::vector<std::size_t>>& clusters,
                  double coin_together_probability)
      : input_(input),
        num_clusterings_(input.num_clusterings()),
        expected_missing_(1.0 - coin_together_probability) {
    const std::size_t k = clusters.size();
    sizes_.resize(k);
    missing_.assign(k, std::vector<double>(num_clusterings_, 0.0));
    counts_.assign(k, std::vector<std::unordered_map<Clustering::Label,
                                                     double>>(
                          num_clusterings_));
    for (std::size_t j = 0; j < k; ++j) {
      sizes_[j] = static_cast<double>(clusters[j].size());
      for (std::size_t i = 0; i < num_clusterings_; ++i) {
        const Clustering& c = input.clustering(i);
        for (std::size_t u : clusters[j]) {
          if (c.has_label(u)) {
            counts_[j][i][c.label(u)] += 1.0;
          } else {
            missing_[j][i] += 1.0;
          }
        }
      }
    }
    // (Per-clustering weights are applied in M(); the histograms hold
    // raw member counts.)
  }

  /// M(v, C_j) under the coin policy.
  double M(std::size_t v, std::size_t j) const {
    double total = 0.0;
    for (std::size_t i = 0; i < num_clusterings_; ++i) {
      const Clustering& c = input_.clustering(i);
      const double present = sizes_[j] - missing_[j][i];
      double contribution;
      if (!c.has_label(v)) {
        // v is unlabeled: the coin applies against every member.
        contribution = expected_missing_ * sizes_[j];
      } else {
        double same = 0.0;
        const auto it = counts_[j][i].find(c.label(v));
        if (it != counts_[j][i].end()) same = it->second;
        contribution =
            (present - same) + expected_missing_ * missing_[j][i];
      }
      total += input_.weight(i) * contribution;
    }
    return total / input_.total_weight();
  }

 private:
  const ClusteringSet& input_;
  std::size_t num_clusterings_;
  double expected_missing_;
  std::vector<double> sizes_;
  // missing_[cluster][clustering] = members without a label.
  std::vector<std::vector<double>> missing_;
  // counts_[cluster][clustering][label] = members with that label.
  std::vector<std::vector<std::unordered_map<Clustering::Label, double>>>
      counts_;
};

/// Relabels `final_labels[member]` for each object of `sub_clustering`
/// (which partitions `members`) with fresh labels starting at
/// `*next_label`.
void ApplySubClustering(const Clustering& sub_clustering,
                        const std::vector<std::size_t>& members,
                        std::vector<Clustering::Label>* final_labels,
                        Clustering::Label* next_label) {
  Clustering norm = sub_clustering;
  const auto k = static_cast<Clustering::Label>(norm.Normalize());
  for (std::size_t i = 0; i < members.size(); ++i) {
    CLUSTAGG_CHECK(norm.has_label(i));
    (*final_labels)[members[i]] = *next_label + norm.label(i);
  }
  *next_label += k;
}

/// Runs `base` on the input restricted to `subset` — folded to one
/// weighted representative per duplicate signature when `opts.fold` is
/// on and the subset actually has duplicates — and expands folded labels
/// back, so the caller always receives a clustering of subset.size()
/// objects. Clusterer runs degrade internally (they return an outcome,
/// not an interrupt status), so any interrupt status escaping here came
/// from the instance build.
Result<ClustererRun> RunBaseOnSubset(const ClusteringSet& input,
                                     const CorrelationClusterer& base,
                                     const RunContext& run,
                                     const SamplingOptions& opts,
                                     const std::vector<std::size_t>& subset) {
  const ClusteringSet restricted = input.Restrict(subset);
  std::optional<SignatureIndex> fold;
  if (opts.fold) {
    SignatureIndex signatures = SignatureIndex::Build(restricted);
    if (!signatures.trivial()) {
      TelemetryCount(run.telemetry(), "sampling.folds");
      fold.emplace(std::move(signatures));
    }
  }
  Result<CorrelationInstance> instance =
      fold ? CorrelationInstance::BuildFolded(restricted, *fold, opts.missing,
                                              opts.source)
           : CorrelationInstance::Build(restricted, opts.missing,
                                        opts.source);
  if (!instance.ok()) return instance.status();
  Result<ClustererRun> result = base.RunControlled(*instance, run);
  if (!result.ok()) return result.status();
  if (fold) result->clustering = fold->Expand(result->clustering);
  return result;
}

}  // namespace

Result<Clustering> SamplingAggregate(const ClusteringSet& input,
                                     const CorrelationClusterer& base,
                                     const SamplingOptions& options,
                                     SamplingStats* stats) {
  Result<ClustererRun> run =
      SamplingAggregateControlled(input, base, RunContext(), options, stats);
  if (!run.ok()) return run.status();
  return std::move(run->clustering);
}

Result<ClustererRun> SamplingAggregateControlled(
    const ClusteringSet& input, const CorrelationClusterer& base,
    const RunContext& run, const SamplingOptions& options,
    SamplingStats* stats) {
  const std::size_t n = input.num_objects();
  if (n == 0) return ClustererRun{Clustering(), RunOutcome::kConverged};

  // Thread the budget and the telemetry sink into the subset-instance
  // builds (their dense fill is the quadratic part of the pipeline)
  // unless the caller already set a context of their own there. An
  // unlimited run still carries its sink, so the build.* metrics of a
  // sampled run are recorded whether or not it has a budget.
  SamplingOptions opts = options;
  if (opts.source.run.unlimited() && opts.source.run.telemetry() == nullptr) {
    opts.source.run = run;
  }
  RunOutcome outcome = RunOutcome::kConverged;

  std::size_t sample_size = opts.sample_size;
  if (sample_size == 0) {
    sample_size = static_cast<std::size_t>(std::llround(
        opts.sample_log_factor * std::log(static_cast<double>(n) + 1.0)));
  }
  sample_size = std::clamp<std::size_t>(sample_size, std::min<std::size_t>(
      n, 2), n);
  if (stats != nullptr) *stats = SamplingStats{};
  if (stats != nullptr) stats->sample_size = sample_size;
  Telemetry* telemetry = run.telemetry();
  TelemetrySetGauge(telemetry, "sampling.sample_size",
                    static_cast<std::int64_t>(sample_size));

  Stopwatch watch;

  // Phase 1: aggregate a uniform sample.
  const std::size_t sample_span = TelemetryBeginSpan(telemetry,
                                                     "sampling.sample");
  Rng rng(opts.seed);
  std::vector<std::size_t> sample = rng.SampleWithoutReplacement(n,
                                                                 sample_size);
  std::sort(sample.begin(), sample.end());
  Result<ClustererRun> sample_run =
      RunBaseOnSubset(input, base, run, opts, sample);
  if (!sample_run.ok()) {
    if (RunContext::IsInterrupt(sample_run.status())) {
      // The sample instance build was cut short; nothing was clustered
      // yet, so all singletons is the valid floor.
      return ClustererRun{
          Clustering::AllSingletons(n),
          RunContext::OutcomeFromInterrupt(sample_run.status())};
    }
    return sample_run.status();
  }
  outcome = MergeOutcomes(outcome, sample_run->outcome);
  const Clustering& sample_clustering = sample_run->clustering;
  if (stats != nullptr) stats->sample_phase_seconds = watch.ElapsedSeconds();
  watch.Restart();
  TelemetryEndSpan(telemetry, sample_span);
  const std::size_t assign_span = TelemetryBeginSpan(telemetry,
                                                     "sampling.assign");

  // Cluster member lists in *global* object ids.
  std::vector<std::vector<std::size_t>> clusters;
  for (const std::vector<std::size_t>& members :
       sample_clustering.Clusters()) {
    std::vector<std::size_t> global;
    global.reserve(members.size());
    for (std::size_t i : members) global.push_back(sample[i]);
    clusters.push_back(std::move(global));
  }

  // Phase 2: assign every non-sampled object to the sample cluster that
  // incurs the least correlation cost, or to a fresh singleton, using the
  // same bookkeeping identity as LOCALSEARCH:
  //   join(j) = T + 2 M(v, C_j) - |C_j|,   singleton = T,
  // with T = sum_j (|C_j| - M(v, C_j)).
  std::vector<Clustering::Label> final_labels(n, Clustering::kMissing);
  for (std::size_t j = 0; j < clusters.size(); ++j) {
    for (std::size_t v : clusters[j]) {
      final_labels[v] = static_cast<Clustering::Label>(j);
    }
  }
  Clustering::Label next_label =
      static_cast<Clustering::Label>(clusters.size());

  std::vector<bool> in_sample(n, false);
  for (std::size_t v : sample) in_sample[v] = true;

  // Histogram index for the fast O(m)-per-cluster path (coin policy).
  const bool use_index =
      opts.missing.policy == MissingValuePolicy::kRandomCoin;
  std::unique_ptr<AssignmentIndex> index;
  if (use_index) {
    index = std::make_unique<AssignmentIndex>(
        input, clusters, opts.missing.coin_together_probability);
  }

  std::vector<std::size_t> singleton_objects;
  std::vector<double> m_row(clusters.size());
  for (std::size_t v = 0; v < n; ++v) {
    if (in_sample[v]) continue;
    // Each object costs O(k m); poll every 16 so the interval stays
    // bounded. Objects past an interrupt become singletons — the same
    // fallback the assignment itself uses for far-from-everything
    // objects — so the partition stays valid.
    if (v % 16 == 0 && outcome == RunOutcome::kConverged) {
      run.ChargeIterations(16);
      outcome = run.Poll();
    }
    if (outcome != RunOutcome::kConverged) {
      final_labels[v] = next_label++;
      singleton_objects.push_back(v);
      continue;
    }
    double t = 0.0;
    for (std::size_t j = 0; j < clusters.size(); ++j) {
      double mj = 0.0;
      if (use_index) {
        mj = index->M(v, j);
      } else {
        for (std::size_t u : clusters[j]) {
          mj += input.PairwiseDistance(v, u, options.missing);
        }
      }
      m_row[j] = mj;
      t += static_cast<double>(clusters[j].size()) - mj;
    }
    double best_cost = t;  // fresh singleton
    std::size_t best = clusters.size();
    for (std::size_t j = 0; j < clusters.size(); ++j) {
      const double cost =
          t + 2.0 * m_row[j] - static_cast<double>(clusters[j].size());
      if (cost < best_cost) {
        best_cost = cost;
        best = j;
      }
    }
    if (best < clusters.size()) {
      final_labels[v] = static_cast<Clustering::Label>(best);
    } else {
      final_labels[v] = next_label++;
      singleton_objects.push_back(v);
    }
  }
  if (stats != nullptr) stats->assign_phase_seconds = watch.ElapsedSeconds();
  watch.Restart();
  TelemetryEndSpan(telemetry, assign_span);
  const std::size_t recluster_span = TelemetryBeginSpan(
      telemetry, "sampling.recluster");

  // Phase 3: the assignment phase leaves too many singletons (Section
  // 4.1); collect every current singleton — including size-1 sample
  // clusters — and aggregate them again. When even the singleton pool is
  // too large for a quadratic instance, recurse through SAMPLING once
  // (with reclustering off), keeping the whole pipeline sub-quadratic.
  if (opts.recluster_singletons && outcome == RunOutcome::kConverged) {
    for (const std::vector<std::size_t>& members : clusters) {
      if (members.size() == 1) singleton_objects.push_back(members[0]);
    }
    std::sort(singleton_objects.begin(), singleton_objects.end());
    const std::size_t quadratic_cap =
        std::max<std::size_t>(2 * sample_size, 2000);
    if (singleton_objects.size() >= 2 &&
        singleton_objects.size() <= quadratic_cap) {
      Result<ClustererRun> reclustered =
          RunBaseOnSubset(input, base, run, opts, singleton_objects);
      if (!reclustered.ok()) {
        if (RunContext::IsInterrupt(reclustered.status())) {
          // The re-clustering instance build was cut short; skip the
          // polish — the assignment-phase partition stands.
          outcome = MergeOutcomes(outcome, RunContext::OutcomeFromInterrupt(
                                               reclustered.status()));
          return ClustererRun{Clustering(std::move(final_labels)).Normalized(),
                              outcome};
        }
        return reclustered.status();
      }
      outcome = MergeOutcomes(outcome, reclustered->outcome);
      ApplySubClustering(reclustered->clustering, singleton_objects,
                         &final_labels, &next_label);
    } else if (singleton_objects.size() > quadratic_cap) {
      const ClusteringSet sub_input = input.Restrict(singleton_objects);
      SamplingOptions sub_options = opts;
      sub_options.recluster_singletons = false;
      sub_options.sample_size = sample_size;
      Result<ClustererRun> reclustered =
          SamplingAggregateControlled(sub_input, base, run, sub_options);
      if (!reclustered.ok()) return reclustered.status();
      outcome = MergeOutcomes(outcome, reclustered->outcome);
      ApplySubClustering(reclustered->clustering, singleton_objects,
                         &final_labels, &next_label);
    }
  }
  if (stats != nullptr) {
    stats->recluster_phase_seconds = watch.ElapsedSeconds();
    stats->singletons_after_assignment = singleton_objects.size();
  }
  TelemetryEndSpan(telemetry, recluster_span);
  TelemetrySetGauge(telemetry, "sampling.singletons_after_assignment",
                    static_cast<std::int64_t>(singleton_objects.size()));

  return ClustererRun{Clustering(std::move(final_labels)).Normalized(),
                      outcome};
}

}  // namespace clustagg
