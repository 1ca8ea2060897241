#include "core/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <optional>
#include <string>
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

/// The assignment phase's M(v, C_j) = sum_{u in C_j} X_vu for every
/// sample cluster j at once, under MissingValuePolicy::kRandomCoin (the
/// kIgnore policy normalizes per pair and does not decompose). Clustering
/// i adds
///   w_i * ((present_ij - same_ij) + (1 - p) * missing_ij)
/// to total_weight * M(v, C_j), where present_ij and missing_ij count the
/// members of C_j with and without a label in clustering i and same_ij
/// those sharing v's label; an unlabeled v adds w_i * (1 - p) * |C_j|.
/// The term depends on v only through label_i(v), so it is precomputed as
/// one k-wide row per label the sample's members carry, one shared row
/// for a label the sample never saw (same = 0) and one for a missing
/// label. An object then costs one label lookup and one k-wide add per
/// clustering; the rows are added in clustering order from 0.0 and
/// divided last, the same float operations as summing the terms per
/// cluster. The table holds k * sum_i (L_i + 2) doubles, L_i <= sample
/// size being clustering i's distinct sample labels.
class AssignmentIndex {
 public:
  static Result<AssignmentIndex> Build(
      const ClusteringSet& input,
      const std::vector<std::vector<std::size_t>>& clusters,
      double coin_together_probability, const RunContext& run) {
    AssignmentIndex index;
    index.input_ = &input;
    index.k_ = clusters.size();
    const std::size_t m = input.num_clusterings();
    std::size_t sampled = 0;
    for (const std::vector<std::size_t>& members : clusters) {
      sampled += members.size();
    }
    unsigned bits = 1;
    while ((std::size_t{1} << bits) < 2 * sampled) ++bits;
    index.rows_.resize(m);
    std::size_t rows = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const Clustering& c = input.clustering(i);
      LabelRows& map = index.rows_[i];
      map.slots.assign(std::size_t{1} << bits, {Clustering::kMissing, 0});
      map.shift = 64 - bits;
      map.first = rows;
      rows += 2;
      for (const std::vector<std::size_t>& members : clusters) {
        for (std::size_t u : members) {
          if (!c.has_label(u)) continue;
          LabelRows::Slot& slot = map.slots[map.Probe(c.label(u))];
          if (slot.label == Clustering::kMissing) slot = {c.label(u), rows++};
        }
      }
      map.end = rows;
    }
    const std::size_t k = index.k_;
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    const bool overflows = rows > kMax / k / sizeof(double);
    const Status too_large = Status::ResourceExhausted(
        "cannot allocate the SAMPLING cost table of " + std::to_string(rows) +
        " rows by " + std::to_string(k) + " clusters; use a smaller sample");
    if (overflows || run.SimulateAllocationFailure(rows * k * sizeof(double))) {
      return too_large;
    }
    try {
      index.table_.assign(rows * k, 0.0);
    } catch (const std::bad_alloc&) {
      return too_large;
    }

    // Count: a label row gathers the members carrying that label and the
    // missing row those without one; the unseen row keeps same = 0.
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t u : clusters[j]) {
        for (std::size_t i = 0; i < m; ++i) {
          index.table_[index.RowOf(i, u) * k + j] += 1.0;
        }
      }
    }
    // Weigh: each count becomes its clustering's weighted term.
    const double expected_missing = 1.0 - coin_together_probability;
    for (std::size_t i = 0; i < m; ++i) {
      const double weight = input.weight(i);
      const LabelRows& map = index.rows_[i];
      for (std::size_t j = 0; j < k; ++j) {
        const double size = static_cast<double>(clusters[j].size());
        double& missing_cell = index.table_[map.first * k + j];
        const double missing = missing_cell;
        const double present = size - missing;
        missing_cell = weight * (expected_missing * size);
        for (std::size_t r = map.first + 1; r < map.end; ++r) {
          double& same = index.table_[r * k + j];
          same = weight * ((present - same) + expected_missing * missing);
        }
      }
    }
    return index;
  }

  /// Writes M(v, C_j) to out[j] for every sample cluster j.
  void Costs(std::size_t v, double* out) const {
    std::fill(out, out + k_, 0.0);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const double* row = &table_[RowOf(i, v) * k_];
      for (std::size_t j = 0; j < k_; ++j) out[j] += row[j];
    }
    const double total_weight = input_->total_weight();
    for (std::size_t j = 0; j < k_; ++j) out[j] /= total_weight;
  }

 private:
  /// Clustering i's rows of the table: `first` for a missing label,
  /// first + 1 for a label the sample never saw, then one per sample
  /// label up to `end`, found through an open-addressing table kept at
  /// most half full (linear probing from a multiplicative hash; an empty
  /// slot holds kMissing).
  struct LabelRows {
    struct Slot {
      Clustering::Label label;
      std::size_t row;
    };
    std::vector<Slot> slots;
    unsigned shift = 0;
    std::size_t first = 0;
    std::size_t end = 0;

    /// The slot holding `label`, or the empty slot where it would go.
    std::size_t Probe(Clustering::Label label) const {
      std::size_t slot = static_cast<std::size_t>(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(label)) *
           0x9e3779b97f4a7c15ull) >> shift);
      while (slots[slot].label != label &&
             slots[slot].label != Clustering::kMissing) {
        slot = (slot + 1) & (slots.size() - 1);
      }
      return slot;
    }
  };

  AssignmentIndex() = default;

  /// Row of object v's label in clustering i.
  std::size_t RowOf(std::size_t i, std::size_t v) const {
    const LabelRows& map = rows_[i];
    const Clustering::Label label = input_->clustering(i).label(v);
    if (label == Clustering::kMissing) return map.first;
    const LabelRows::Slot& slot = map.slots[map.Probe(label)];
    return slot.label == label ? slot.row : map.first + 1;
  }

  const ClusteringSet* input_ = nullptr;
  std::size_t k_ = 0;
  std::vector<LabelRows> rows_;
  // table_[row * k_ + j] for sample cluster j.
  std::vector<double> table_;
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

  // Cost table for the coin policy; every object sampled leaves nothing
  // to assign.
  std::optional<AssignmentIndex> index;
  if (opts.missing.policy == MissingValuePolicy::kRandomCoin &&
      sample.size() < n) {
    Result<AssignmentIndex> built = AssignmentIndex::Build(
        input, clusters, opts.missing.coin_together_probability, run);
    if (!built.ok()) return built.status();
    index.emplace(std::move(built).value());
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
    if (index) {
      index->Costs(v, m_row.data());
    } else {
      for (std::size_t j = 0; j < clusters.size(); ++j) {
        double mj = 0.0;
        for (std::size_t u : clusters[j]) {
          mj += input.PairwiseDistance(v, u, options.missing);
        }
        m_row[j] = mj;
      }
    }
    double t = 0.0;
    for (std::size_t j = 0; j < clusters.size(); ++j) {
      t += static_cast<double>(clusters[j].size()) - m_row[j];
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
