#ifndef CLUSTAGG_CORE_CLUSTERING_SET_H_
#define CLUSTAGG_CORE_CLUSTERING_SET_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "core/clustering.h"

namespace clustagg {

/// How a clustering with a missing label on u or v contributes to the
/// pairwise disagreement fraction X_uv (Section 2, "Missing values").
enum class MissingValuePolicy {
  /// The paper's adopted policy: the attribute tosses a coin and reports
  /// the pair as co-clustered with probability p. In expectation it
  /// contributes (1 - p) to the disagreement fraction. p defaults to 1/2.
  kRandomCoin,
  /// The averaging policy: attributes with a missing value on the pair
  /// are skipped and X_uv is the disagreeing fraction of the remaining
  /// attributes. A pair with no opinionated attribute gets X_uv = 1/2.
  kIgnore,
};

/// Options bundle for missing-value handling.
struct MissingValueOptions {
  MissingValuePolicy policy = MissingValuePolicy::kRandomCoin;
  /// Coin bias for kRandomCoin: probability of reporting "co-clustered".
  double coin_together_probability = 0.5;

  /// InvalidArgument unless coin_together_probability lies in [0, 1]
  /// (NaN included), whatever the policy: outside it X leaves [0, 1] and
  /// expected disagreements can go negative. Both DistanceSource Build
  /// functions and ClusteringSet::TotalDisagreements check it.
  Status Validate() const;

  /// X of a pair from its weighted sums over the clusterings that label
  /// both objects: `opinionated` is their weight, `disagreeing` the
  /// weight of those separating the pair, `total_weight` that of all
  /// clusterings. The one closing step of every distance path
  /// (PairwiseDistance, the distance sources' general loop and
  /// missing-cell table, SignatureIndex's fold test), so they all round
  /// alike.
  double PairDistance(double disagreeing, double opinionated,
                      double total_weight) const;
};

/// An immutable collection of m clusterings over the same n objects — the
/// input of the clustering-aggregation problem. Supports on-the-fly
/// pairwise disagreement fractions (X_uv) so that large datasets can be
/// processed without materializing the O(n^2) matrix (used by SAMPLING).
///
/// Clusterings may carry positive weights (default 1), generalizing the
/// objective to the weighted median partition sum_i w_i d(C_i, C) — a
/// weight-w clustering behaves exactly like w unit-weight copies. Useful
/// when some inputs are more trustworthy (e.g. scaled by a quality
/// score).
class ClusteringSet {
 public:
  /// Validates that there is at least one clustering, all clusterings
  /// cover the same object count, all labels are well formed, and (when
  /// given) there is one strictly positive, finite weight per
  /// clustering.
  static Result<ClusteringSet> Create(std::vector<Clustering> clusterings,
                                      std::vector<double> weights = {});

  std::size_t num_objects() const { return num_objects_; }
  std::size_t num_clusterings() const { return clusterings_.size(); }
  const Clustering& clustering(std::size_t i) const { return clusterings_[i]; }
  const std::vector<Clustering>& clusterings() const { return clusterings_; }

  /// Weight of the i-th clustering (1 unless specified at Create).
  double weight(std::size_t i) const { return weights_[i]; }
  /// Sum of all weights (= m for unweighted inputs).
  double total_weight() const { return total_weight_; }

  /// True if any input clustering has a missing label.
  bool HasMissing() const { return has_missing_; }

  /// The input restricted to the given objects: object i of the result
  /// is objects[i] under every clustering. Weights, missing labels and
  /// total_weight() are kept. CHECK-fails on an id out of range, like
  /// Clustering::Restrict. This is how SAMPLING, sharding and folding
  /// build their sub-instances: every builder then sees a whole input.
  ClusteringSet Restrict(const std::vector<std::size_t>& objects) const;

  /// X_uv: the (expected) fraction of input clusterings that place u and v
  /// in different clusters, under the given missing-value policy. O(m).
  /// A per-pair query that returns no Status: `missing` must pass
  /// MissingValueOptions::Validate, or X may leave [0, 1].
  double PairwiseDistance(std::size_t u, std::size_t v,
                          const MissingValueOptions& missing = {}) const;

  /// D(C) = sum_i d(C_i, C): the (expected) total number of pairwise
  /// disagreements of a complete candidate clustering with the inputs.
  /// With complete inputs this is an exact integer; with missing values it
  /// is the expectation under the policy. O(m * n^2) under kIgnore;
  /// kRandomCoin takes O(m * (n + K_i + K)) time and O(n + K_i + K) memory,
  /// K_i and K being the cluster counts of input i and of the candidate.
  /// InvalidArgument when `missing` fails MissingValueOptions::Validate.
  Result<double> TotalDisagreements(
      const Clustering& candidate,
      const MissingValueOptions& missing = {}) const;

 private:
  ClusteringSet(std::vector<Clustering> clusterings,
                std::vector<double> weights);

  std::vector<Clustering> clusterings_;
  std::vector<double> weights_;
  double total_weight_ = 0.0;
  std::size_t num_objects_ = 0;
  bool has_missing_ = false;
};

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_CLUSTERING_SET_H_
