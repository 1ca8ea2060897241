#include "core/clustering_set.h"

#include <cmath>
#include <string>

#include "common/check.h"
#include "core/disagreement.h"

namespace clustagg {

Status MissingValueOptions::Validate() const {
  if (!(coin_together_probability >= 0.0 &&
        coin_together_probability <= 1.0)) {
    return Status::InvalidArgument(
        "coin_together_probability must lie in [0, 1], got " +
        std::to_string(coin_together_probability));
  }
  return Status::OK();
}

double MissingValueOptions::PairDistance(double disagreeing,
                                         double opinionated,
                                         double total_weight) const {
  switch (policy) {
    case MissingValuePolicy::kRandomCoin:
      // Every silent clustering contributes its expected disagreement.
      disagreeing +=
          (total_weight - opinionated) * (1.0 - coin_together_probability);
      return disagreeing / total_weight;
    case MissingValuePolicy::kIgnore:
      if (opinionated == 0.0) return 0.5;
      return disagreeing / opinionated;
  }
  CLUSTAGG_CHECK(false);
  return 0.0;
}

ClusteringSet::ClusteringSet(std::vector<Clustering> clusterings,
                             std::vector<double> weights)
    : clusterings_(std::move(clusterings)), weights_(std::move(weights)) {
  num_objects_ = clusterings_.front().size();
  for (const Clustering& c : clusterings_) {
    if (c.HasMissing()) {
      has_missing_ = true;
      break;
    }
  }
  if (weights_.empty()) weights_.assign(clusterings_.size(), 1.0);
  for (double w : weights_) total_weight_ += w;
}

Result<ClusteringSet> ClusteringSet::Create(
    std::vector<Clustering> clusterings, std::vector<double> weights) {
  if (clusterings.empty()) {
    return Status::InvalidArgument("at least one input clustering required");
  }
  const std::size_t n = clusterings.front().size();
  for (std::size_t i = 0; i < clusterings.size(); ++i) {
    if (clusterings[i].size() != n) {
      return Status::InvalidArgument(
          "clustering " + std::to_string(i) + " covers " +
          std::to_string(clusterings[i].size()) + " objects, expected " +
          std::to_string(n));
    }
    if (Status s = clusterings[i].Validate(); !s.ok()) return s;
  }
  if (!weights.empty()) {
    if (weights.size() != clusterings.size()) {
      return Status::InvalidArgument(
          "got " + std::to_string(weights.size()) + " weights for " +
          std::to_string(clusterings.size()) + " clusterings");
    }
    for (double w : weights) {
      if (!(w > 0.0) || !std::isfinite(w)) {
        return Status::InvalidArgument(
            "clustering weights must be positive and finite");
      }
    }
  }
  return ClusteringSet(std::move(clusterings), std::move(weights));
}

ClusteringSet ClusteringSet::Restrict(
    const std::vector<std::size_t>& objects) const {
  std::vector<Clustering> restricted;
  restricted.reserve(clusterings_.size());
  for (const Clustering& c : clusterings_) {
    restricted.push_back(c.Restrict(objects));
  }
  // The constructor re-sums the same weights in the same ascending
  // order, so total_weight() keeps its bits.
  return ClusteringSet(std::move(restricted), weights_);
}

double ClusteringSet::PairwiseDistance(
    std::size_t u, std::size_t v, const MissingValueOptions& missing) const {
  CLUSTAGG_CHECK(u < num_objects_ && v < num_objects_);
  if (u == v) return 0.0;
  double disagreeing = 0.0;
  double opinionated = 0.0;
  for (std::size_t i = 0; i < clusterings_.size(); ++i) {
    const Clustering& c = clusterings_[i];
    const Clustering::Label lu = c.label(u);
    const Clustering::Label lv = c.label(v);
    if (lu == Clustering::kMissing || lv == Clustering::kMissing) continue;
    opinionated += weights_[i];
    if (lu != lv) disagreeing += weights_[i];
  }
  return missing.PairDistance(disagreeing, opinionated, total_weight_);
}

Result<double> ClusteringSet::TotalDisagreements(
    const Clustering& candidate, const MissingValueOptions& missing) const {
  if (candidate.size() != num_objects_) {
    return Status::InvalidArgument(
        "candidate clustering covers " + std::to_string(candidate.size()) +
        " objects, expected " + std::to_string(num_objects_));
  }
  if (candidate.HasMissing()) {
    return Status::InvalidArgument(
        "candidate clustering must be complete (no missing labels)");
  }
  if (Status s = missing.Validate(); !s.ok()) return s;

  if (missing.policy == MissingValuePolicy::kRandomCoin) {
    // Per-clustering decomposition, O(m * (n + K_i + K)). A clustering
    // disagrees exactly (0/1) on the pairs where both endpoints have
    // labels. On a pair touching a missing label the coin reports
    // "together" with probability p, so the expected disagreement is
    // (1 - p) when the candidate joins the pair and p when it splits it.
    // An input with no missing label scores each (c, candidate) table
    // as it is: its missing-pair terms are exact zeros, so the total is
    // the weighted sum of contingency-table distances.
    const auto n64 = static_cast<std::uint64_t>(num_objects_);
    const double all_pairs = 0.5 * static_cast<double>(n64) *
                             static_cast<double>(n64 - 1);
    const double p = missing.coin_together_probability;
    std::uint64_t candidate_together = 0;
    if (has_missing_) {
      Result<std::uint64_t> together = CoClusteredPairs(candidate);
      if (!together.ok()) return together.status();
      candidate_together = *together;
    }
    double total = 0.0;
    for (std::size_t i = 0; i < clusterings_.size(); ++i) {
      const Clustering& c = clusterings_[i];
      std::vector<std::size_t> present;
      if (has_missing_) {
        present.reserve(num_objects_);
        for (std::size_t v = 0; v < num_objects_; ++v) {
          if (c.has_label(v)) present.push_back(v);
        }
      }
      Result<Contingency> t =
          has_missing_ ? Contingency::Build(c.Restrict(present),
                                            candidate.Restrict(present))
                       : Contingency::Build(c, candidate);
      if (!t.ok()) return t.status();
      const auto np = static_cast<double>(t->n);
      const double present_pairs = 0.5 * np * (np - 1.0);
      // Pairs with a missing endpoint, split by what the candidate does.
      const double missing_pairs = all_pairs - present_pairs;
      const double missing_together =
          has_missing_
              ? static_cast<double>(candidate_together - t->ColPairs())
              : 0.0;
      const double missing_apart = missing_pairs - missing_together;
      total += weights_[i] * (static_cast<double>(t->Disagreements()) +
                              missing_together * (1.0 - p) + missing_apart * p);
    }
    return total;
  }

  // General (expected-value) path for the kIgnore policy, whose per-pair
  // normalization does not decompose by clustering. X_uv already
  // averages over the weighted clusterings, so the total expected
  // disagreement is
  //   sum_{u<v, together} W * X_uv + sum_{u<v, apart} W * (1 - X_uv),
  // with W the total weight.
  double total = 0.0;
  for (std::size_t u = 0; u < num_objects_; ++u) {
    for (std::size_t v = u + 1; v < num_objects_; ++v) {
      const double x = PairwiseDistance(u, v, missing);
      if (candidate.SameCluster(u, v)) {
        total += total_weight_ * x;
      } else {
        total += total_weight_ * (1.0 - x);
      }
    }
  }
  return total;
}

}  // namespace clustagg
