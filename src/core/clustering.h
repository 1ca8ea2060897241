#ifndef CLUSTAGG_CORE_CLUSTERING_H_
#define CLUSTAGG_CORE_CLUSTERING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace clustagg {

/// A clustering (partition) of n objects identified by indices 0..n-1,
/// stored as a label vector: `label(v)` is the id of the cluster object v
/// belongs to. Labels need not be contiguous; `Normalize()` relabels them
/// to 0..k-1 in order of first appearance.
///
/// A label of `kMissing` means the clustering expresses no opinion about
/// the object. This arises when a clustering is induced by a categorical
/// attribute with missing values (Section 2 of the paper); the
/// missing-value policies in `ClusteringSet` define how such pairs
/// contribute to disagreement counts. Aggregation *outputs* are always
/// complete (no missing labels).
class Clustering {
 public:
  using Label = std::int32_t;

  /// Sentinel label for objects the clustering has no opinion about.
  static constexpr Label kMissing = -1;

  /// Empty clustering of zero objects.
  Clustering() = default;

  /// Takes ownership of a label vector. Labels must be >= 0 or kMissing;
  /// use Validate() (or FromLabels) to verify untrusted input.
  explicit Clustering(std::vector<Label> labels);

  /// Validating factory for untrusted label vectors.
  static Result<Clustering> FromLabels(std::vector<Label> labels);

  /// n singleton clusters: object v gets label v.
  static Clustering AllSingletons(std::size_t n);

  /// One cluster containing every object.
  static Clustering SingleCluster(std::size_t n);

  /// Builds a clustering of n objects from explicit member lists. Fails if
  /// the lists are not a partition of a subset of 0..n-1; objects in no
  /// list get kMissing.
  static Result<Clustering> FromClusters(
      std::size_t n, const std::vector<std::vector<std::size_t>>& clusters);

  /// Number of objects.
  std::size_t size() const { return labels_.size(); }

  Label label(std::size_t v) const { return labels_[v]; }

  bool has_label(std::size_t v) const { return labels_[v] != kMissing; }

  /// True if any object has a missing label. O(n).
  bool HasMissing() const;

  /// Number of missing labels. O(n).
  std::size_t CountMissing() const;

  /// Number of distinct non-missing labels. O(n).
  std::size_t NumClusters() const;

  /// True iff u and v both have labels and the labels are equal.
  bool SameCluster(std::size_t u, std::size_t v) const {
    return labels_[u] != kMissing && labels_[u] == labels_[v];
  }

  const std::vector<Label>& labels() const { return labels_; }

  /// Relabels clusters to 0..k-1 in order of first appearance and returns
  /// k. Missing labels are preserved.
  std::size_t Normalize();
  Clustering Normalized() const;

  /// Member lists per cluster, in normalized label order. Missing-label
  /// objects appear in no list.
  std::vector<std::vector<std::size_t>> Clusters() const;

  /// Cluster sizes in normalized label order.
  std::vector<std::size_t> ClusterSizes() const;

  /// The induced clustering on `subset`: object i of the result has the
  /// (original) label of subset[i].
  Clustering Restrict(const std::vector<std::size_t>& subset) const;

  /// Returns a complete clustering in which each missing-label object is
  /// placed in its own fresh singleton cluster.
  Clustering WithMissingAsSingletons() const;

  /// OK iff every label is >= 0 or kMissing.
  Status Validate() const;

  /// True if the two clusterings are the same partition (equal up to a
  /// relabeling of cluster ids; missing sets must coincide).
  bool SamePartition(const Clustering& other) const;

  friend bool operator==(const Clustering& a, const Clustering& b) {
    return a.labels_ == b.labels_;
  }

 private:
  std::vector<Label> labels_;
};

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_CLUSTERING_H_
