#ifndef CLUSTAGG_CORE_SIGNATURE_INDEX_H_
#define CLUSTAGG_CORE_SIGNATURE_INDEX_H_

#include <cstddef>
#include <vector>

#include "core/clustering.h"
#include "core/clustering_set.h"

namespace clustagg {

/// Groups objects by their *signature*: the full m-tuple of labels an
/// object carries across the input clusterings (missing labels included,
/// so the grouping is exact under every missing-value policy and any
/// input weighting). Two objects with the same signature have distance 0
/// to each other and bit-identical distances to every third object, so
/// any instance can be *folded*: build the s x s distance matrix over one
/// representative per signature (s <= n distinct signatures), attach the
/// group sizes as multiplicity weights so the folded objective equals the
/// unfolded one, run any clusterer, and expand the folded labels back to
/// object space. Real categorical datasets (the paper's Mushrooms /
/// Census evaluations) are dominated by duplicate signatures, dropping
/// the dense build from O(n^2 m) to O(s^2 m + n).
///
/// Co-clustering duplicates is optimal without loss: within a signature
/// group every pairwise distance is 0, so splitting a group never lowers
/// the disagreement objective.
class SignatureIndex {
 public:
  /// Groups all objects of `input`. Signatures are numbered 0..s-1 in
  /// order of first appearance (ascending object id), so the result is
  /// deterministic.
  static SignatureIndex Build(const ClusteringSet& input);

  /// Number of objects grouped (n).
  std::size_t num_objects() const { return signature_of_.size(); }

  /// Number of distinct signatures s.
  std::size_t num_signatures() const { return representative_.size(); }

  /// True when folding would not shrink the instance (s == n): every
  /// object is unique, and the fold is a documented no-op.
  bool trivial() const { return num_signatures() == num_objects(); }

  /// s / n in (0, 1]; 1.0 when folding is a no-op.
  double fold_ratio() const {
    return num_objects() == 0
               ? 1.0
               : static_cast<double>(num_signatures()) /
                     static_cast<double>(num_objects());
  }

  /// Object id of the first object carrying signature g. Using the first
  /// occurrence keeps the list ascending, so restricting the input to it
  /// (CorrelationInstance::BuildFolded) keeps the objects' order.
  const std::vector<std::size_t>& representatives() const {
    return representative_;
  }

  /// Signature id of object v.
  std::size_t signature_of(std::size_t v) const { return signature_of_[v]; }

  /// Group size of each signature, as the multiplicity weights a folded
  /// CorrelationInstance attaches to its objects. All-ones exactly when
  /// trivial().
  const std::vector<double>& multiplicities() const {
    return multiplicity_;
  }

  /// Maps a clustering of the s folded objects back to the n original
  /// ones: object v gets the folded label of its signature. The result is
  /// normalized (labels renumbered by first appearance in object order).
  Clustering Expand(const Clustering& folded) const;

  /// The other direction: maps a clustering of the n objects to the s
  /// folded ones, giving signature g the label of its representative.
  /// Labels are not renumbered, so a folded warm start starts from the
  /// same partition.
  Clustering Fold(const Clustering& objects) const;

 private:
  std::vector<std::size_t> representative_;
  std::vector<std::size_t> signature_of_;
  std::vector<double> multiplicity_;
};

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_SIGNATURE_INDEX_H_
