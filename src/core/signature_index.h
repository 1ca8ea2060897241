#ifndef CLUSTAGG_CORE_SIGNATURE_INDEX_H_
#define CLUSTAGG_CORE_SIGNATURE_INDEX_H_

#include <cstddef>
#include <vector>

#include "common/telemetry.h"
#include "core/clustering.h"
#include "core/clustering_set.h"

namespace clustagg {

/// Groups objects by their *signature*: the full m-tuple of labels an
/// object carries across the input clusterings (missing labels
/// included). Two objects with the same signature have bit-identical
/// distances to every third object, so any instance can be *folded*:
/// build the s x s distance matrix over one representative per
/// signature (s <= n distinct signatures), attach the group sizes as
/// multiplicity weights, run any clusterer, and expand the folded labels
/// back to object space. Real categorical datasets (the paper's
/// Mushrooms / Census evaluations) are dominated by duplicate
/// signatures, dropping the dense build from O(n^2 m) to O(s^2 m + n).
///
/// Two members of one group are at distance X_gg = 0 unless the
/// signature has a missing label: under kRandomCoin,
/// X_gg = (1 - p) * (missing weight of the signature) / W, and under
/// kIgnore X_gg is 1/2 for an all-missing signature. Build groups a
/// signature only when X_gg <= 1/2, where co-clustering its members
/// never raises the disagreement objective (a pair at X <= 1/2 costs no
/// more joined than split, and the members see every third object
/// alike). A signature with X_gg > 1/2 is left
/// as singletons. The folded objective (CorrelationInstance::Cost,
/// LowerBound) counts only pairs of distinct signatures: it omits the
/// constant sum over groups of C(mult_g, 2) * X_gg, so on an input with
/// missing labels it sits below the unfolded value by that amount.
class SignatureIndex {
 public:
  /// Groups all objects of `input`, leaving a signature as singletons
  /// when its members' mutual distance under `missing` exceeds 1/2.
  /// Signatures are numbered 0..s-1 in order of first appearance
  /// (ascending object id), so the result is deterministic.
  static SignatureIndex Build(const ClusteringSet& input,
                              const MissingValueOptions& missing = {});

  /// The identity grouping of n objects: s == n, representatives
  /// 0..n-1, unit multiplicities. It is the fold of every run that does
  /// not fold; CorrelationInstance::BuildFolded builds the plain
  /// instance from it, and Expand only normalizes the labels.
  static SignatureIndex Identity(std::size_t n);

  /// The grouping a run folds by; the one place that decides whether a
  /// run folds. It is Build(input, missing) when `fold` is on and every
  /// group fits `max_cluster_size` (0 = uncapped; a folded group is never
  /// split), and the identity otherwise. When `fold` is on, the span
  /// "fold_index" times the grouping on `telemetry` (may be null), and
  /// `signatures` (may be null) receives the s that Build found, also
  /// when a group over the cap makes the run use the identity.
  static SignatureIndex ForRun(const ClusteringSet& input,
                               const MissingValueOptions& missing, bool fold,
                               std::size_t max_cluster_size,
                               Telemetry* telemetry = nullptr,
                               std::size_t* signatures = nullptr);

  /// Number of objects grouped (n).
  std::size_t num_objects() const { return signature_of_.size(); }

  /// Number of distinct signatures s.
  std::size_t num_signatures() const { return representative_.size(); }

  /// True when folding does not shrink the instance (s == n): every
  /// object is its own signature, numbered by its own id, so the index
  /// is the identity.
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
