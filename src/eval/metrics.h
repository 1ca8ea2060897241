#ifndef CLUSTAGG_EVAL_METRICS_H_
#define CLUSTAGG_EVAL_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/clustering.h"

namespace clustagg {

/// Classification error E_C (Section 5.2): the fraction of objects that
/// are not in their cluster's majority class,
///   E_C = sum_i (s_i - m_i) / n.
/// class_labels must be >= 0 and have one entry per object; the
/// clustering must be complete. Class ids need not be contiguous.
Result<double> ClassificationError(
    const Clustering& clustering,
    const std::vector<std::int32_t>& class_labels);

/// Rand index between two complete clusterings: fraction of object pairs
/// on which they agree. Equals 1 - d(a, b) / (n choose 2).
Result<double> RandIndex(const Clustering& a, const Clustering& b);

/// Adjusted Rand index (Hubert & Arabie): Rand index corrected for
/// chance; 1 for identical partitions, ~0 for independent ones.
Result<double> AdjustedRandIndex(const Clustering& a, const Clustering& b);

/// Normalized mutual information with sqrt(H(a) H(b)) normalization;
/// in [0, 1], 1 for identical partitions. Degenerate single-cluster
/// partitions yield 0.
Result<double> NormalizedMutualInformation(const Clustering& a,
                                           const Clustering& b);

/// Variation of information (Meila): VI(a, b) = H(a) + H(b) - 2 I(a, b),
/// in bits. A true metric on the space of partitions; 0 iff the
/// partitions coincide, bounded by log2(n).
Result<double> VariationOfInformation(const Clustering& a,
                                      const Clustering& b);

}  // namespace clustagg

#endif  // CLUSTAGG_EVAL_METRICS_H_
