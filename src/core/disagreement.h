#ifndef CLUSTAGG_CORE_DISAGREEMENT_H_
#define CLUSTAGG_CORE_DISAGREEMENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/clustering.h"

namespace clustagg {

/// Sparse contingency table of two complete clusterings a and b over the
/// same n objects; its rows and columns are their clusters in normalized
/// (first-appearance) order. Only the nonzero cells are kept, so it takes
/// O(n + ka + kb) memory. Every pair-counting score reads it.
struct Contingency {
  struct Cell {
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    std::uint64_t count = 0;
  };

  std::size_t n = 0;
  std::vector<std::uint64_t> rows;  // sizes of a's clusters
  std::vector<std::uint64_t> cols;  // sizes of b's clusters
  std::vector<Cell> cells;          // nonzero, in ascending (row, col) order

  /// O(n + ka + kb) time and memory. Fails if the clusterings differ in
  /// size or either has a missing label.
  static Result<Contingency> Build(const Clustering& a, const Clustering& b);

  /// Unordered pairs co-clustered by a, by b, by both, and by exactly one
  /// of them (the disagreement distance).
  std::uint64_t RowPairs() const;
  std::uint64_t ColPairs() const;
  std::uint64_t CellPairs() const;
  std::uint64_t Disagreements() const {
    return RowPairs() + ColPairs() - 2 * CellPairs();
  }
};

/// Disagreement distance between two *complete* clusterings (Section 3 of
/// the paper): the number of unordered object pairs (u, v) that one
/// clustering places together and the other apart. Satisfies the triangle
/// inequality (Observation 1).
///
/// The paper's worked example (Figure 1) counts unordered pairs — e.g.
/// C_1 vs. the optimum disagrees on exactly the four pairs listed — so we
/// count unordered pairs throughout; double the value for the ordered
/// V x V formulation.

/// Reference implementation straight from the definition; O(n^2). Used as
/// a testing oracle and in micro-benchmarks.
Result<std::uint64_t> DisagreementDistanceNaive(const Clustering& a,
                                                const Clustering& b);

/// Pair-counting implementation via the sparse contingency table of the
/// two clusterings; O(n + K_a + K_b) time and memory. The count equals
///   pairs(a) + pairs(b) - 2 * joint_pairs(a, b)
/// where pairs(x) is the number of co-clustered pairs of x and
/// joint_pairs counts pairs co-clustered in both.
Result<std::uint64_t> DisagreementDistance(const Clustering& a,
                                           const Clustering& b);

/// Number of unordered pairs co-clustered by `c`. Requires a complete
/// clustering.
Result<std::uint64_t> CoClusteredPairs(const Clustering& c);

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_DISAGREEMENT_H_
