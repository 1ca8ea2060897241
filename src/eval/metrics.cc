#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/disagreement.h"

namespace clustagg {

namespace {

/// Checks the inputs of the class-label scores.
Status CheckClassLabels(const Clustering& clustering,
                        const std::vector<std::int32_t>& class_labels) {
  if (clustering.size() != class_labels.size()) {
    return Status::InvalidArgument(
        "clustering covers " + std::to_string(clustering.size()) +
        " objects but there are " + std::to_string(class_labels.size()) +
        " class labels");
  }
  if (clustering.HasMissing()) {
    return Status::InvalidArgument("clustering must be complete");
  }
  for (std::int32_t c : class_labels) {
    if (c < 0) return Status::InvalidArgument("class labels must be >= 0");
  }
  return Status::OK();
}

/// Entropy in bits of a partition of n objects with the given sizes.
double Entropy(const std::vector<std::uint64_t>& sizes, std::size_t n) {
  double h = 0.0;
  for (std::uint64_t s : sizes) {
    const double p = static_cast<double>(s) / static_cast<double>(n);
    h -= p * std::log2(p);
  }
  return h;
}

/// Mutual information in bits, summed in the table's (row, col) order.
double MutualInformation(const Contingency& t) {
  const double n = static_cast<double>(t.n);
  double mi = 0.0;
  for (const Contingency::Cell& cell : t.cells) {
    const double nij = static_cast<double>(cell.count);
    const double pi = static_cast<double>(t.rows[cell.row]);
    const double pj = static_cast<double>(t.cols[cell.col]);
    mi += (nij / n) * std::log2(nij * n / (pi * pj));
  }
  return mi;
}

}  // namespace

Result<double> ClassificationError(
    const Clustering& clustering,
    const std::vector<std::int32_t>& class_labels) {
  if (Status s = CheckClassLabels(clustering, class_labels); !s.ok()) {
    return s;
  }
  // Classes are the second partition; a row's largest cell is its majority.
  Result<Contingency> t =
      Contingency::Build(clustering, Clustering(class_labels));
  if (!t.ok()) return t.status();
  if (t->n == 0) return 0.0;
  std::vector<std::uint64_t> majority(t->rows.size(), 0);
  for (const Contingency::Cell& cell : t->cells) {
    majority[cell.row] = std::max(majority[cell.row], cell.count);
  }
  std::uint64_t misplaced = t->n;
  for (std::uint64_t m : majority) misplaced -= m;
  return static_cast<double>(misplaced) / static_cast<double>(t->n);
}

Result<double> RandIndex(const Clustering& a, const Clustering& b) {
  Result<std::uint64_t> d = DisagreementDistance(a, b);
  if (!d.ok()) return d.status();
  const std::size_t n = a.size();
  if (n < 2) return 1.0;
  const double pairs = 0.5 * static_cast<double>(n) *
                       static_cast<double>(n - 1);
  return 1.0 - static_cast<double>(*d) / pairs;
}

Result<double> AdjustedRandIndex(const Clustering& a, const Clustering& b) {
  Result<Contingency> t = Contingency::Build(a, b);
  if (!t.ok()) return t.status();
  if (t->n < 2) return 1.0;
  const double pairs = 0.5 * static_cast<double>(t->n) *
                       static_cast<double>(t->n - 1);
  const double sum_joint = static_cast<double>(t->CellPairs());
  const double sum_a = static_cast<double>(t->RowPairs());
  const double sum_b = static_cast<double>(t->ColPairs());
  const double expected = sum_a * sum_b / pairs;
  const double max_index = 0.5 * (sum_a + sum_b);
  if (max_index == expected) return 1.0;  // both trivial partitions
  return (sum_joint - expected) / (max_index - expected);
}

Result<double> NormalizedMutualInformation(const Clustering& a,
                                           const Clustering& b) {
  Result<Contingency> t = Contingency::Build(a, b);
  if (!t.ok()) return t.status();
  const double ha = Entropy(t->rows, t->n);
  const double hb = Entropy(t->cols, t->n);
  if (ha == 0.0 || hb == 0.0) return 0.0;
  return MutualInformation(*t) / std::sqrt(ha * hb);
}

Result<double> VariationOfInformation(const Clustering& a,
                                      const Clustering& b) {
  Result<Contingency> t = Contingency::Build(a, b);
  if (!t.ok()) return t.status();
  const double vi = Entropy(t->rows, t->n) + Entropy(t->cols, t->n) -
                    2.0 * MutualInformation(*t);
  return std::max(vi, 0.0);  // clamp floating-point negatives
}

}  // namespace clustagg
