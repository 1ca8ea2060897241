#include "core/disagreement.h"

#include <numeric>
#include <string>

namespace clustagg {

namespace {

std::uint64_t Choose2(std::uint64_t s) { return s * (s - 1) / 2; }

std::uint64_t SumOfPairs(const std::vector<std::uint64_t>& sizes) {
  std::uint64_t pairs = 0;
  for (std::uint64_t s : sizes) pairs += Choose2(s);
  return pairs;
}

Status CheckComparable(const Clustering& a, const Clustering& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument(
        "clusterings cover different numbers of objects (" +
        std::to_string(a.size()) + " vs " + std::to_string(b.size()) + ")");
  }
  if (a.HasMissing() || b.HasMissing()) {
    return Status::InvalidArgument(
        "partition scores require complete clusterings; score missing "
        "labels through ClusteringSet and a missing-value policy instead");
  }
  return Status::OK();
}

}  // namespace

Result<Contingency> Contingency::Build(const Clustering& a,
                                       const Clustering& b) {
  if (Status s = CheckComparable(a, b); !s.ok()) return s;
  Clustering na = a;
  Clustering nb = b;
  Contingency t;
  t.n = a.size();
  t.rows.assign(na.Normalize(), 0);
  t.cols.assign(nb.Normalize(), 0);
  for (std::size_t v = 0; v < t.n; ++v) {
    ++t.rows[static_cast<std::size_t>(na.label(v))];
    ++t.cols[static_cast<std::size_t>(nb.label(v))];
  }

  // Two stable counting sorts, by column and then by row, leave b's labels
  // grouped by row and ascending within it: each nonzero cell is one run,
  // in (row, col) order. A scatter moves each offset to its segment's end.
  std::vector<std::size_t> col_end(t.cols.size());
  std::vector<std::size_t> row_end(t.rows.size());
  std::exclusive_scan(t.cols.begin(), t.cols.end(), col_end.begin(),
                      std::size_t{0});
  std::exclusive_scan(t.rows.begin(), t.rows.end(), row_end.begin(),
                      std::size_t{0});
  std::vector<std::uint32_t> rows_by_col(t.n);
  for (std::size_t v = 0; v < t.n; ++v) {
    rows_by_col[col_end[static_cast<std::size_t>(nb.label(v))]++] =
        static_cast<std::uint32_t>(na.label(v));
  }
  std::vector<std::uint32_t> cols_by_row(t.n);
  for (std::size_t j = 0, pos = 0; j < col_end.size(); ++j) {
    for (; pos < col_end[j]; ++pos) {
      cols_by_row[row_end[rows_by_col[pos]]++] = static_cast<std::uint32_t>(j);
    }
  }
  for (std::size_t i = 0, pos = 0; i < row_end.size(); ++i) {
    for (std::size_t begin = pos; pos < row_end[i]; begin = pos) {
      while (pos < row_end[i] && cols_by_row[pos] == cols_by_row[begin]) ++pos;
      t.cells.push_back({static_cast<std::uint32_t>(i), cols_by_row[begin],
                         pos - begin});
    }
  }
  return t;
}

std::uint64_t Contingency::RowPairs() const { return SumOfPairs(rows); }

std::uint64_t Contingency::ColPairs() const { return SumOfPairs(cols); }

std::uint64_t Contingency::CellPairs() const {
  std::uint64_t pairs = 0;
  for (const Cell& cell : cells) pairs += Choose2(cell.count);
  return pairs;
}

Result<std::uint64_t> DisagreementDistanceNaive(const Clustering& a,
                                                const Clustering& b) {
  if (Status s = CheckComparable(a, b); !s.ok()) return s;
  const std::size_t n = a.size();
  std::uint64_t disagreements = 0;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      const bool together_a = a.label(u) == a.label(v);
      const bool together_b = b.label(u) == b.label(v);
      if (together_a != together_b) ++disagreements;
    }
  }
  return disagreements;
}

Result<std::uint64_t> DisagreementDistance(const Clustering& a,
                                           const Clustering& b) {
  Result<Contingency> t = Contingency::Build(a, b);
  if (!t.ok()) return t.status();
  return t->Disagreements();
}

Result<std::uint64_t> CoClusteredPairs(const Clustering& c) {
  if (c.HasMissing()) {
    return Status::InvalidArgument(
        "CoClusteredPairs requires a complete clustering");
  }
  std::uint64_t pairs = 0;
  for (const std::size_t s : c.ClusterSizes()) pairs += Choose2(s);
  return pairs;
}

}  // namespace clustagg
