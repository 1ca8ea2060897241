#include "core/signature_index.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "core/internal/packed_labels.h"

namespace clustagg {

SignatureIndex SignatureIndex::Build(const ClusteringSet& input) {
  const std::size_t n = input.num_objects();
  const std::size_t m = input.num_clusterings();

  // Object-major label rows, the packer's input.
  std::vector<Clustering::Label> rows(n * m);
  for (std::size_t i = 0; i < m; ++i) {
    const Clustering& c = input.clustering(i);
    Clustering::Label* out = rows.data() + i;
    for (std::size_t v = 0; v < n; ++v) out[v * m] = c.label(v);
  }

  // Packed signature rows: only whole-row *equality* matters here, so
  // the kMissing sentinel packs like any other symbol and the packed
  // words stand in for the rows in both hashing and the collision check
  // (the per-column remap is injective). Packing fails only for m == 0,
  // which ClusteringSet::Create rejects.
  const std::unique_ptr<internal::PackedLabels> packed =
      internal::PackLabelRows(rows.data(), n, m);
  CLUSTAGG_CHECK(packed != nullptr);

  SignatureIndex index;
  index.signature_of_.resize(n);
  // hash -> signature ids sharing it. Objects are scanned in ascending
  // order, so signature ids follow first appearance deterministically.
  // Hash quality only affects bucket balance, never the grouping.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  buckets.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<std::size_t>& bucket =
        buckets[internal::HashPackedRow(*packed, v)];
    std::size_t signature = static_cast<std::size_t>(-1);
    for (std::size_t candidate : bucket) {
      if (internal::PackedRowsEqual(*packed, v,
                                    index.representative_[candidate])) {
        signature = candidate;
        break;
      }
    }
    if (signature == static_cast<std::size_t>(-1)) {
      signature = index.representative_.size();
      index.representative_.push_back(v);
      index.multiplicity_.push_back(0.0);
      bucket.push_back(signature);
    }
    index.signature_of_[v] = signature;
    index.multiplicity_[signature] += 1.0;
  }
  return index;
}

Clustering SignatureIndex::Expand(const Clustering& folded) const {
  CLUSTAGG_CHECK(folded.size() == num_signatures());
  std::vector<Clustering::Label> labels(num_objects());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    labels[v] = folded.label(signature_of_[v]);
  }
  Clustering expanded(std::move(labels));
  expanded.Normalize();
  return expanded;
}

Clustering SignatureIndex::Fold(const Clustering& objects) const {
  CLUSTAGG_CHECK(objects.size() == num_objects());
  return objects.Restrict(representative_);
}

}  // namespace clustagg
