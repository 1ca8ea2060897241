#include "core/signature_index.h"

#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "core/instrumentation.h"

namespace clustagg {

namespace {

/// True when two objects carrying object v's labels are at distance
/// 1/2 or closer, so that a group of them may be folded: the arithmetic
/// of ClusteringSet::PairwiseDistance for a pair that agrees on every
/// clustering labelling both, rounded through float as every instance
/// stores it.
bool FoldableSignature(const ClusteringSet& input, std::size_t v,
                       const MissingValueOptions& missing) {
  double opinionated = 0.0;
  for (std::size_t i = 0; i < input.num_clusterings(); ++i) {
    if (input.clustering(i).label(v) != Clustering::kMissing) {
      opinionated += input.weight(i);
    }
  }
  return static_cast<float>(missing.PairDistance(
             0.0, opinionated, input.total_weight())) <= 0.5f;
}

}  // namespace

SignatureIndex SignatureIndex::Build(const ClusteringSet& input,
                                     const MissingValueOptions& missing) {
  const std::size_t n = input.num_objects();
  const std::size_t m = input.num_clusterings();

  // The label columns, read in place, so the grouping needs O(n) memory
  // beside the input and no n x m copy. Only whole-row *equality*
  // matters here, so the kMissing sentinel compares like any other label.
  std::vector<const Clustering::Label*> columns(m);
  for (std::size_t i = 0; i < m; ++i) {
    columns[i] = input.clustering(i).labels().data();
  }
  auto hash_of = [&](std::size_t v) {
    std::uint64_t h = 1469598103934665603ull;
    for (const Clustering::Label* column : columns) {
      h ^= static_cast<std::uint32_t>(column[v]);
      h *= 1099511628211ull;
    }
    return h ^ (h >> 32);
  };
  auto same_labels = [&](std::size_t u, std::size_t v) {
    for (const Clustering::Label* column : columns) {
      if (column[u] != column[v]) return false;
    }
    return true;
  };

  SignatureIndex index;
  index.signature_of_.resize(n);
  // hash -> signature ids sharing it. Objects are scanned in ascending
  // order, so signature ids follow first appearance deterministically.
  // Hash quality only affects bucket balance, never the grouping.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  buckets.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<std::size_t>& bucket = buckets[hash_of(v)];
    std::size_t signature = static_cast<std::size_t>(-1);
    for (std::size_t candidate : bucket) {
      if (same_labels(v, index.representative_[candidate])) {
        signature = candidate;
        break;
      }
    }
    if (signature == static_cast<std::size_t>(-1)) {
      signature = index.representative_.size();
      index.representative_.push_back(v);
      index.multiplicity_.push_back(0.0);
      // An unfoldable signature stays out of its bucket, so each later
      // copy opens a signature of its own.
      if (FoldableSignature(input, v, missing)) bucket.push_back(signature);
    }
    index.signature_of_[v] = signature;
    index.multiplicity_[signature] += 1.0;
  }
  return index;
}

SignatureIndex SignatureIndex::Identity(std::size_t n) {
  SignatureIndex index;
  index.representative_.resize(n);
  std::iota(index.representative_.begin(), index.representative_.end(),
            std::size_t{0});
  index.signature_of_ = index.representative_;
  index.multiplicity_.assign(n, 1.0);
  return index;
}

SignatureIndex SignatureIndex::ForRun(const ClusteringSet& input,
                                      const MissingValueOptions& missing,
                                      bool fold, std::size_t max_cluster_size,
                                      Telemetry* telemetry,
                                      std::size_t* signatures) {
  if (!fold) return Identity(input.num_objects());
  InstrumentedSpan fold_span(telemetry, "fold_index");
  SignatureIndex index = Build(input, missing);
  if (signatures != nullptr) *signatures = index.num_signatures();
  if (max_cluster_size > 0) {
    const double cap = static_cast<double>(max_cluster_size);
    for (double multiplicity : index.multiplicity_) {
      if (multiplicity > cap) return Identity(input.num_objects());
    }
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
