#include "core/clustering.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/check.h"

namespace clustagg {

Clustering::Clustering(std::vector<Label> labels)
    : labels_(std::move(labels)) {}

Result<Clustering> Clustering::FromLabels(std::vector<Label> labels) {
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] < 0 && labels[v] != kMissing) {
      return Status::InvalidArgument("label of object " + std::to_string(v) +
                                     " is negative and not kMissing");
    }
  }
  return Clustering(std::move(labels));
}

Clustering Clustering::AllSingletons(std::size_t n) {
  std::vector<Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) labels[v] = static_cast<Label>(v);
  return Clustering(std::move(labels));
}

Clustering Clustering::SingleCluster(std::size_t n) {
  return Clustering(std::vector<Label>(n, 0));
}

Result<Clustering> Clustering::FromClusters(
    std::size_t n, const std::vector<std::vector<std::size_t>>& clusters) {
  std::vector<Label> labels(n, kMissing);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (std::size_t v : clusters[c]) {
      if (v >= n) {
        return Status::InvalidArgument("cluster member " + std::to_string(v) +
                                       " out of range for n=" +
                                       std::to_string(n));
      }
      if (labels[v] != kMissing) {
        return Status::InvalidArgument("object " + std::to_string(v) +
                                       " appears in more than one cluster");
      }
      labels[v] = static_cast<Label>(c);
    }
  }
  return Clustering(std::move(labels));
}

bool Clustering::HasMissing() const {
  return std::find(labels_.begin(), labels_.end(), kMissing) != labels_.end();
}

std::size_t Clustering::CountMissing() const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), kMissing));
}

std::size_t Clustering::NumClusters() const {
  return Clustering(*this).Normalize();
}

std::size_t Clustering::Normalize() {
  std::unordered_map<Label, Label> remap;
  remap.reserve(64);
  Label next = 0;
  for (auto& label : labels_) {
    if (label == kMissing) continue;
    auto [it, inserted] = remap.try_emplace(label, next);
    if (inserted) ++next;
    label = it->second;
  }
  return static_cast<std::size_t>(next);
}

Clustering Clustering::Normalized() const {
  Clustering copy = *this;
  copy.Normalize();
  return copy;
}

std::vector<std::vector<std::size_t>> Clustering::Clusters() const {
  Clustering norm = *this;
  std::vector<std::vector<std::size_t>> out(norm.Normalize());
  for (std::size_t v = 0; v < norm.size(); ++v) {
    if (norm.labels_[v] != kMissing) {
      out[static_cast<std::size_t>(norm.labels_[v])].push_back(v);
    }
  }
  return out;
}

std::vector<std::size_t> Clustering::ClusterSizes() const {
  Clustering norm = *this;
  std::vector<std::size_t> sizes(norm.Normalize(), 0);
  for (std::size_t v = 0; v < norm.size(); ++v) {
    if (norm.labels_[v] != kMissing) {
      ++sizes[static_cast<std::size_t>(norm.labels_[v])];
    }
  }
  return sizes;
}

Clustering Clustering::Restrict(const std::vector<std::size_t>& subset) const {
  std::vector<Label> labels(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    CLUSTAGG_CHECK(subset[i] < labels_.size());
    labels[i] = labels_[subset[i]];
  }
  return Clustering(std::move(labels));
}

Clustering Clustering::WithMissingAsSingletons() const {
  Clustering out = *this;
  Label next = 0;
  for (Label label : labels_) {
    if (label != kMissing && label >= next) next = label + 1;
  }
  for (auto& label : out.labels_) {
    if (label == kMissing) label = next++;
  }
  return out;
}

Status Clustering::Validate() const {
  for (std::size_t v = 0; v < labels_.size(); ++v) {
    if (labels_[v] < 0 && labels_[v] != kMissing) {
      return Status::InvalidArgument("label of object " + std::to_string(v) +
                                     " is negative and not kMissing");
    }
  }
  return Status::OK();
}

bool Clustering::SamePartition(const Clustering& other) const {
  if (size() != other.size()) return false;
  // Two partitions coincide iff the normalized (first-appearance) label
  // vectors are identical, because normalization is a canonical form.
  return Normalized() == other.Normalized();
}

}  // namespace clustagg
