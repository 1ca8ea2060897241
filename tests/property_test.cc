// Property-based sweep over randomized ClusteringSets: the disagreement
// distance is a metric, the naive and contingency-table implementations
// agree exactly, every clusterer's output cost is at least the per-pair
// lower bound, and the aggregation cost is invariant under label
// permutation and object reordering. Each check runs over many seeded
// random instances; the seed is attached via SCOPED_TRACE so a failure
// names the instance that produced it.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/telemetry.h"
#include "core/aggregator.h"
#include "core/clustering.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/disagreement.h"
#include "core/distance_source.h"
#include "core/internal/packed_labels.h"
#include "core/lower_bound.h"
#include "core/pivot.h"
#include "local/local_oracle.h"
#include "stream/stream_aggregator.h"
#include "stream/stream_event.h"

namespace clustagg {
namespace {

Clustering RandomClustering(std::size_t n, std::size_t max_clusters,
                            Rng* rng) {
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = static_cast<Clustering::Label>(
        rng->NextBounded(max_clusters));
  }
  return Clustering(std::move(labels));
}

ClusteringSet RandomClusteringSet(std::size_t n, std::size_t m,
                                  std::size_t max_clusters, Rng* rng) {
  std::vector<Clustering> inputs;
  inputs.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    inputs.push_back(RandomClustering(n, max_clusters, rng));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  EXPECT_TRUE(set.ok()) << set.status().message();
  return *std::move(set);
}

/// A uniformly random permutation of 0..n-1.
std::vector<std::size_t> RandomPermutation(std::size_t n, Rng* rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->NextBounded(i)]);
  }
  return perm;
}

// (a) d is a metric: d(a, a) = 0, d(a, b) = d(b, a), and the triangle
// inequality d(a, c) <= d(a, b) + d(b, c) (the paper's Observation 1),
// checked on sampled triples of random clusterings.
TEST(PropertyTest, DisagreementDistanceIsAMetric) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 2 + rng.NextBounded(40);
    const std::size_t k = 1 + rng.NextBounded(6);
    const Clustering a = RandomClustering(n, k, &rng);
    const Clustering b = RandomClustering(n, k, &rng);
    const Clustering c = RandomClustering(n, k, &rng);
    EXPECT_EQ(*DisagreementDistance(a, a), 0u);
    EXPECT_EQ(*DisagreementDistance(a, b), *DisagreementDistance(b, a));
    EXPECT_LE(*DisagreementDistance(a, c),
              *DisagreementDistance(a, b) + *DisagreementDistance(b, c));
    // d(a, b) = 0 must mean the partitions are identical up to label
    // names, i.e. equal after normalization.
    if (*DisagreementDistance(a, b) == 0) {
      EXPECT_EQ(a.Normalized().labels(), b.Normalized().labels());
    }
  }
}

// (b) The O(n^2) definition-level count and the contingency-table
// pair-counting count agree exactly — not approximately — on random
// complete clusterings of varying shape.
TEST(PropertyTest, NaiveAndContingencyDistancesAgreeExactly) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 1 + rng.NextBounded(64);
    const Clustering a =
        RandomClustering(n, 1 + rng.NextBounded(n), &rng);
    const Clustering b =
        RandomClustering(n, 1 + rng.NextBounded(n), &rng);
    EXPECT_EQ(*DisagreementDistance(a, b), *DisagreementDistanceNaive(a, b));
  }
}

// (c) Every clusterer's output cost D(C) is at least the per-pair lower
// bound sum over pairs of m * min(X_uv, 1 - X_uv): no algorithm may
// report a cost below what any partition must pay.
TEST(PropertyTest, EveryClustererCostAtLeastLowerBound) {
  const AggregationAlgorithm algorithms[] = {
      AggregationAlgorithm::kBestClustering,
      AggregationAlgorithm::kBalls,
      AggregationAlgorithm::kAgglomerative,
      AggregationAlgorithm::kFurthest,
      AggregationAlgorithm::kLocalSearch,
      AggregationAlgorithm::kPivot,
      AggregationAlgorithm::kAnnealing,
      AggregationAlgorithm::kMajority,
      AggregationAlgorithm::kExact,
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    // Small enough that EXACT runs as-is (no fallback): its oracle
    // answer anchors the sweep from below.
    const std::size_t n = 6 + rng.NextBounded(6);
    const ClusteringSet input =
        RandomClusteringSet(n, 3 + rng.NextBounded(4), 4, &rng);
    const double bound = DisagreementLowerBound(input);
    double exact_cost = -1.0;
    for (AggregationAlgorithm algorithm : algorithms) {
      SCOPED_TRACE(AggregationAlgorithmName(algorithm));
      AggregatorOptions options;
      options.algorithm = algorithm;
      options.num_threads = 1;
      Result<AggregationResult> result = Aggregate(input, options);
      ASSERT_TRUE(result.ok()) << result.status().message();
      // Tolerance only for float rounding in X_uv; the bound itself is
      // not approximate.
      EXPECT_GE(result->total_disagreements, bound - 1e-6);
      if (algorithm == AggregationAlgorithm::kExact) {
        exact_cost = result->total_disagreements;
      } else if (exact_cost >= 0.0) {
        EXPECT_GE(result->total_disagreements, exact_cost - 1e-6);
      }
    }
  }
}

// (d) D(C) depends only on the partition structure: renaming the
// candidate's cluster labels changes nothing (bit-exact), and applying
// one permutation to the objects of every input and the candidate
// changes at most the accumulation order.
TEST(PropertyTest, CostInvariantUnderLabelPermutation) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 2 + rng.NextBounded(48);
    const std::size_t k = 1 + rng.NextBounded(8);
    const ClusteringSet input =
        RandomClusteringSet(n, 2 + rng.NextBounded(5), k, &rng);
    const Clustering candidate = RandomClustering(n, k, &rng);
    // Rename label L to a distinct arbitrary id (13 L + 7 is injective
    // over the label range used here).
    std::vector<Clustering::Label> renamed(n);
    for (std::size_t v = 0; v < n; ++v) {
      renamed[v] = 13 * candidate.label(v) + 7;
    }
    const Result<double> base = input.TotalDisagreements(candidate);
    const Result<double> permuted =
        input.TotalDisagreements(Clustering(std::move(renamed)));
    ASSERT_TRUE(base.ok() && permuted.ok());
    EXPECT_EQ(*base, *permuted);
  }
}

TEST(PropertyTest, CostInvariantUnderObjectReordering) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 2 + rng.NextBounded(48);
    const std::size_t k = 1 + rng.NextBounded(8);
    const std::size_t m = 2 + rng.NextBounded(5);
    std::vector<Clustering> inputs;
    for (std::size_t i = 0; i < m; ++i) {
      inputs.push_back(RandomClustering(n, k, &rng));
    }
    const Clustering candidate = RandomClustering(n, k, &rng);
    const std::vector<std::size_t> perm = RandomPermutation(n, &rng);

    auto reorder = [&](const Clustering& c) {
      std::vector<Clustering::Label> labels(n);
      for (std::size_t v = 0; v < n; ++v) labels[perm[v]] = c.label(v);
      return Clustering(std::move(labels));
    };
    std::vector<Clustering> reordered;
    for (const Clustering& c : inputs) reordered.push_back(reorder(c));

    const ClusteringSet set = *ClusteringSet::Create(std::move(inputs));
    const ClusteringSet reordered_set =
        *ClusteringSet::Create(std::move(reordered));
    const Result<double> base = set.TotalDisagreements(candidate);
    const Result<double> permuted =
        reordered_set.TotalDisagreements(reorder(candidate));
    ASSERT_TRUE(base.ok() && permuted.ok());
    EXPECT_NEAR(*base, *permuted, 1e-9 * (1.0 + *base));
  }
}

// ---- Stream axioms -------------------------------------------------
//
// The stream's X sums clustering weights over the alive columns; with
// unit weights the sums are exact integers, so reordering the summands
// cannot change them and the axioms below hold *bit-exactly* (missing
// markers included — they only choose which unit summands appear).

/// Ingests events in order, flushes once, and returns the stream.
StreamAggregator StreamOf(const StreamAggregatorOptions& options,
                          const std::vector<StreamEvent>& events) {
  StreamAggregator stream{options};
  for (const StreamEvent& event : events) {
    Status status = stream.Ingest(event);
    EXPECT_TRUE(status.ok()) << status.message();
  }
  Result<StreamFlushReport> report = stream.Flush();
  EXPECT_TRUE(report.ok()) << report.status().message();
  return stream;
}

StreamAggregator StreamOf(const std::vector<StreamEvent>& events) {
  return StreamOf(StreamAggregatorOptions{}, events);
}

void ExpectSameStreamState(const StreamAggregator& a,
                           const StreamAggregator& b) {
  ASSERT_EQ(a.num_objects(), b.num_objects());
  ASSERT_EQ(a.num_clusterings(), b.num_clusterings());
  for (std::size_t v = 1; v < a.num_objects(); ++v) {
    for (std::size_t u = 0; u < v; ++u) {
      ASSERT_EQ(a.distance(u, v), b.distance(u, v))
          << "X mismatch at pair (" << u << ", " << v << ")";
    }
  }
  EXPECT_EQ(a.cost(), b.cost());
  EXPECT_EQ(a.labels().labels(), b.labels().labels());
}

Clustering RandomClusteringWithMissing(std::size_t n,
                                       std::size_t max_clusters, double p,
                                       Rng* rng) {
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = rng->NextBernoulli(p)
                    ? Clustering::kMissing
                    : static_cast<Clustering::Label>(
                          rng->NextBounded(max_clusters));
  }
  return Clustering(std::move(labels));
}

// (e) Ingest-order permutation of AddClustering events yields identical
// X and cost, bit for bit (unit weights).
TEST(PropertyTest, StreamClusteringOrderPermutationInvariant) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 2 + rng.NextBounded(12);
    const std::size_t m = 2 + rng.NextBounded(5);
    std::vector<StreamEvent> events;
    for (std::size_t i = 0; i < m; ++i) {
      events.emplace_back(AddClusteringEvent{
          RandomClusteringWithMissing(n, 1 + rng.NextBounded(4), 0.15, &rng)
              .labels(),
          1.0});
    }
    std::vector<StreamEvent> permuted;
    for (std::size_t i : RandomPermutation(m, &rng)) {
      permuted.push_back(events[i]);
    }
    ExpectSameStreamState(StreamOf(events), StreamOf(permuted));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// (f) AddObject then AddClustering commutes with the reverse order when
// the two events are transposed consistently: the clustering truncated
// to the old objects first, with the new object's label moved onto the
// object event.
TEST(PropertyTest, StreamObjectAndClusteringCommute) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 2 + rng.NextBounded(10);
    const std::size_t m = 1 + rng.NextBounded(4);
    std::vector<StreamEvent> base;
    for (std::size_t i = 0; i < m; ++i) {
      base.emplace_back(AddClusteringEvent{
          RandomClusteringWithMissing(n, 3, 0.1, &rng).labels(), 1.0});
    }
    // The transposed pair: object tuple over the m existing clusterings,
    // and a new clustering over n + 1 objects.
    const Clustering tuple = RandomClusteringWithMissing(m, 3, 0.1, &rng);
    const Clustering full =
        RandomClusteringWithMissing(n + 1, 3, 0.1, &rng);
    std::vector<Clustering::Label> truncated(full.labels().begin(),
                                             full.labels().end() - 1);
    std::vector<Clustering::Label> extended_tuple = tuple.labels();
    extended_tuple.push_back(full.label(n));

    std::vector<StreamEvent> object_first = base;
    object_first.emplace_back(AddObjectEvent{tuple.labels()});
    object_first.emplace_back(AddClusteringEvent{full.labels(), 1.0});

    std::vector<StreamEvent> clustering_first = base;
    clustering_first.emplace_back(AddClusteringEvent{truncated, 1.0});
    clustering_first.emplace_back(AddObjectEvent{extended_tuple});

    ExpectSameStreamState(StreamOf(object_first),
                          StreamOf(clustering_first));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// (g) Adding a clustering and then removing it again is an exact no-op:
// X, cost, and labels land bit-identical to a stream that never saw the
// pair, for unit and fractional weights alike, because the surviving
// columns re-sum in the same ascending order the base stream used.
TEST(PropertyTest, StreamAddThenRemoveClusteringIsANoOp) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 2 + rng.NextBounded(10);
    const std::size_t m = 2 + rng.NextBounded(4);
    std::vector<StreamEvent> base;
    for (std::size_t i = 0; i < m; ++i) {
      base.emplace_back(AddClusteringEvent{
          RandomClusteringWithMissing(n, 3, 0.1, &rng).labels(), 1.0});
    }
    const Clustering extra = RandomClusteringWithMissing(n, 3, 0.1, &rng);
    for (const double weight : {1.0, 2.5}) {
      SCOPED_TRACE("weight = " + std::to_string(weight));
      std::vector<StreamEvent> round_trip = base;
      round_trip.emplace_back(AddClusteringEvent{extra.labels(), weight});
      // The extra clustering is the (m+1)-th ingested, so its stable id
      // is m (0-based, never reused).
      round_trip.emplace_back(RemoveClusteringEvent{m});
      ExpectSameStreamState(StreamOf(base), StreamOf(round_trip));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// (h) A sliding window of size w over k > w adds lands bit-identical to
// a fresh unbounded stream fed only the surviving suffix, and the
// survivors keep their original stable ids.
TEST(PropertyTest, StreamWindowEqualsSuffixOnlyStream) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 2 + rng.NextBounded(10);
    const std::size_t w = 2 + rng.NextBounded(3);
    const std::size_t k = w + 1 + rng.NextBounded(4);
    std::vector<StreamEvent> adds;
    for (std::size_t i = 0; i < k; ++i) {
      adds.emplace_back(AddClusteringEvent{
          RandomClusteringWithMissing(n, 3, 0.1, &rng).labels(), 1.0});
    }
    StreamAggregatorOptions windowed_options;
    windowed_options.window = w;
    const StreamAggregator windowed = StreamOf(windowed_options, adds);
    const std::vector<StreamEvent> suffix(adds.end() - w, adds.end());
    ExpectSameStreamState(windowed, StreamOf(suffix));
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(windowed.clustering_ids().size(), w);
    for (std::size_t j = 0; j < w; ++j) {
      EXPECT_EQ(windowed.clustering_ids()[j], k - w + j);
    }
  }
}

// (i) Window eviction is order-consistent: permuting the doomed prefix
// among itself and the surviving suffix among itself changes nothing —
// eviction is strictly FIFO, so the same positions die, and X over the
// surviving multiset is permutation-invariant bit for bit (e).
TEST(PropertyTest, StreamWindowEvictionPermutationConsistent) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 2 + rng.NextBounded(10);
    const std::size_t w = 2 + rng.NextBounded(3);
    const std::size_t k = w + 2 + rng.NextBounded(4);
    std::vector<StreamEvent> adds;
    for (std::size_t i = 0; i < k; ++i) {
      adds.emplace_back(AddClusteringEvent{
          RandomClusteringWithMissing(n, 3, 0.1, &rng).labels(), 1.0});
    }
    std::vector<StreamEvent> permuted;
    for (std::size_t i : RandomPermutation(k - w, &rng)) {
      permuted.push_back(adds[i]);
    }
    for (std::size_t i : RandomPermutation(w, &rng)) {
      permuted.push_back(adds[k - w + i]);
    }
    StreamAggregatorOptions options;
    options.window = w;
    ExpectSameStreamState(StreamOf(options, adds),
                          StreamOf(options, permuted));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --------------------------------------------- packed label kernel

/// Forces a packed-kernel tier for the enclosing scope, restoring the
/// default on destruction.
class TierOverride {
 public:
  explicit TierOverride(internal::PackedKernelTier tier) {
    internal::SetPackedKernelTierForTest(&tier);
  }
  ~TierOverride() { internal::SetPackedKernelTierForTest(nullptr); }
};

/// All pairwise distances float(PairwiseDistance(u, v)): the independent
/// reference every kernel tier must reproduce bit for bit.
std::vector<double> ReferenceDistances(const ClusteringSet& input) {
  const std::size_t n = input.num_objects();
  std::vector<double> flat;
  flat.reserve(n * n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      flat.push_back(static_cast<float>(input.PairwiseDistance(u, v)));
    }
  }
  return flat;
}

/// All pairwise lazy distances of `input` computed under `tier`, via
/// both the point-query path and FillRow (which must agree).
std::vector<double> LazyDistancesAtTier(const ClusteringSet& input,
                                        internal::PackedKernelTier tier) {
  TierOverride guard(tier);
  Result<std::shared_ptr<const LazyDistanceSource>> lazy =
      LazyDistanceSource::Build(input, {});
  EXPECT_TRUE(lazy.ok()) << lazy.status().message();
  const std::size_t n = input.num_objects();
  std::vector<double> flat;
  flat.reserve(n * n);
  std::vector<double> row(n);
  for (std::size_t u = 0; u < n; ++u) {
    (*lazy)->FillRow(u, row);
    for (std::size_t v = 0; v < n; ++v) {
      const double d = (*lazy)->distance(u, v);
      EXPECT_EQ(row[v], d) << "u=" << u << " v=" << v;
      flat.push_back(d);
    }
  }
  return flat;
}

/// A ClusteringSet whose column i draws labels from an alphabet of
/// exactly alphabet[i] symbols (every symbol appears at least once when
/// n allows, pinning the packed lane width).
ClusteringSet AlphabetInput(std::size_t n,
                            const std::vector<std::size_t>& alphabets,
                            Rng* rng) {
  std::vector<Clustering> inputs;
  for (std::size_t k : alphabets) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      // First k objects get symbols 0..k-1 in order so the alphabet is
      // fully occupied; the rest draw uniformly.
      labels[v] = static_cast<Clustering::Label>(
          v < k ? v : rng->NextBounded(k));
    }
    inputs.emplace_back(std::move(labels));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  EXPECT_TRUE(set.ok()) << set.status().message();
  return *std::move(set);
}

// (p1) Packed axiom: across alphabet sizes spanning every lane width
// (binary through >16 labels) and every m in 1..12, the SWAR and AVX2
// tiers answer float(PairwiseDistance) bit for bit, on the point query
// and on FillRow.
TEST(PackedKernelProperty, BitIdenticalAcrossAlphabetAndWidthSweep) {
  const std::size_t n = 48;
  Rng rng(4242);
  for (std::size_t alphabet : {2u, 3u, 4u, 5u, 16u, 17u, 40u, 300u}) {
    for (std::size_t m = 1; m <= 12; ++m) {
      SCOPED_TRACE("alphabet = " + std::to_string(alphabet) +
                   ", m = " + std::to_string(m));
      const ClusteringSet input = AlphabetInput(
          n, std::vector<std::size_t>(m, alphabet), &rng);
      const std::vector<double> reference = ReferenceDistances(input);
      EXPECT_EQ(reference, LazyDistancesAtTier(
                               input, internal::PackedKernelTier::kSwar));
      EXPECT_EQ(reference, LazyDistancesAtTier(
                               input, internal::PackedKernelTier::kAvx2));
    }
  }
}

// (p2) Lane-width boundary fuzz: mixed per-column alphabets drawn from
// the width-transition sizes (1<->2<->4<->8<->16 bits), which exercises
// multi-class and multi-word layouts and the layout-choice heuristic.
TEST(PackedKernelProperty, MixedWidthBoundaryFuzz) {
  const std::size_t boundary_sizes[] = {2, 3, 4, 5, 15, 16, 17, 30,
                                        33, 40, 256, 257, 300};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 16 + rng.NextBounded(48);
    const std::size_t m = 1 + rng.NextBounded(12);
    std::vector<std::size_t> alphabets(m);
    for (std::size_t i = 0; i < m; ++i) {
      alphabets[i] = boundary_sizes[rng.NextBounded(
          sizeof(boundary_sizes) / sizeof(boundary_sizes[0]))];
    }
    const ClusteringSet input = AlphabetInput(n, alphabets, &rng);
    const std::vector<double> reference = ReferenceDistances(input);
    EXPECT_EQ(reference, LazyDistancesAtTier(
                             input, internal::PackedKernelTier::kSwar));
    EXPECT_EQ(reference, LazyDistancesAtTier(
                             input, internal::PackedKernelTier::kAvx2));
  }
}

// (p3) Eligibility: instances with missing labels or non-unit weights
// must fall back to the general loop automatically — and still answer
// float(PairwiseDistance) bit for bit.
TEST(PackedKernelProperty, MissingAndWeightedInstancesFallBack) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 24;
    const std::size_t m = 1 + rng.NextBounded(9);
    for (const bool weighted : {false, true}) {
      for (const double missing_rate : {0.0, 0.25}) {
        if (!weighted && missing_rate == 0.0) continue;
        std::vector<Clustering> inputs;
        std::vector<double> weights;
        for (std::size_t i = 0; i < m; ++i) {
          std::vector<Clustering::Label> labels(n);
          for (std::size_t v = 0; v < n; ++v) {
            labels[v] = rng.NextBernoulli(missing_rate)
                            ? Clustering::kMissing
                            : static_cast<Clustering::Label>(
                                  rng.NextBounded(6));
          }
          inputs.emplace_back(std::move(labels));
          if (weighted) weights.push_back(0.5 + rng.NextDouble());
        }
        const ClusteringSet input = *ClusteringSet::Create(
            std::move(inputs), std::move(weights));
        {
          TierOverride guard(internal::PackedKernelTier::kSwar);
          Result<std::shared_ptr<const LazyDistanceSource>> lazy =
              LazyDistanceSource::Build(input, {});
          ASSERT_TRUE(lazy.ok());
          EXPECT_FALSE((*lazy)->uses_packed_labels());
        }
        EXPECT_EQ(ReferenceDistances(input),
                  LazyDistancesAtTier(input,
                                      internal::PackedKernelTier::kSwar));
      }
    }
  }
}

// (p4) Plain instances pack under every tier; the packed decision is
// observable.
TEST(PackedKernelProperty, PlainInstancesPackUnderPackingTiers) {
  Rng rng(7);
  const ClusteringSet input = AlphabetInput(30, {4, 4, 9}, &rng);
  for (internal::PackedKernelTier tier :
       {internal::PackedKernelTier::kSwar,
        internal::PackedKernelTier::kAvx2}) {
    TierOverride guard(tier);
    Result<std::shared_ptr<const LazyDistanceSource>> lazy =
        LazyDistanceSource::Build(input, {});
    ASSERT_TRUE(lazy.ok());
    EXPECT_TRUE((*lazy)->uses_packed_labels());
  }
}

// (p5) PackLabelRows eligibility boundaries: only m = 0 is ineligible.
// Exactly 2^16 distinct labels packs at width 16, and one more label
// moves the column to a 32-bit lane. The 2^16 + 1 case needs that many
// objects, so the rows are synthesized directly rather than through a
// ClusteringSet.
TEST(PackedKernelProperty, PackEligibilityBoundaries) {
  EXPECT_EQ(internal::PackLabelRows(nullptr, 0, 0), nullptr);

  const std::size_t at_limit = std::size_t{1} << 16;
  std::vector<Clustering::Label> rows(at_limit + 1);
  for (std::size_t v = 0; v < rows.size(); ++v) {
    rows[v] = static_cast<Clustering::Label>(v);
  }
  for (const std::size_t n : {at_limit, at_limit + 1}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::unique_ptr<internal::PackedLabels> packed =
        internal::PackLabelRows(rows.data(), n, 1);
    ASSERT_NE(packed, nullptr);
    ASSERT_EQ(packed->classes.size(), 1u);
    EXPECT_EQ(packed->classes[0].width, n == at_limit ? 16u : 32u);
    EXPECT_EQ(internal::CountMismatchesPacked(*packed, 0, n - 1), 1u);
    EXPECT_EQ(internal::CountMismatchesPacked(*packed, n - 1, n - 1), 0u);
  }
}

// (p6) The packed mismatch count is the plain mismatch integer for
// every pair, verified directly against a reference count over the
// original labels (not just through the divided distances).
TEST(PackedKernelProperty, PackedCountMatchesReferenceCount) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 8 + rng.NextBounded(40);
    const std::size_t m = 1 + rng.NextBounded(12);
    std::vector<Clustering::Label> rows(n * m);
    for (auto& label : rows) {
      label = static_cast<Clustering::Label>(rng.NextBounded(1 + rng.NextBounded(300)));
    }
    std::unique_ptr<internal::PackedLabels> packed =
        internal::PackLabelRows(rows.data(), n, m);
    ASSERT_NE(packed, nullptr);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        std::size_t expected = 0;
        for (std::size_t i = 0; i < m; ++i) {
          expected += rows[u * m + i] != rows[v * m + i] ? 1 : 0;
        }
        EXPECT_EQ(internal::CountMismatchesPacked(*packed, u, v),
                  expected)
            << "u=" << u << " v=" << v;
      }
    }
  }
}

// ------------------------------------------------ local query oracle

/// The single global CC-PIVOT pass the local oracle simulates,
/// normalized (PivotClusterer with repetitions = 1).
Clustering ReferencePivotRun(const ClusteringSet& input,
                             std::uint64_t seed) {
  Result<CorrelationInstance> instance =
      CorrelationInstance::Build(input);
  EXPECT_TRUE(instance.ok()) << instance.status().message();
  PivotOptions options;
  options.repetitions = 1;
  options.seed = seed;
  Result<ClustererRun> run =
      PivotClusterer(options).RunControlled(*instance, RunContext());
  EXPECT_TRUE(run.ok()) << run.status().message();
  return run->clustering.Normalized();
}

// (l1) Query-order invariance: the pivot assignment the oracle reports
// for an object does not depend on what was queried before it — fresh
// oracles queried in different orders give identical answer maps.
TEST(LocalOracleProperty, QueryOrderInvariance) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed * 13);
    const std::size_t n = 2 + rng.NextBounded(40);
    const ClusteringSet input =
        RandomClusteringSet(n, 3, 1 + rng.NextBounded(4), &rng);
    LocalOracleOptions options;
    options.seed = seed;
    std::vector<std::size_t> reference;
    for (std::size_t trial = 0; trial < 3; ++trial) {
      Result<LocalMembershipOracle> oracle =
          LocalMembershipOracle::FromClusterings(input, {}, options);
      ASSERT_TRUE(oracle.ok()) << oracle.status().message();
      std::vector<std::size_t> pivots(n);
      for (std::size_t u : RandomPermutation(n, &rng)) {
        Result<MembershipAnswer> answer = oracle->ClusterOf(u);
        ASSERT_TRUE(answer.ok());
        pivots[u] = answer->pivot;
      }
      if (trial == 0) {
        reference = std::move(pivots);
      } else {
        EXPECT_EQ(pivots, reference) << "trial " << trial;
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// (l2) Object-permutation equivariance of the local/global agreement:
// for every relabeling of the object universe, the oracle still
// reproduces the global run over that presentation bit-identically (the
// pin is not an artifact of one fixed object order).
TEST(LocalOracleProperty, ObjectPermutationKeepsLocalGlobalAgreement) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed * 29);
    const std::size_t n = 2 + rng.NextBounded(40);
    const std::size_t m = 2 + rng.NextBounded(3);
    const ClusteringSet base =
        RandomClusteringSet(n, m, 1 + rng.NextBounded(4), &rng);
    const std::vector<std::size_t> sigma = RandomPermutation(n, &rng);
    std::vector<Clustering> permuted;
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<Clustering::Label> labels(n);
      for (std::size_t v = 0; v < n; ++v) {
        labels[v] = base.clusterings()[i].labels()[sigma[v]];
      }
      permuted.emplace_back(std::move(labels));
    }
    Result<ClusteringSet> input =
        ClusteringSet::Create(std::move(permuted));
    ASSERT_TRUE(input.ok());
    LocalOracleOptions options;
    options.seed = seed;
    Result<LocalMembershipOracle> oracle =
        LocalMembershipOracle::FromClusterings(*input, {}, options);
    ASSERT_TRUE(oracle.ok());
    Result<Clustering> local = oracle->MaterializeLabels();
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(*local, ReferencePivotRun(*input, seed));
    if (::testing::Test::HasFailure()) return;
  }
}

// (l3) Seed determinism across backends and kernel tiers: one seed, one
// answer — dense and lazy sources and every packed tier materialize the
// same labeling, which is the global run's.
TEST(LocalOracleProperty, SeedDeterminismAcrossBackendsAndTiers) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed * 97);
    const std::size_t n = 2 + rng.NextBounded(40);
    const ClusteringSet input =
        RandomClusteringSet(n, 2 + rng.NextBounded(3),
                            1 + rng.NextBounded(4), &rng);
    LocalOracleOptions options;
    options.seed = seed;
    const Clustering global = ReferencePivotRun(input, seed);

    Result<std::shared_ptr<const DenseDistanceSource>> dense =
        DenseDistanceSource::Build(input, {});
    ASSERT_TRUE(dense.ok());
    Result<LocalMembershipOracle> dense_oracle =
        LocalMembershipOracle::Create(*dense, options);
    ASSERT_TRUE(dense_oracle.ok());
    Result<Clustering> dense_labels = dense_oracle->MaterializeLabels();
    ASSERT_TRUE(dense_labels.ok());
    EXPECT_EQ(*dense_labels, global);

    for (internal::PackedKernelTier tier :
         {internal::PackedKernelTier::kSwar,
          internal::PackedKernelTier::kAvx2}) {
      SCOPED_TRACE(internal::PackedKernelTierName(tier));
      TierOverride guard(tier);
      Result<LocalMembershipOracle> oracle =
          LocalMembershipOracle::FromClusterings(input, {}, options);
      ASSERT_TRUE(oracle.ok());
      Result<Clustering> labels = oracle->MaterializeLabels();
      ASSERT_TRUE(labels.ok());
      EXPECT_EQ(*labels, global);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// (l4) Sublinearity, asserted hard: on a planted instance of k
// well-separated clusters over n = 2000 objects, per-query work is
// governed by k, not n. Every query must converge under a shared
// iteration budget of 200 candidate steps per query (a tenth of one
// linear scan each), and the recorded pivot-inspection and
// distance-query totals stay far below Q * n. The same totals feed the
// local.pivot_inspections / local.distance_queries telemetry counters
// (checked for agreement when telemetry is compiled in).
TEST(LocalOracleProperty, PlantedClustersQuerySublinearly) {
  const std::size_t n = 2000;
  const std::size_t k = 20;
  const std::size_t kQueries = 200;
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = static_cast<Clustering::Label>(v % k);
  }
  std::vector<Clustering> inputs(3, Clustering(labels));
  Result<ClusteringSet> input = ClusteringSet::Create(std::move(inputs));
  ASSERT_TRUE(input.ok());
  Result<LocalMembershipOracle> oracle =
      LocalMembershipOracle::FromClusterings(*input, {}, {});
  ASSERT_TRUE(oracle.ok());

  Telemetry telemetry;
  const RunContext run =
      RunContext::WithIterationBudget(kQueries * 200)
          .WithTelemetry(&telemetry);
  Rng rng(77);
  std::uint64_t total_inspections = 0;
  std::uint64_t total_distance_queries = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const std::size_t u = rng.NextBounded(n);
    Result<MembershipAnswer> answer = oracle->ClusterOf(u, run);
    ASSERT_TRUE(answer.ok());
    // The hard budget never fires: every query is far below even one
    // linear scan.
    ASSERT_EQ(answer->outcome, RunOutcome::kConverged) << "query " << q;
    total_inspections += answer->pivot_inspections;
    total_distance_queries += answer->distance_queries;
    // A chain in a planted instance is the object plus at most its
    // cluster pivot.
    EXPECT_LE(answer->chain_depth, 2u) << "query " << q;
  }
  // Adjudications are cluster-structure work: a small constant per
  // query, nowhere near n.
  EXPECT_LE(total_inspections, 4 * kQueries);
  // Distance probes per query concentrate around k (the scan stops at
  // the first same-cluster candidate); 10 k per query is a generous
  // hard ceiling, and two orders of magnitude below n.
  EXPECT_LE(total_distance_queries, kQueries * 10 * k);
  EXPECT_EQ(telemetry.counter("local.pivot_inspections")->value(),
            total_inspections);
  EXPECT_EQ(telemetry.counter("local.distance_queries")->value(),
            total_distance_queries);
  EXPECT_EQ(telemetry.counter("local.queries")->value(), kQueries);
}

}  // namespace
}  // namespace clustagg
