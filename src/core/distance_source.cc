#include "core/distance_source.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "core/clustering.h"
#include "core/instrumentation.h"
#include "core/internal/packed_labels.h"

namespace clustagg {

namespace internal {

/// An instance's label columns, hoisted once at build time so that
/// distance queries never re-walk Clustering objects or re-resolve the
/// missing-value policy setup per pair. A unit-weight instance (every
/// weight exactly 1.0) keeps only its bit-packed rows. Its general-loop
/// sums are exact integers — opinionated is the number of clusterings
/// labelling both objects, disagreeing the number of those separating
/// them — so X_uv is a function of those two counts alone:
///  - without a missing label, opinionated == total_weight == m, the
///    kRandomCoin correction adds exactly 0.0, and both policies divide
///    the mismatch count by m (an (m+1)-entry table);
///  - with one, the packed rows carry presence masks and X_uv is looked
///    up in an (m+1) x (m+1) table of (observed, mismatched) cells whose
///    entries are the general loop's own closing arithmetic
///    (MissingValueOptions::PairDistance), so both policies stay
///    bit-identical.
/// Weighted instances, and those with a missing label and more than
/// kMaxMissingCellColumns clusterings, keep object-major label rows for
/// the general loop.
struct DistanceColumns {
  std::size_t n = 0;
  std::size_t m = 0;
  /// Label rows of a general-loop instance, empty for a packed one:
  /// labels[v * m + i] is the label of object v (in source index space)
  /// under input clustering i, so the pair (u, v) compares two
  /// contiguous m-length rows instead of striding by n across m columns.
  std::vector<Clustering::Label> labels;
  std::vector<double> weights;
  double total_weight = 0.0;
  MissingValueOptions missing;
  /// Bit-packed label lanes of a unit-weight instance (see
  /// core/internal/packed_labels.h), nullptr otherwise.
  std::unique_ptr<PackedLabels> packed;
  /// Hot fields of *packed, flattened so a single point query reads
  /// them straight off this struct (already in cache from the bounds
  /// check) instead of chasing packed -> words/classes — three
  /// dependent loads that would dominate a ~10-op kernel.
  /// packed_words is non-null only for single-word plain layouts.
  const std::uint64_t* packed_words = nullptr;
  std::uint64_t packed_lsb_mask = 0;
  std::uint32_t packed_width = 0;
  std::uint32_t packed_mul_shift = 0;
  bool packed_mul = false;
  /// float(ColumnDistance) widened back to double, indexed by the
  /// mismatch count c in [0, m] on a plain layout, by the cell
  /// observed * (m + 1) + mismatched (internal::PackedMissingCell) on
  /// one with presence masks. The query path trades the arithmetic for
  /// an L1 load.
  std::vector<double> packed_value;
};

}  // namespace internal

namespace {

/// Widest instance with a missing label whose pairs are packed. The
/// bound is on the (m+1)^2 cell table, which grows quadratically in m:
/// at 255 it holds 64 Ki doubles (512 KB), beyond that the general loop
/// runs instead.
constexpr std::size_t kMaxMissingCellColumns = 255;

/// Fills the (observed, mismatched) cell table of a unit-weight
/// instance with a missing label. With unit weights the general loop's
/// sums are exactly double(observed) and double(mismatched), so every
/// entry is that loop's result for the pairs landing in the cell. Cells
/// with mismatched > observed never occur and stay 0.
void BuildMissingCellTable(internal::DistanceColumns& cols) {
  const std::size_t stride = cols.m + 1;
  cols.packed_value.assign(stride * stride, 0.0);
  for (std::size_t observed = 0; observed <= cols.m; ++observed) {
    for (std::size_t mismatched = 0; mismatched <= observed; ++mismatched) {
      cols.packed_value[observed * stride + mismatched] =
          static_cast<float>(cols.missing.PairDistance(
              static_cast<double>(mismatched),
              static_cast<double>(observed), cols.total_weight));
    }
  }
}

internal::DistanceColumns MakeColumns(const ClusteringSet& input,
                                      const MissingValueOptions& missing) {
  internal::DistanceColumns cols;
  cols.n = input.num_objects();
  cols.m = input.num_clusterings();
  cols.missing = missing;
  cols.total_weight = input.total_weight();
  cols.weights.resize(cols.m);
  std::vector<Clustering::Label> rows(cols.m * cols.n);
  bool any_missing = false;
  bool uniform = true;
  for (std::size_t i = 0; i < cols.m; ++i) {
    cols.weights[i] = input.weight(i);
    if (cols.weights[i] != 1.0) uniform = false;
    const Clustering& c = input.clustering(i);
    Clustering::Label* out = rows.data() + i;
    for (std::size_t v = 0; v < cols.n; ++v) {
      const Clustering::Label label = c.label(v);
      if (label == Clustering::kMissing) any_missing = true;
      out[v * cols.m] = label;
    }
  }
  if (!uniform || (any_missing && cols.m > kMaxMissingCellColumns)) {
    cols.labels = std::move(rows);
    return cols;
  }
  cols.packed =
      internal::PackLabelRows(rows.data(), cols.n, cols.m, any_missing);
  CLUSTAGG_CHECK(cols.packed != nullptr);
  if (any_missing) {
    BuildMissingCellTable(cols);
    return cols;
  }
  cols.packed_value =
      internal::BuildPackedValueLut(cols.m, cols.total_weight);
  if (cols.packed->words_per_object == 1) {
    const internal::PackedClass& cls = cols.packed->classes[0];
    cols.packed_words = cols.packed->words.data();
    cols.packed_lsb_mask = cls.lsb_mask;
    cols.packed_width = cls.width;
    cols.packed_mul_shift = cols.packed->mul_shift;
    cols.packed_mul = cols.packed->mul_count_ok;
  }
  return cols;
}

/// X_uv over the hoisted columns. The general accumulation order
/// (ascending i) and arithmetic match ClusteringSet::PairwiseDistance
/// exactly so both backends (and the legacy serial builder) agree to the
/// last bit; the packed counts produce the same bits by the argument on
/// DistanceColumns.
double ColumnDistance(const internal::DistanceColumns& cols, std::size_t u,
                      std::size_t v) {
  if (u == v) return 0.0;
  if (cols.packed_words != nullptr) {
    // Single packed word per object: XOR + lane-collapse + count +
    // LUT. All operands live on this struct or in two word loads, so
    // the query carries no pointer chain.
    const std::uint64_t collapsed = internal::CollapseToLaneLsb(
        cols.packed_words[u] ^ cols.packed_words[v], cols.packed_width,
        cols.packed_lsb_mask);
    const std::size_t mismatches =
        cols.packed_mul
            ? (collapsed * cols.packed_lsb_mask) >> cols.packed_mul_shift
            : internal::Popcount64(collapsed);
    return cols.packed_value[mismatches];
  }
  // [[unlikely]] moves the inlined multi-word loop off the fall-through
  // path; without it GCC saves six callee-saved registers on entry, so
  // every single-word query above pays for the multi-word one.
  if (cols.packed != nullptr) [[unlikely]] {
    // Multi-word or missing-label packed layout: per-class SWAR counts,
    // then the table.
    const internal::PackedLabels& p = *cols.packed;
    return cols.packed_value[p.has_missing()
                                 ? internal::PackedMissingCell(p, u, v)
                                 : internal::CountMismatchesPacked(p, u, v)];
  }
  const std::size_t m = cols.m;
  const Clustering::Label* row_u = cols.labels.data() + u * m;
  const Clustering::Label* row_v = cols.labels.data() + v * m;
  double disagreeing = 0.0;
  double opinionated = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const Clustering::Label lu = row_u[i];
    const Clustering::Label lv = row_v[i];
    if (lu == Clustering::kMissing || lv == Clustering::kMissing) continue;
    opinionated += cols.weights[i];
    if (lu != lv) disagreeing += cols.weights[i];
  }
  return cols.missing.PairDistance(disagreeing, opinionated,
                                   cols.total_weight);
}

Result<std::shared_ptr<const DenseDistanceSource>> BuildDenseFromColumns(
    const internal::DistanceColumns& cols, std::size_t num_threads,
    const RunContext& run) {
  if (cols.n > 1 && run.SimulateAllocationFailure(cols.n * (cols.n - 1) / 2 *
                                                  sizeof(float))) {
    return Status::ResourceExhausted(
        "simulated allocation failure for the dense distance matrix (" +
        std::to_string(cols.n) + " objects)");
  }
  Result<SymmetricMatrix<float>> matrix =
      SymmetricMatrix<float>::Create(cols.n);
  if (!matrix.ok()) return matrix.status();
  SymmetricMatrix<float> distances = std::move(matrix).value();
  const std::size_t n = cols.n;
  std::vector<float>& packed = distances.packed();
  const std::size_t threads =
      EffectiveRowThreads(n, ResolveThreadCount(num_threads));
  TelemetryCount(run.telemetry(), "build.dense_builds");
  TelemetrySetGauge(run.telemetry(), "build.dense_threads",
                    static_cast<std::int64_t>(threads));
  InstrumentedTimer build_timer(run.telemetry(), "build.dense_nanos");
  // Cache-blocked fill: the triangle is carved into row bands, and each
  // band of a general-loop instance sweeps its columns in
  // kTileCols-wide tiles so the tile's label rows (kTileCols * m labels)
  // stay cache-resident while every row of the band visits them. Bands
  // are disjoint contiguous slices of the packed store, so every thread
  // writes its own memory and the result is schedule-independent
  // regardless of how bands land on threads. Each band charges its row
  // count against the iteration budget (the loop helper charges one unit
  // per band; the top-up below restores per-row accounting). A
  // half-filled matrix is unusable, so when the budget fires mid-fill
  // the build fails with the interrupt status rather than returning
  // garbage.
  constexpr std::size_t kTileRows = 64;
  constexpr std::size_t kTileCols = 256;
  // Cost-weighted bands: row u owns n - u - 1 pairs, so fixed-height
  // bands at the top of the triangle carry up to twice the average work
  // and a chunk of consecutive heavy bands claimed by one thread becomes
  // the straggler that flattens thread scaling. Bands here grow until
  // they hold ~kTileRows * n / 2 pairs (an average fixed band's mass) or
  // hit the kTileRows cache-tile height, so every claimed chunk carries
  // near-equal work: heavy top rows get short bands, light bottom rows
  // fill to the tile height. Boundaries depend only on n — never on the
  // thread count — so the fill and its exact per-row iteration
  // accounting stay schedule-independent.
  std::vector<std::size_t> band_start;
  band_start.reserve(n / (kTileRows / 2) + 2);
  const std::uint64_t target_pairs =
      static_cast<std::uint64_t>(kTileRows) * static_cast<std::uint64_t>(n) /
      2;
  for (std::size_t u0 = 0; u0 < n;) {
    band_start.push_back(u0);
    std::uint64_t mass = 0;
    std::size_t u1 = u0;
    while (u1 < n && u1 - u0 < kTileRows) {
      mass += static_cast<std::uint64_t>(n - u1 - 1);
      ++u1;
      if (mass >= target_pairs) break;
    }
    u0 = u1;
  }
  band_start.push_back(n);
  const std::size_t num_bands = band_start.size() - 1;
  const bool completed = ParallelForRows(
      num_bands, threads, run, [&](std::size_t band, std::size_t) {
        const std::size_t u0 = band_start[band];
        const std::size_t u1 = band_start[band + 1];
        if (u1 - u0 > 1) run.ChargeIterations(u1 - u0 - 1);
        if (cols.packed != nullptr) {
          // Packed rows are a word or two per object — the whole packed
          // store usually fits in L1 — so no column tiling is needed:
          // each matrix row's tail [u+1, n) is filled in one contiguous
          // sweep by the SWAR/AVX2 row kernel (which prefetches the
          // v-words ahead of itself).
          for (std::size_t u = u0; u < u1; ++u) {
            if (u + 1 >= n) continue;
            internal::PackedMismatchRowFloat(
                *cols.packed, u, u + 1, n, cols.total_weight,
                cols.packed_value.data(),
                packed.data() + distances.PackedIndex(u, u + 1));
          }
          return;
        }
        for (std::size_t c0 = u0 + 1; c0 < n; c0 += kTileCols) {
          const std::size_t c1 = std::min(n, c0 + kTileCols);
          for (std::size_t u = u0; u < u1; ++u) {
            const std::size_t v0 = std::max(c0, u + 1);
            if (v0 >= c1) continue;
            float* row = packed.data() + distances.PackedIndex(u, v0);
            for (std::size_t v = v0; v < c1; ++v) {
              row[v - v0] = static_cast<float>(ColumnDistance(cols, u, v));
            }
          }
        }
      });
  if (!completed) return run.InterruptStatus();
  return std::make_shared<const DenseDistanceSource>(std::move(distances));
}

}  // namespace

const char* DistanceBackendName(DistanceBackend backend) {
  switch (backend) {
    case DistanceBackend::kDense:
      return "dense";
    case DistanceBackend::kLazy:
      return "lazy";
  }
  CLUSTAGG_CHECK(false);
  return "unknown";
}

void DistanceSource::FillRow(std::size_t u, std::span<double> row) const {
  const std::size_t n = size();
  CLUSTAGG_CHECK(u < n && row.size() >= n);
  for (std::size_t v = 0; v < n; ++v) row[v] = distance(u, v);
}

void DistanceSource::AgreementRow(std::size_t u,
                                  std::span<char> agree) const {
  const std::size_t n = size();
  CLUSTAGG_CHECK(u < n && agree.size() >= n);
  for (std::size_t v = 0; v < n; ++v) {
    agree[v] = distance(u, v) < 0.5 ? 1 : 0;
  }
}

Result<std::shared_ptr<const DenseDistanceSource>> DenseDistanceSource::Build(
    const ClusteringSet& input, const MissingValueOptions& missing,
    std::size_t num_threads, const RunContext& run) {
  if (Status s = missing.Validate(); !s.ok()) return s;
  return BuildDenseFromColumns(MakeColumns(input, missing), num_threads,
                               run);
}

void DenseDistanceSource::FillRow(std::size_t u, std::span<double> row) const {
  const std::size_t n = distances_.size();
  CLUSTAGG_CHECK(u < n && row.size() >= n);
  if (u > 0) {
    // Column u of the strict upper triangle: entry (v, u) sits at packed
    // offset PackedIndex(v, u), and stepping v -> v+1 shrinks row v's
    // remaining tail by one, so consecutive entries are n - v - 2 apart.
    // Walking by that stride replaces a packed-index multiply per element
    // with one addition.
    const float* packed = distances_.packed().data();
    std::size_t idx = u - 1;  // PackedIndex(0, u)
    for (std::size_t v = 0; v + 1 < u; ++v) {
      row[v] = packed[idx];
      idx += n - v - 2;
    }
    row[u - 1] = packed[idx];
  }
  row[u] = 0.0;
  if (u + 1 < n) {
    const float* tail =
        distances_.packed().data() + distances_.PackedIndex(u, u + 1);
    for (std::size_t v = u + 1; v < n; ++v) row[v] = tail[v - u - 1];
  }
}

void DenseDistanceSource::AgreementRow(std::size_t u,
                                       std::span<char> agree) const {
  const std::size_t n = distances_.size();
  CLUSTAGG_CHECK(u < n && agree.size() >= n);
  // Same strided column walk as FillRow, comparing in float (identical
  // to comparing the widened double against 0.5).
  if (u > 0) {
    const float* packed = distances_.packed().data();
    std::size_t idx = u - 1;  // PackedIndex(0, u)
    for (std::size_t v = 0; v + 1 < u; ++v) {
      agree[v] = packed[idx] < 0.5f ? 1 : 0;
      idx += n - v - 2;
    }
    agree[u - 1] = packed[idx] < 0.5f ? 1 : 0;
  }
  agree[u] = 1;
  if (u + 1 < n) {
    const float* tail =
        distances_.packed().data() + distances_.PackedIndex(u, u + 1);
    for (std::size_t v = u + 1; v < n; ++v) {
      agree[v] = tail[v - u - 1] < 0.5f ? 1 : 0;
    }
  }
}

LazyDistanceSource::LazyDistanceSource(
    std::unique_ptr<internal::DistanceColumns> columns)
    : columns_(std::move(columns)) {}

LazyDistanceSource::~LazyDistanceSource() = default;

Result<std::shared_ptr<const LazyDistanceSource>> LazyDistanceSource::Build(
    const ClusteringSet& input, const MissingValueOptions& missing) {
  if (Status s = missing.Validate(); !s.ok()) return s;
  return std::shared_ptr<const LazyDistanceSource>(
      new LazyDistanceSource(std::make_unique<internal::DistanceColumns>(
          MakeColumns(input, missing))));
}

Result<std::shared_ptr<const LazyDistanceSource>>
LazyDistanceSource::BuildSubset(const ClusteringSet& input,
                                const std::vector<std::size_t>& subset,
                                const MissingValueOptions& missing) {
  return Build(input.Restrict(subset), missing);
}

std::size_t LazyDistanceSource::size() const { return columns_->n; }

double LazyDistanceSource::distance(std::size_t u, std::size_t v) const {
  CLUSTAGG_CHECK(u < columns_->n && v < columns_->n);
  // Round through float so dense and lazy answers are bit-identical.
  return static_cast<float>(ColumnDistance(*columns_, u, v));
}

void LazyDistanceSource::FillRow(std::size_t u, std::span<double> row) const {
  const internal::DistanceColumns& cols = *columns_;
  const std::size_t n = cols.n;
  CLUSTAGG_CHECK(u < n && row.size() >= n);
  if (cols.packed != nullptr) {
    // Bulk packed fill. X_uu is 0 by definition; a plain layout's cell
    // says so too (zero mismatches), but one with presence masks looks
    // up the pair (u, u) like any other, so it is overwritten.
    internal::PackedMismatchRowDouble(*cols.packed, u, 0, n,
                                      cols.total_weight,
                                      cols.packed_value.data(), row.data());
    row[u] = 0.0;
    return;
  }
  for (std::size_t v = 0; v < n; ++v) {
    row[v] = static_cast<float>(ColumnDistance(cols, u, v));
  }
}

void LazyDistanceSource::AgreementRow(std::size_t u,
                                      std::span<char> agree) const {
  const internal::DistanceColumns& cols = *columns_;
  const std::size_t n = cols.n;
  CLUSTAGG_CHECK(u < n && agree.size() >= n);
  if (cols.packed != nullptr) {
    // Integer threshold per pair (2 * mismatches < m) on a plain layout,
    // the cell table's float-rounded value against 0.5 on one with
    // presence masks (see PackedAgreementRow).
    internal::PackedAgreementRow(*cols.packed, u, 0, n,
                                 cols.packed_value.data(), agree.data());
    agree[u] = 1;  // X_uu = 0, as in FillRow
    return;
  }
  for (std::size_t v = 0; v < n; ++v) {
    agree[v] = static_cast<float>(ColumnDistance(cols, u, v)) < 0.5f ? 1 : 0;
  }
}

bool LazyDistanceSource::uses_packed_labels() const {
  return columns_->packed != nullptr;
}

Result<std::shared_ptr<const DistanceSource>> BuildDistanceSource(
    const ClusteringSet& input, const MissingValueOptions& missing,
    const DistanceSourceOptions& options) {
  switch (options.backend) {
    case DistanceBackend::kDense: {
      Result<std::shared_ptr<const DenseDistanceSource>> dense =
          DenseDistanceSource::Build(input, missing, options.num_threads,
                                     options.run);
      if (!dense.ok()) return dense.status();
      return std::shared_ptr<const DistanceSource>(std::move(dense).value());
    }
    case DistanceBackend::kLazy: {
      Result<std::shared_ptr<const LazyDistanceSource>> lazy =
          LazyDistanceSource::Build(input, missing);
      if (!lazy.ok()) return lazy.status();
      TelemetryCount(options.run.telemetry(), "build.lazy_builds");
      return std::shared_ptr<const DistanceSource>(std::move(lazy).value());
    }
  }
  return Status::Internal("unknown distance backend");
}

}  // namespace clustagg
