#ifndef CLUSTAGG_CORE_INTERNAL_PACKED_LABELS_H_
#define CLUSTAGG_CORE_INTERNAL_PACKED_LABELS_H_

// Bit-packed label rows for the mismatch-count kernel.
//
// The whole Gionis-Mannila-Tsaparas pipeline keeps asking one question:
// on how many of the m input clusterings do objects u and v disagree?
// For *plain* instances (no missing labels, unit weights) the answer is
// an integer mismatch count over two m-length label rows, and only
// label *equality* matters — never the label values themselves. So each
// column's labels can be re-encoded into a dense alphabet 0..k-1 and
// packed into fixed-width bit lanes of 64-bit words, after which the
// count collapses to XOR + lane-collapse + popcount SWAR over whole
// words: one word (m <= 9, small alphabets) instead of 36+ bytes per
// object, and ~4 ALU ops per 16 lanes instead of one compare each.
//
// The count is exactly the integer ClusteringSet::PairwiseDistance sums
// over the unpacked labels, so every downstream float (count /
// total_weight rounded through float) is bit-identical to it — the
// packed kernel is a pure speedup, invisible to every
// backend-equivalence property test.
//
// Layout. Each column i gets a lane width: the smallest power of two in
// {1, 2, 4, 8, 16, 32} holding its remapped alphabet. Columns are
// grouped by width into *classes*; a class of width B packs 64/B lanes
// per word into its own run of words (lanes never straddle words or mix
// widths, keeping the SWAR collapse mask uniform per word). When
// rounding every column up to the widest class's width would use no
// more words, the builder does that instead (single class, simpler hot
// loop). Objects are word-major: words[v * words_per_object + slot].
//
// Eligibility. A 32-bit lane holds any int32 column, so packing fails
// (returns nullptr) only for m == 0, which ClusteringSet::Create already
// rejects. Whether the *mismatch-count semantics* apply (no missing
// labels, unit weights) is the caller's check — SignatureIndex packs
// rows with missing sentinels too, because it only needs equality of
// whole rows.
//
// Dispatch. Two tiers, detected once per process from the CPU: kSwar
// runs these uint64_t kernels, and kAvx2 additionally routes bulk
// single-word row fills through the AVX2 kernel compiled under
// CLUSTAGG_NATIVE (runtime-checked, so binaries stay safe on CPUs
// without AVX2). See docs/performance.md ("Packed labels").

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/clustering.h"

namespace clustagg::internal {

/// Kernel tier resolved from CPU detection.
enum class PackedKernelTier { kSwar = 0, kAvx2 = 1 };

/// The active tier: kAvx2 when the AVX2 kernel is compiled in and the
/// CPU has it, kSwar otherwise, unless a test override is in force.
PackedKernelTier ActivePackedKernelTier();

/// Stable lowercase tier name ("swar" / "avx2").
const char* PackedKernelTierName(PackedKernelTier tier);

/// Test/bench hook: force a tier (kAvx2 silently degrades to kSwar when
/// the AVX2 kernel is not compiled in or the CPU lacks it). Pass
/// nullptr to restore the CPU default.
void SetPackedKernelTierForTest(const PackedKernelTier* tier);

/// True when the AVX2 row kernel is compiled in (CLUSTAGG_NATIVE) and
/// this CPU supports AVX2.
bool Avx2KernelAvailable();

/// One run of same-width words in every object's packed row.
struct PackedClass {
  /// Lane width in bits: 1, 2, 4, 8, 16, or 32.
  std::uint32_t width = 0;
  /// Word-slot range [begin_word, end_word) inside each object's row.
  std::uint32_t begin_word = 0;
  std::uint32_t end_word = 0;
  /// Lane-LSB mask for the SWAR collapse (bit w*width set for every
  /// lane w, e.g. 0x1111... for width 4).
  std::uint64_t lsb_mask = 0;
};

struct PackedLabels {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t words_per_object = 0;
  /// Object-major packed rows: words[v * words_per_object + slot].
  std::vector<std::uint64_t> words;
  /// Width classes ordered by descending width; their word ranges tile
  /// [0, words_per_object) exactly.
  std::vector<PackedClass> classes;
  /// True when a collapsed word's lane bits can be summed with one
  /// multiply by lsb_mask (the lane-width accumulator cannot overflow:
  /// width >= 8, or width == 4 with at most 15 occupied lanes). Then
  /// (collapsed * lsb_mask) >> mul_shift is the mismatch count — 2 ops
  /// instead of the 11-op SWAR popcount. Single-word layouts only.
  bool mul_count_ok = false;
  std::uint32_t mul_shift = 0;

  const std::uint64_t* row(std::size_t v) const {
    return words.data() + v * words_per_object;
  }
};

/// Packs object-major label rows (rows[v * m + i] = label of object v
/// under clustering i). Labels are remapped per column by first
/// appearance, so any int32 labels — including the kMissing sentinel —
/// pack. Returns nullptr only when m == 0.
std::unique_ptr<PackedLabels> PackLabelRows(const Clustering::Label* rows,
                                            std::size_t n, std::size_t m);

/// Branch-free SWAR popcount (no POPCNT ISA requirement, so the
/// portable library build never falls back to a libgcc call).
inline std::uint64_t Popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (x * 0x0101010101010101ull) >> 56;
}

/// Collapses every `width`-bit lane of x to its lane LSB: the result
/// has bit w*width set iff lane w was nonzero. ORing x >> {1, 2, ...}
/// folds every lane bit down by offsets covering [0, width); bits
/// spilling in from the next-higher lane travel at most width-1
/// positions, which never reaches the lane below's LSB, so the final
/// mask sees no cross-lane contamination.
inline std::uint64_t CollapseToLaneLsb(std::uint64_t x, std::uint32_t width,
                                       std::uint64_t lsb_mask) {
  switch (width) {
    case 1:
      return x;
    case 2:
      return (x | (x >> 1)) & lsb_mask;
    case 4:
      x |= x >> 2;
      x |= x >> 1;
      return x & lsb_mask;
    case 8:
      x |= x >> 4;
      x |= x >> 2;
      x |= x >> 1;
      return x & lsb_mask;
    default:  // 16 or 32
      // Kept out of the case list: a fifth case label turns the switch
      // into a jump table, which measured slower in the multi-word loop.
      if (width == 32) x |= x >> 16;
      x |= x >> 8;
      x |= x >> 4;
      x |= x >> 2;
      x |= x >> 1;
      return x & lsb_mask;
  }
}

/// Number of clusterings on which u and v disagree, counted over the
/// packed rows.
inline std::size_t CountMismatchesPacked(const PackedLabels& p,
                                         std::size_t u, std::size_t v) {
  const std::uint64_t* a = p.row(u);
  const std::uint64_t* b = p.row(v);
  if (p.words_per_object == 1) {
    const PackedClass& c = p.classes[0];
    const std::uint64_t collapsed =
        CollapseToLaneLsb(a[0] ^ b[0], c.width, c.lsb_mask);
    return p.mul_count_ok
               ? (collapsed * c.lsb_mask) >> p.mul_shift
               : Popcount64(collapsed);
  }
  std::size_t total = 0;
  for (const PackedClass& c : p.classes) {
    for (std::uint32_t w = c.begin_word; w < c.end_word; ++w) {
      total += Popcount64(CollapseToLaneLsb(a[w] ^ b[w], c.width,
                                            c.lsb_mask));
    }
  }
  return total;
}

/// Equality of two packed rows — equivalent to equality of the original
/// label rows (per-column remapping is injective). SignatureIndex's
/// collision check.
inline bool PackedRowsEqual(const PackedLabels& p, std::size_t u,
                            std::size_t v) {
  const std::uint64_t* a = p.row(u);
  const std::uint64_t* b = p.row(v);
  for (std::size_t w = 0; w < p.words_per_object; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

/// FNV-1a over a packed row's words. Hash quality only affects bucket
/// balance, never grouping (collisions are resolved by PackedRowsEqual).
inline std::uint64_t HashPackedRow(const PackedLabels& p, std::size_t v) {
  const std::uint64_t* a = p.row(v);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t w = 0; w < p.words_per_object; ++w) {
    h ^= a[w];
    h *= 1099511628211ull;
  }
  return h;
}

/// Precomputed count -> value table: lut[c] =
/// double(float(double(c) / total_weight)) for c in [0, m]. The scalar
/// row kernels index this instead of dividing per pair; on a plain
/// instance the entries are exactly float(ClusteringSet::
/// PairwiseDistance) for a pair with c mismatches, so the LUT changes
/// nothing but speed.
std::vector<double> BuildPackedValueLut(std::size_t m, double total_weight);

/// Bulk row fill for the dense tiled build: out[v - v0] =
/// float(double(count(u, v)) / total_weight) for v in [v0, v1) — the
/// LUT's arithmetic, so the filled matrix is bit-identical whichever
/// tier runs. value_lut must be a
/// BuildPackedValueLut(p.m, total_weight) table. Routes through the
/// AVX2 kernel (which divides in-register instead of using the LUT)
/// when the active tier is kAvx2 and the layout is single-word;
/// otherwise the SWAR loop (with explicit prefetch) runs.
void PackedMismatchRowFloat(const PackedLabels& p, std::size_t u,
                            std::size_t v0, std::size_t v1,
                            double total_weight, const double* value_lut,
                            float* out);

/// Same for double consumers (lazy FillRow): every value is rounded
/// through float first, preserving the backend bit-identity contract.
void PackedMismatchRowDouble(const PackedLabels& p, std::size_t u,
                             std::size_t v0, std::size_t v1,
                             double total_weight, const double* value_lut,
                             double* out);

/// Agreement test row for the shard decompose scan: agree[v] != 0 iff
/// X_uv < 1/2, decided as the exact integer test 2 * count < m (u == v
/// counts as agreement). Equivalent to comparing the float-rounded
/// distance against 0.5 for any m below ~2^24: count/m <= 1/2 - 1/(2m)
/// sits further from 0.5 than half a float ulp, so rounding can never
/// cross the threshold, and count/m == 1/2 is exact in both forms.
void PackedAgreementRow(const PackedLabels& p, std::size_t u,
                        std::size_t v0, std::size_t v1, char* agree);

#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
/// AVX2 implementations (packed_kernel_avx2.cc, compiled with -mavx2
/// under CLUSTAGG_NATIVE). Single-word layouts only; callers guard with
/// Avx2KernelAvailable() and words_per_object == 1.
void PackedMismatchRowFloatAvx2(const PackedLabels& p, std::size_t u,
                                std::size_t v0, std::size_t v1,
                                double total_weight, float* out);
void PackedMismatchRowDoubleAvx2(const PackedLabels& p, std::size_t u,
                                 std::size_t v0, std::size_t v1,
                                 double total_weight, double* out);
#endif  // CLUSTAGG_HAVE_AVX2_KERNEL

}  // namespace clustagg::internal

#endif  // CLUSTAGG_CORE_INTERNAL_PACKED_LABELS_H_
