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
// rejects. Whether the *mismatch-count semantics* apply (unit weights)
// is the caller's check: without encode_missing, the kMissing sentinel
// packs as an ordinary symbol.
//
// Missing labels. Packed with encode_missing, a column that holds
// kMissing reserves lane value 0 for it (its labels take 1..k; the
// alphabet size, and so the lane width, is unchanged), and every object
// gets a presence mask per word: the lane-LSB bit is set where the
// label is present. A pair then yields two counts per word —
// observed = popcount(pu & pv) and mismatched =
// popcount(collapse(a ^ b) & pu & pv) — and the caller's
// (m+1) x (m+1) table, indexed by (observed, mismatched), holds the
// general loop's own result for that pair under either missing-value
// policy (see distance_source.cc).
//
// Dispatch. Two tiers, detected once per process from the CPU: kSwar
// runs these uint64_t kernels, and kAvx2 additionally routes bulk
// single-word row fills through the AVX2 kernel that every x86-64 build
// compiles in (runtime-checked, so binaries stay safe on CPUs without
// AVX2). See docs/performance.md ("Packed labels").

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/clustering.h"

namespace clustagg::internal {

/// Kernel tier resolved from CPU detection.
enum class PackedKernelTier { kSwar = 0, kAvx2 = 1 };

/// The active tier: kAvx2 on an x86-64 CPU with AVX2, kSwar otherwise,
/// unless a test override is in force.
PackedKernelTier ActivePackedKernelTier();

/// Stable lowercase tier name ("swar" / "avx2").
const char* PackedKernelTierName(PackedKernelTier tier);

/// Test/bench hook: force a tier (kAvx2 silently degrades to kSwar when
/// Avx2KernelAvailable() is false). Pass nullptr to restore the CPU
/// default.
void SetPackedKernelTierForTest(const PackedKernelTier* tier);

/// True when the target is x86-64 (where the AVX2 row kernel is always
/// compiled in) and this CPU supports AVX2.
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
  /// Presence masks, laid out like `words`: the lane-LSB bit of a lane
  /// is set where the object's label is present. Empty unless packed
  /// with encode_missing.
  std::vector<std::uint64_t> present;

  const std::uint64_t* row(std::size_t v) const {
    return words.data() + v * words_per_object;
  }
  const std::uint64_t* present_row(std::size_t v) const {
    return present.data() + v * words_per_object;
  }
  /// True when pairs are counted as (observed, mismatched) cells.
  bool has_missing() const { return !present.empty(); }
  /// Side of the (observed, mismatched) table: m + 1.
  std::size_t cell_stride() const { return m + 1; }
};

/// Packs object-major label rows (rows[v * m + i] = label of object v
/// under clustering i). Labels are remapped per column by first
/// appearance, so any int32 labels — including the kMissing sentinel —
/// pack. With encode_missing, kMissing takes lane value 0 in the columns
/// that hold it and the presence masks are built (see "Missing labels"
/// above). Returns nullptr only when m == 0.
std::unique_ptr<PackedLabels> PackLabelRows(const Clustering::Label* rows,
                                            std::size_t n, std::size_t m,
                                            bool encode_missing = false);

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

/// Number of set lane-LSB bits of a `width`-lane vector: the SWAR
/// popcount without the folds a wider lane makes redundant (a 4-bit or
/// wider lane already holds its own count in its low nibble). It also
/// counts the lane-wise sum of several such vectors, as long as no lane
/// overflows (at most min(2^width - 1, 7) vectors) and the total stays
/// below 256.
inline std::uint64_t CountLaneBits(std::uint64_t x, std::uint32_t width) {
  if (width == 1) x -= (x >> 1) & 0x5555555555555555ull;
  if (width <= 2) {
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  }
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (x * 0x0101010101010101ull) >> 56;
}

/// Number of clusterings on which u and v disagree, counted over the
/// packed rows. Plain layouts only (no presence masks).
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

/// The (observed, mismatched) cell of a pair on a layout with presence
/// masks: observed * (m + 1) + mismatched, where observed counts the
/// clusterings labelling both objects and mismatched those of them that
/// separate the pair.
inline std::size_t PackedMissingCell(const PackedLabels& p, std::size_t u,
                                     std::size_t v) {
  const std::uint64_t* a = p.row(u);
  const std::uint64_t* b = p.row(v);
  const std::uint64_t* pa = p.present_row(u);
  const std::uint64_t* pb = p.present_row(v);
  std::size_t observed = 0;
  std::size_t mismatched = 0;
  for (const PackedClass& c : p.classes) {
    for (std::uint32_t w = c.begin_word; w < c.end_word; ++w) {
      const std::uint64_t both = pa[w] & pb[w];
      observed += CountLaneBits(both, c.width);
      mismatched += CountLaneBits(
          CollapseToLaneLsb(a[w] ^ b[w], c.width, c.lsb_mask) & both,
          c.width);
    }
  }
  return observed * p.cell_stride() + mismatched;
}

/// Precomputed count -> value table: lut[c] =
/// double(float(double(c) / total_weight)) for c in [0, m]. The scalar
/// row kernels index this instead of dividing per pair; on a plain
/// instance the entries are exactly float(ClusteringSet::
/// PairwiseDistance) for a pair with c mismatches, so the LUT changes
/// nothing but speed.
std::vector<double> BuildPackedValueLut(std::size_t m, double total_weight);

/// Bulk row fill for the dense tiled build: out[v - v0] = value_lut[i]
/// for v in [v0, v1), where i is the pair's mismatch count on a plain
/// layout (value_lut a BuildPackedValueLut(p.m, total_weight) table) and
/// its PackedMissingCell on one with presence masks (value_lut the
/// caller's (m+1) x (m+1) cell table). Routes a plain single-word layout through
/// the AVX2 kernel (which divides in-register instead of using the LUT,
/// with the same arithmetic) when the active tier is kAvx2; otherwise
/// the SWAR loop (with explicit prefetch) runs.
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
/// X_uv < 1/2 (u == v counts as agreement). On a plain layout it is the
/// exact integer test 2 * count < m, equivalent to comparing the
/// float-rounded distance against 0.5 for any m below ~2^24:
/// count/m <= 1/2 - 1/(2m) sits further from 0.5 than half a float ulp,
/// so rounding can never cross the threshold, and count/m == 1/2 is
/// exact in both forms. On a layout with presence masks agree[v] is
/// value_lut[PackedMissingCell(p, u, v)] < 0.5, value_lut being the
/// caller's (m+1) x (m+1) cell table (whose entries are already rounded
/// through float); value_lut is not read otherwise.
void PackedAgreementRow(const PackedLabels& p, std::size_t u,
                        std::size_t v0, std::size_t v1,
                        const double* value_lut, char* agree);

#if defined(__x86_64__)
/// AVX2 implementations (packed_kernel_avx2.cc). Single-word layouts
/// only; callers guard with the kAvx2 tier and words_per_object == 1.
void PackedMismatchRowFloatAvx2(const PackedLabels& p, std::size_t u,
                                std::size_t v0, std::size_t v1,
                                double total_weight, float* out);
void PackedMismatchRowDoubleAvx2(const PackedLabels& p, std::size_t u,
                                 std::size_t v0, std::size_t v1,
                                 double total_weight, double* out);
#endif  // __x86_64__

}  // namespace clustagg::internal

#endif  // CLUSTAGG_CORE_INTERNAL_PACKED_LABELS_H_
