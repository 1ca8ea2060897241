#include "core/internal/packed_labels.h"

#include <atomic>
#include <bit>
#include <iterator>
#include <unordered_map>

#include "common/check.h"

namespace clustagg::internal {

namespace {

/// -1 = no override; otherwise a PackedKernelTier value forced by
/// SetPackedKernelTierForTest. Relaxed is enough: the override is a
/// test/bench knob flipped between builds, not a synchronization point.
std::atomic<int> g_tier_override{-1};

[[maybe_unused]] bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// Smallest supported lane width holding values 0..max_value.
std::uint32_t LaneWidthFor(std::uint32_t max_value) {
  const std::uint32_t bits =
      max_value == 0 ? 1u : static_cast<std::uint32_t>(
                                std::bit_width(max_value));
  return bits <= 1 ? 1u : std::uint32_t{1} << std::bit_width(bits - 1);
}

std::uint64_t LsbMaskFor(std::uint32_t width) {
  std::uint64_t mask = 0;
  for (std::uint32_t bit = 0; bit < 64; bit += width) {
    mask |= std::uint64_t{1} << bit;
  }
  return mask;
}

}  // namespace

bool Avx2KernelAvailable() {
#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
  static const bool available = CpuHasAvx2();
  return available;
#else
  return false;
#endif
}

PackedKernelTier ActivePackedKernelTier() {
  const int override = g_tier_override.load(std::memory_order_relaxed);
  if (override >= 0) return static_cast<PackedKernelTier>(override);
  return Avx2KernelAvailable() ? PackedKernelTier::kAvx2
                               : PackedKernelTier::kSwar;
}

const char* PackedKernelTierName(PackedKernelTier tier) {
  switch (tier) {
    case PackedKernelTier::kSwar:
      return "swar";
    case PackedKernelTier::kAvx2:
      return "avx2";
  }
  CLUSTAGG_CHECK(false);
  return "unknown";
}

void SetPackedKernelTierForTest(const PackedKernelTier* tier) {
  if (tier == nullptr) {
    g_tier_override.store(-1, std::memory_order_relaxed);
    return;
  }
  PackedKernelTier effective = *tier;
  if (effective == PackedKernelTier::kAvx2 && !Avx2KernelAvailable()) {
    effective = PackedKernelTier::kSwar;
  }
  g_tier_override.store(static_cast<int>(effective),
                        std::memory_order_relaxed);
}

std::unique_ptr<PackedLabels> PackLabelRows(const Clustering::Label* rows,
                                            std::size_t n, std::size_t m,
                                            bool encode_missing) {
  if (m == 0) return nullptr;

  // Pass 1: remap each column's labels to 0..k-1 by first appearance
  // (only equality survives packing, so the remap changes nothing) and
  // record the column's lane width. With encode_missing, a column that
  // holds kMissing maps it to 0 before the scan; it is one symbol of the
  // alphabet either way, so the width does not change.
  std::vector<std::uint32_t> remapped(n * m);
  std::vector<std::uint32_t> width(m);
  std::unordered_map<Clustering::Label, std::uint32_t> alphabet;
  for (std::size_t i = 0; i < m; ++i) {
    alphabet.clear();
    if (encode_missing) {
      for (std::size_t v = 0; v < n; ++v) {
        if (rows[v * m + i] == Clustering::kMissing) {
          alphabet.emplace(Clustering::kMissing, 0);
          break;
        }
      }
    }
    std::uint32_t max_id = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const Clustering::Label label = rows[v * m + i];
      auto [it, inserted] = alphabet.try_emplace(
          label, static_cast<std::uint32_t>(alphabet.size()));
      remapped[v * m + i] = it->second;
      if (it->second > max_id) max_id = it->second;
    }
    width[i] = LaneWidthFor(max_id);
  }

  // Pass 2: choose the layout. Candidate A groups columns by width into
  // separate word runs; candidate B rounds every column up to the
  // widest class. B can only tie or lose on lanes-per-word, but wins
  // whole words when small classes would each round up to a word of
  // their own (e.g. 1x8-bit + 2x4-bit: A = 2 words, B = 1).
  constexpr std::uint32_t kWidths[] = {32, 16, 8, 4, 2, 1};
  constexpr std::size_t kNumWidths = std::size(kWidths);
  std::size_t count_by_width[kNumWidths] = {};
  std::uint32_t max_width = 1;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t w = 0; w < kNumWidths; ++w) {
      if (width[i] == kWidths[w]) ++count_by_width[w];
    }
    if (width[i] > max_width) max_width = width[i];
  }
  std::size_t words_a = 0;
  for (std::size_t w = 0; w < kNumWidths; ++w) {
    const std::size_t lanes_per_word = 64 / kWidths[w];
    words_a += (count_by_width[w] + lanes_per_word - 1) / lanes_per_word;
  }
  const std::size_t lanes_b = 64 / max_width;
  const std::size_t words_b = (m + lanes_b - 1) / lanes_b;
  const bool uniform = words_b < words_a;

  auto packed = std::make_unique<PackedLabels>();
  packed->n = n;
  packed->m = m;

  // Assign every column a (word slot, bit shift) and materialize the
  // class table. Classes are laid out widest-first so the table is
  // deterministic whatever order widths appear in.
  std::vector<std::uint32_t> slot(m);
  std::vector<std::uint32_t> shift(m);
  std::uint32_t next_word = 0;
  for (std::size_t w = 0; w < kNumWidths; ++w) {
    const std::uint32_t class_width = uniform ? max_width : kWidths[w];
    std::size_t lanes = 0;
    const std::uint32_t begin_word = next_word;
    const std::size_t lanes_per_word = 64 / class_width;
    for (std::size_t i = 0; i < m; ++i) {
      if (!uniform && width[i] != kWidths[w]) continue;
      slot[i] = begin_word +
                static_cast<std::uint32_t>(lanes / lanes_per_word);
      shift[i] = static_cast<std::uint32_t>(lanes % lanes_per_word) *
                 class_width;
      ++lanes;
    }
    if (lanes == 0) {
      if (uniform) break;
      continue;
    }
    next_word = begin_word + static_cast<std::uint32_t>(
                                 (lanes + lanes_per_word - 1) /
                                 lanes_per_word);
    PackedClass cls;
    cls.width = class_width;
    cls.begin_word = begin_word;
    cls.end_word = next_word;
    cls.lsb_mask = LsbMaskFor(class_width);
    packed->classes.push_back(cls);
    if (uniform) break;
  }
  packed->words_per_object = next_word;
  CLUSTAGG_CHECK(packed->words_per_object == (uniform ? words_b : words_a));

  // Multiply-sum eligibility: (collapsed * lsb_mask) computes per-lane
  // prefix sums of the 0/1 lane bits; the top lane holds the total. No
  // carry crosses lanes as long as every prefix sum fits in the lane
  // width, i.e. m < 2^width.
  if (packed->words_per_object == 1) {
    const std::uint32_t w = packed->classes[0].width;
    packed->mul_count_ok = w < 64 && m < (std::size_t{1} << w);
    packed->mul_shift = 64 - w;
  }

  // Pass 3: scatter the remapped labels (and the presence bits) into
  // the lanes.
  const std::size_t words = n * packed->words_per_object;
  packed->words.assign(words, 0);
  if (encode_missing) packed->present.assign(words, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t base = v * packed->words_per_object;
    std::uint64_t* out = packed->words.data() + base;
    const std::uint32_t* in = remapped.data() + v * m;
    for (std::size_t i = 0; i < m; ++i) {
      out[slot[i]] |= static_cast<std::uint64_t>(in[i]) << shift[i];
      if (encode_missing && rows[v * m + i] != Clustering::kMissing) {
        packed->present[base + slot[i]] |= std::uint64_t{1} << shift[i];
      }
    }
  }
  return packed;
}

namespace {

/// Bulk fill over the single-word layout: one XOR + collapse +
/// count per pair, with the v-words prefetched a few cache lines ahead
/// (the packed array is object-major, so the walk is sequential). The
/// mismatch count indexes the precomputed value LUT, so the hot loop
/// carries no division at all.
template <typename Out>
void RowFillSingleWord(const PackedLabels& p, std::size_t u, std::size_t v0,
                       std::size_t v1, const double* value_lut, Out* out) {
  const PackedClass& c = p.classes[0];
  const std::uint32_t width = c.width;
  const std::uint64_t mask = c.lsb_mask;
  const std::uint64_t uw = p.words[u];
  const std::uint64_t* vw = p.words.data() + v0;
  const std::size_t count = v1 - v0;
  if (p.mul_count_ok) {
    const std::uint32_t shift = p.mul_shift;
    for (std::size_t i = 0; i < count; ++i) {
      if ((i & 31u) == 0 && i + 64 < count) {
        __builtin_prefetch(vw + i + 64, 0, 0);
      }
      const std::uint64_t collapsed =
          CollapseToLaneLsb(uw ^ vw[i], width, mask);
      out[i] = static_cast<Out>(value_lut[(collapsed * mask) >> shift]);
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if ((i & 31u) == 0 && i + 64 < count) {
      __builtin_prefetch(vw + i + 64, 0, 0);
    }
    const std::uint64_t collapsed =
        CollapseToLaneLsb(uw ^ vw[i], width, mask);
    out[i] = static_cast<Out>(value_lut[Popcount64(collapsed)]);
  }
}

template <typename Out>
void RowFillGeneral(const PackedLabels& p, std::size_t u, std::size_t v0,
                    std::size_t v1, const double* value_lut, Out* out) {
  for (std::size_t v = v0; v < v1; ++v) {
    if (((v - v0) & 15u) == 0 && v + 16 < v1) {
      __builtin_prefetch(p.row(v + 16), 0, 0);
    }
    out[v - v0] =
        static_cast<Out>(value_lut[CountMismatchesPacked(p, u, v)]);
  }
}

/// Cell loop over a single-class layout of two words with presence
/// masks: the words' lane bits are summed lane-wise before one count
/// each (so it needs width >= 2; see CountLaneBits). Calls emit(i, cell)
/// for v = v0 + i.
template <typename Emit>
void MissingCellsTwoWords(const PackedLabels& p, std::size_t u,
                          std::size_t v0, std::size_t v1, Emit emit) {
  const PackedClass& c = p.classes[0];
  const std::uint32_t width = c.width;
  const std::uint64_t mask = c.lsb_mask;
  const std::size_t stride = p.cell_stride();
  const std::uint64_t ua0 = p.row(u)[0];
  const std::uint64_t ua1 = p.row(u)[1];
  const std::uint64_t up0 = p.present_row(u)[0];
  const std::uint64_t up1 = p.present_row(u)[1];
  const std::uint64_t* vw = p.row(v0);
  const std::uint64_t* vp = p.present_row(v0);
  const std::size_t count = v1 - v0;
  for (std::size_t i = 0; i < count; ++i, vw += 2, vp += 2) {
    if ((i & 15u) == 0 && i + 64 < count) {
      __builtin_prefetch(vw + 128, 0, 0);
      __builtin_prefetch(vp + 128, 0, 0);
    }
    const std::uint64_t both0 = up0 & vp[0];
    const std::uint64_t both1 = up1 & vp[1];
    const std::uint64_t mismatched =
        (CollapseToLaneLsb(ua0 ^ vw[0], width, mask) & both0) +
        (CollapseToLaneLsb(ua1 ^ vw[1], width, mask) & both1);
    emit(i, CountLaneBits(both0 + both1, width) * stride +
                CountLaneBits(mismatched, width));
  }
}

/// Every (observed, mismatched) cell of row u over [v0, v1) on a layout
/// with presence masks, handed to emit(v - v0, cell).
template <typename Emit>
void ForEachMissingCell(const PackedLabels& p, std::size_t u, std::size_t v0,
                        std::size_t v1, Emit emit) {
  if (p.classes.size() == 1 && p.words_per_object == 2 &&
      p.classes[0].width >= 2) {
    MissingCellsTwoWords(p, u, v0, v1, emit);
    return;
  }
  for (std::size_t v = v0; v < v1; ++v) {
    if (((v - v0) & 15u) == 0 && v + 16 < v1) {
      __builtin_prefetch(p.row(v + 16), 0, 0);
      __builtin_prefetch(p.present_row(v + 16), 0, 0);
    }
    emit(v - v0, PackedMissingCell(p, u, v));
  }
}

template <typename Out>
void RowFill(const PackedLabels& p, std::size_t u, std::size_t v0,
             std::size_t v1, const double* value_lut, Out* out) {
  if (p.has_missing()) {
    ForEachMissingCell(p, u, v0, v1, [&](std::size_t i, std::size_t cell) {
      out[i] = static_cast<Out>(value_lut[cell]);
    });
  } else if (p.words_per_object == 1) {
    RowFillSingleWord(p, u, v0, v1, value_lut, out);
  } else {
    RowFillGeneral(p, u, v0, v1, value_lut, out);
  }
}

[[maybe_unused]] bool UseAvx2(const PackedLabels& p) {
#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
  return p.words_per_object == 1 && !p.has_missing() &&
         Avx2KernelAvailable() &&
         ActivePackedKernelTier() == PackedKernelTier::kAvx2;
#else
  (void)p;
  return false;
#endif
}

}  // namespace

std::vector<double> BuildPackedValueLut(std::size_t m, double total_weight) {
  std::vector<double> lut(m + 1);
  for (std::size_t c = 0; c <= m; ++c) {
    // Exactly float(PairwiseDistance)'s arithmetic on a plain instance,
    // precomputed: the float rounding step is what keeps every tier
    // bit-identical, and storing the result as double round-trips
    // losslessly for both consumers.
    lut[c] = static_cast<double>(
        static_cast<float>(static_cast<double>(c) / total_weight));
  }
  return lut;
}

void PackedMismatchRowFloat(const PackedLabels& p, std::size_t u,
                            std::size_t v0, std::size_t v1,
                            [[maybe_unused]] double total_weight,
                            const double* value_lut, float* out) {
  CLUSTAGG_CHECK(u < p.n && v0 <= v1 && v1 <= p.n);
#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
  if (UseAvx2(p)) {
    PackedMismatchRowFloatAvx2(p, u, v0, v1, total_weight, out);
    return;
  }
#endif
  RowFill(p, u, v0, v1, value_lut, out);
}

void PackedMismatchRowDouble(const PackedLabels& p, std::size_t u,
                             std::size_t v0, std::size_t v1,
                             [[maybe_unused]] double total_weight,
                             const double* value_lut, double* out) {
  CLUSTAGG_CHECK(u < p.n && v0 <= v1 && v1 <= p.n);
#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
  if (UseAvx2(p)) {
    PackedMismatchRowDoubleAvx2(p, u, v0, v1, total_weight, out);
    return;
  }
#endif
  RowFill(p, u, v0, v1, value_lut, out);
}

void PackedAgreementRow(const PackedLabels& p, std::size_t u, std::size_t v0,
                        std::size_t v1, const double* value_lut,
                        char* agree) {
  CLUSTAGG_CHECK(u < p.n && v0 <= v1 && v1 <= p.n);
  if (p.has_missing()) {
    ForEachMissingCell(p, u, v0, v1, [&](std::size_t i, std::size_t cell) {
      agree[i] = value_lut[cell] < 0.5 ? 1 : 0;
    });
    return;
  }
  const std::size_t m = p.m;
  if (p.words_per_object == 1) {
    const PackedClass& c = p.classes[0];
    const std::uint64_t uw = p.words[u];
    const std::uint64_t* vw = p.words.data() + v0;
    const std::size_t count = v1 - v0;
    const bool mul = p.mul_count_ok;
    const std::uint32_t shift = p.mul_shift;
    for (std::size_t i = 0; i < count; ++i) {
      if ((i & 31u) == 0 && i + 64 < count) {
        __builtin_prefetch(vw + i + 64, 0, 0);
      }
      const std::uint64_t collapsed =
          CollapseToLaneLsb(uw ^ vw[i], c.width, c.lsb_mask);
      const std::size_t mismatches =
          mul ? (collapsed * c.lsb_mask) >> shift : Popcount64(collapsed);
      agree[i] = 2 * mismatches < m ? 1 : 0;
    }
    return;
  }
  for (std::size_t v = v0; v < v1; ++v) {
    agree[v - v0] = 2 * CountMismatchesPacked(p, u, v) < m ? 1 : 0;
  }
}

}  // namespace clustagg::internal
