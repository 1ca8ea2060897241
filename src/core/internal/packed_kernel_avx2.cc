// AVX2 bulk row kernel for the packed mismatch count. Compiled into
// every x86-64 build with no flags of its own: each function that uses
// AVX2 carries __attribute__((target("avx2"))), so only those functions
// get VEX encodings, and a header inline pulled into this file is
// emitted as portable code. Callers take this path only when the CPU
// reports AVX2 at runtime (Avx2KernelAvailable), so the library runs on
// any x86-64.
//
// Strategy (single-word layouts, every lane width 1..32; the m <= 9
// small-alphabet hot case):
// four objects' words per iteration — 256-bit load of four consecutive
// v-words (object-major storage makes them contiguous), XOR against the
// broadcast u-word, the same SWAR lane collapse as the scalar kernel
// using vector shifts, then a per-64-bit-lane popcount via the classic
// nibble-LUT pshufb + psadbw reduction. Counts are exact integers, and
// the float conversion path (cvtepi32_pd, divpd by the broadcast total
// weight, cvtpd_ps) performs the identical IEEE operations the scalar
// path does — double(count) / total_weight rounded once to float — so
// the AVX2 tier is bit-identical to SWAR.

#include "core/internal/packed_labels.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include "common/check.h"

namespace clustagg::internal {

namespace {

/// Per-64-bit-lane popcount: nibble lookup + horizontal byte sum.
__attribute__((target("avx2")))
inline __m256i Popcount64x4(__m256i x) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(x, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

/// Vector form of CollapseToLaneLsb: same OR-shift cascade, same mask.
template <std::uint32_t kWidth>
__attribute__((target("avx2")))
inline __m256i Collapse(__m256i x, __m256i lsb_mask) {
  if constexpr (kWidth == 1) return x;
  if constexpr (kWidth >= 32) x = _mm256_or_si256(x, _mm256_srli_epi64(x, 16));
  if constexpr (kWidth >= 16) x = _mm256_or_si256(x, _mm256_srli_epi64(x, 8));
  if constexpr (kWidth >= 8) x = _mm256_or_si256(x, _mm256_srli_epi64(x, 4));
  if constexpr (kWidth >= 4) x = _mm256_or_si256(x, _mm256_srli_epi64(x, 2));
  x = _mm256_or_si256(x, _mm256_srli_epi64(x, 1));
  return _mm256_and_si256(x, lsb_mask);
}

/// Core loop: Out is float or double; double outputs are still rounded
/// through float first (cvtpd_ps then widened) to keep the backend
/// bit-identity contract.
template <std::uint32_t kWidth, typename Out>
__attribute__((target("avx2")))
void RowFillAvx2(const PackedLabels& p, std::size_t u, std::size_t v0,
                 std::size_t v1, double total_weight, Out* out) {
  const std::uint64_t uw = p.words[u];
  const __m256i broadcast_u = _mm256_set1_epi64x(
      static_cast<long long>(uw));
  const __m256i lsb_mask = _mm256_set1_epi64x(
      static_cast<long long>(p.classes[0].lsb_mask));
  const __m256d weight = _mm256_set1_pd(total_weight);
  const std::uint64_t* vw = p.words.data() + v0;
  const std::size_t count = v1 - v0;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    if ((i & 31u) == 0 && i + 64 < count) {
      __builtin_prefetch(vw + i + 64, 0, 0);
    }
    const __m256i words = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(vw + i));
    const __m256i collapsed =
        Collapse<kWidth>(_mm256_xor_si256(words, broadcast_u), lsb_mask);
    const __m256i counts64 = Popcount64x4(collapsed);
    // Counts are <= 64, so the low 32 bits of each 64-bit lane carry
    // them all; gather lanes {0,2,4,6} into the low 128 bits.
    const __m256i packed32 = _mm256_permutevar8x32_epi32(
        counts64, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    const __m256d quotient = _mm256_div_pd(
        _mm256_cvtepi32_pd(_mm256_castsi256_si128(packed32)), weight);
    const __m128 rounded = _mm256_cvtpd_ps(quotient);
    if constexpr (sizeof(Out) == sizeof(float)) {
      _mm_storeu_ps(reinterpret_cast<float*>(out + i), rounded);
    } else {
      _mm256_storeu_pd(reinterpret_cast<double*>(out + i),
                       _mm256_cvtps_pd(rounded));
    }
  }
  for (; i < count; ++i) {
    const std::uint64_t collapsed = CollapseToLaneLsb(
        uw ^ vw[i], p.classes[0].width, p.classes[0].lsb_mask);
    out[i] = static_cast<Out>(static_cast<float>(
        static_cast<double>(Popcount64(collapsed)) / total_weight));
  }
}

template <typename Out>
void DispatchWidth(const PackedLabels& p, std::size_t u, std::size_t v0,
                   std::size_t v1, double total_weight, Out* out) {
  CLUSTAGG_CHECK(p.words_per_object == 1);
  switch (p.classes[0].width) {
    case 1:
      RowFillAvx2<1>(p, u, v0, v1, total_weight, out);
      return;
    case 2:
      RowFillAvx2<2>(p, u, v0, v1, total_weight, out);
      return;
    case 4:
      RowFillAvx2<4>(p, u, v0, v1, total_weight, out);
      return;
    case 8:
      RowFillAvx2<8>(p, u, v0, v1, total_weight, out);
      return;
    case 16:
      RowFillAvx2<16>(p, u, v0, v1, total_weight, out);
      return;
    case 32:
      RowFillAvx2<32>(p, u, v0, v1, total_weight, out);
      return;
  }
  CLUSTAGG_CHECK(false);
}

}  // namespace

void PackedMismatchRowFloatAvx2(const PackedLabels& p, std::size_t u,
                                std::size_t v0, std::size_t v1,
                                double total_weight, float* out) {
  DispatchWidth(p, u, v0, v1, total_weight, out);
}

void PackedMismatchRowDoubleAvx2(const PackedLabels& p, std::size_t u,
                                 std::size_t v0, std::size_t v1,
                                 double total_weight, double* out) {
  DispatchWidth(p, u, v0, v1, total_weight, out);
}

}  // namespace clustagg::internal

#endif  // __x86_64__
