// AVX2 interior passes of the block wavelet transform, 16 int16 lanes per
// vector. Same mod-2^16 integer arithmetic as the scalar forms in
// dsp_wavelet.cpp (epi16 adds, subs and shifts wrap exactly like the scalar
// accumulation narrowed to a Sample), so scalar and AVX2 decompositions are
// bit-identical for every int16 input. On conditioned input nothing wraps
// (dsp/signal.hpp bounds the lowpass accumulator below 2^15).
#include "kernels/dsp_wavelet.hpp"

#if HBRP_KERNELS_X86

#include <immintrin.h>

#include <cstdint>

namespace hbrp::kernels::detail {

namespace {

using dsp::Sample;

inline __m256i load(const Sample* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store(Sample* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

}  // namespace

void wavelet_lowpass_interior_avx2(const Sample* a, std::size_t begin,
                                   std::size_t end, std::ptrdiff_t s,
                                   Sample* y) {
  // y[i] = (a[i] + 3 a[i-s] + 3 a[i-2s] + a[i-3s] + 4) >> 3 for i >= 3s
  // (the caller has already produced [0, begin) with clamped edges).
  const auto us = static_cast<std::size_t>(s);
  const __m256i four = _mm256_set1_epi16(4);
  std::size_t i = begin;
  for (; i + 16 <= end; i += 16) {
    const __m256i x0 = load(a + i);
    const __m256i x1 = load(a + i - us);
    const __m256i x2 = load(a + i - 2 * us);
    const __m256i x3 = load(a + i - 3 * us);
    const __m256i x1x3 = _mm256_add_epi16(_mm256_add_epi16(x1, x1), x1);
    const __m256i x2x3 = _mm256_add_epi16(_mm256_add_epi16(x2, x2), x2);
    __m256i acc = _mm256_add_epi16(x0, x3);
    acc = _mm256_add_epi16(acc, _mm256_add_epi16(x1x3, x2x3));
    acc = _mm256_add_epi16(acc, four);
    store(y + i, _mm256_srai_epi16(acc, 3));
  }
  for (; i < end; ++i) {
    const std::uint32_t acc = static_cast<std::uint32_t>(a[i]) +
                              3u * static_cast<std::uint32_t>(a[i - us]) +
                              3u * static_cast<std::uint32_t>(a[i - 2 * us]) +
                              static_cast<std::uint32_t>(a[i - 3 * us]) + 4u;
    y[i] = static_cast<Sample>(acc) >> 3;
  }
}

void wavelet_detail_interior_avx2(const Sample* a, std::size_t count,
                                  std::ptrdiff_t d, std::ptrdiff_t s,
                                  Sample* det) {
  // det[i] = 2 * (a[i + d] - a[i + d - s]) for i < count (= n - d); the
  // caller covers the clamped right border. d >= s at every scale, so the
  // second load never goes negative.
  const auto ud = static_cast<std::size_t>(d);
  const auto us = static_cast<std::size_t>(s);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i hi = load(a + i + ud);
    const __m256i lo = load(a + i + ud - us);
    store(det + i, _mm256_slli_epi16(_mm256_sub_epi16(hi, lo), 1));
  }
  for (; i < count; ++i) {
    const std::uint32_t diff = static_cast<std::uint32_t>(a[i + ud]) -
                               static_cast<std::uint32_t>(a[i + ud - us]);
    det[i] = static_cast<Sample>(diff * 2u);
  }
}

}  // namespace hbrp::kernels::detail

#endif  // HBRP_KERNELS_X86
