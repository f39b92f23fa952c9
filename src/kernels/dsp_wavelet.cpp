#include "kernels/dsp_wavelet.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "math/check.hpp"

namespace hbrp::kernels {

namespace {

using dsp::Sample;
using dsp::Signal;

// Clamped (edge-replicating) access, as in dsp/wavelet.cpp.
inline Sample at(const Sample* x, std::size_t n, std::ptrdiff_t i) {
  const auto last = static_cast<std::ptrdiff_t>(n) - 1;
  return x[static_cast<std::size_t>(std::clamp(i, std::ptrdiff_t{0}, last))];
}

// Lowpass tap: (x[i] + 3 x[i-s] + 3 x[i-2s] + x[i-3s] + 4) >> 3, the sum
// narrowed to a Sample before the shift — mod 2^16, exactly like the AVX2
// epi16 adds — and equal to the reference's int64 form whenever the sum
// fits int16, which the range contract guarantees on conditioned input.
inline Sample lowpass_tap(std::uint32_t x0, std::uint32_t x1, std::uint32_t x2,
                          std::uint32_t x3) {
  const std::uint32_t acc = x0 + x1 + x1 + x1 + x2 + x2 + x2 + x3 + 4u;
  return static_cast<Sample>(acc) >> 3;
}

// detail[i] = 2 * (a[m] - a[max(m - s, 0)]) with m = min(i + d, n - 1):
// highpass at spacing s fused with the phase advance by d, narrowed mod
// 2^16 like the AVX2 epi16 form (|detail| <= 16,380 on conditioned input).
inline Sample detail_tap(const Sample* a, std::size_t n, std::ptrdiff_t i,
                         std::ptrdiff_t d, std::ptrdiff_t s) {
  const auto last = static_cast<std::ptrdiff_t>(n) - 1;
  const std::ptrdiff_t m = std::min(i + d, last);
  const std::uint32_t diff =
      static_cast<std::uint32_t>(a[static_cast<std::size_t>(m)]) -
      static_cast<std::uint32_t>(at(a, n, m - s));
  return static_cast<Sample>(diff * 2u);
}

void wavelet_impl(const Signal& x, std::size_t scales, SimdLevel level,
                  WaveletScratch& scr, dsp::WaveletDecomposition& out) {
  HBRP_REQUIRE(scales >= 1 && scales <= dsp::kWaveletScales,
               "wavelet_decompose_block(): scales must be in [1, 4]");
  const std::size_t n = x.size();
  for (std::size_t j = scales; j < dsp::kWaveletScales; ++j)
    out.detail[j].clear();
  if (n == 0) {
    for (std::size_t j = 0; j < scales; ++j) out.detail[j].clear();
    out.approx.clear();
    return;
  }

  const Sample* approx = x.data();
  Signal* next = &scr.approx_a;
  Signal* other = &scr.approx_b;
  // Group delays are kept in half samples, so they stay integers: rounding
  // a delay of k/2 samples half up, as dsp::wavelet_decompose does, gives
  // (k + 1) / 2 samples.
  std::ptrdiff_t approx2 = 0;  // cumulative group delay of `approx`
  for (std::size_t j = 1; j <= scales; ++j) {
    const auto s = static_cast<std::ptrdiff_t>(1) << (j - 1);
    const std::ptrdiff_t detail2 = approx2 + s;  // highpass adds s/2
    const std::ptrdiff_t d = (detail2 + 1) / 2;

    Signal& det = out.detail[j - 1];
    det.resize(n);
    // Interior: i + d <= n - 1 avoids the right clamp, and d >= s at every
    // scale keeps m - s >= 0, so the fused tap is two loads, a subtract
    // and a shift.
    const std::size_t interior =
        n > static_cast<std::size_t>(d) ? n - static_cast<std::size_t>(d) : 0;
#if HBRP_KERNELS_X86
    if (level == SimdLevel::Avx2) {
      detail::wavelet_detail_interior_avx2(approx, interior, d, s, det.data());
    } else
#endif
    {
      for (std::size_t i = 0; i < interior; ++i)
        det[i] = detail_tap(approx, n, static_cast<std::ptrdiff_t>(i), d, s);
    }
    for (std::size_t i = interior; i < n; ++i)
      det[i] = detail_tap(approx, n, static_cast<std::ptrdiff_t>(i), d, s);

    next->resize(n);
    Sample* y = next->data();
    const std::size_t edge = std::min(n, static_cast<std::size_t>(3 * s));
    for (std::size_t i = 0; i < edge; ++i) {
      const auto ii = static_cast<std::ptrdiff_t>(i);
      y[i] = lowpass_tap(static_cast<std::uint32_t>(approx[i]),
                         static_cast<std::uint32_t>(at(approx, n, ii - s)),
                         static_cast<std::uint32_t>(at(approx, n, ii - 2 * s)),
                         static_cast<std::uint32_t>(at(approx, n, ii - 3 * s)));
    }
#if HBRP_KERNELS_X86
    if (level == SimdLevel::Avx2) {
      detail::wavelet_lowpass_interior_avx2(approx, edge, n, s, y);
    } else
#endif
    {
      const auto us = static_cast<std::size_t>(s);
      for (std::size_t i = edge; i < n; ++i)
        y[i] = lowpass_tap(static_cast<std::uint32_t>(approx[i]),
                           static_cast<std::uint32_t>(approx[i - us]),
                           static_cast<std::uint32_t>(approx[i - 2 * us]),
                           static_cast<std::uint32_t>(approx[i - 3 * us]));
    }

    approx = next->data();
    std::swap(next, other);
    approx2 += 3 * s;  // lowpass adds 1.5 s
  }

  // Final smooth approximation, phase-advanced like dsp::wavelet_decompose.
  out.approx.resize(n);
  const std::ptrdiff_t adv = (approx2 + 1) / 2;
  const std::size_t off = std::min(static_cast<std::size_t>(adv), n);
  const std::size_t copy_n = n - off;
  std::copy_n(approx + off, copy_n, out.approx.data());
  std::fill(out.approx.begin() + static_cast<std::ptrdiff_t>(copy_n),
            out.approx.end(), approx[n - 1]);
}

}  // namespace

void wavelet_decompose_block(const Signal& x, std::size_t scales,
                             WaveletScratch& scratch,
                             dsp::WaveletDecomposition& out) {
  wavelet_impl(x, scales, active_level(), scratch, out);
}

void wavelet_decompose_block_scalar(const Signal& x, std::size_t scales,
                                    WaveletScratch& scratch,
                                    dsp::WaveletDecomposition& out) {
  wavelet_impl(x, scales, SimdLevel::Scalar, scratch, out);
}

#if HBRP_KERNELS_X86
void wavelet_decompose_block_avx2(const Signal& x, std::size_t scales,
                                  WaveletScratch& scratch,
                                  dsp::WaveletDecomposition& out) {
  wavelet_impl(x, scales, SimdLevel::Avx2, scratch, out);
}
#endif

}  // namespace hbrp::kernels
