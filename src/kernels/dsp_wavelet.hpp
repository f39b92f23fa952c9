// Block-mode à-trous wavelet decomposition behind the scalar/AVX2 dispatch.
//
// Same transform as dsp::wavelet_decompose (Mallat quadratic-spline filters,
// four dyadic scales, per-scale group-delay compensation), restated as flat
// array passes with reusable scratch: the highpass + phase-advance pair is
// fused into one indexed pass per scale, and the lowpass runs vectorized
// over the interior (the first 3*2^(j-1) samples keep the scalar
// edge-replicating form).
//
// Contract: bit-identical to dsp::wavelet_decompose for every input the
// chain can see (|x| <= 4,095, the conditioned range of dsp/signal.hpp's
// contract — the scalar reference accumulates the 8x lowpass sum in 64-bit,
// the kernels in 16-bit, and 8 * 4,095 + 4 < 2^15), and the scalar/AVX2
// forms are bit-identical to each other for every int16 input (both wrap
// mod 2^16). tests/test_kernels_dsp.cpp gates both claims.
#pragma once

#include <cstddef>

#include "dsp/signal.hpp"
#include "dsp/wavelet.hpp"
#include "kernels/cpu.hpp"

namespace hbrp::kernels {

/// Reusable workspace: ping-pong buffers for the cascaded approximations.
struct WaveletScratch {
  dsp::Signal approx_a;
  dsp::Signal approx_b;
};

/// Decomposes `x` into `scales` dyadic detail signals plus the final
/// approximation, writing into `out` (detail slots past `scales` are
/// cleared). Dispatches scalar/AVX2 once per process.
void wavelet_decompose_block(const dsp::Signal& x, std::size_t scales,
                             WaveletScratch& scratch,
                             dsp::WaveletDecomposition& out);
void wavelet_decompose_block_scalar(const dsp::Signal& x, std::size_t scales,
                                    WaveletScratch& scratch,
                                    dsp::WaveletDecomposition& out);
#if HBRP_KERNELS_X86
void wavelet_decompose_block_avx2(const dsp::Signal& x, std::size_t scales,
                                  WaveletScratch& scratch,
                                  dsp::WaveletDecomposition& out);
#endif

namespace detail {
#if HBRP_KERNELS_X86
// Interior passes living in the -mavx2 TU; the caller handles the clamped
// edges scalar. Identical mod-2^32 integer arithmetic to the scalar forms.
void wavelet_lowpass_interior_avx2(const dsp::Sample* a, std::size_t begin,
                                   std::size_t end, std::ptrdiff_t s,
                                   dsp::Sample* y);
void wavelet_detail_interior_avx2(const dsp::Sample* a, std::size_t count,
                                  std::ptrdiff_t d, std::ptrdiff_t s,
                                  dsp::Sample* det);
#endif
}  // namespace detail

}  // namespace hbrp::kernels
