// Common signal types for the acquisition/processing chain.
//
// Samples are signed 16-bit integers throughout the embedded-facing DSP path:
// the MIT-BIH-style ADC emits 11-bit codes, the wire carries 12, all filters
// here are exact in integer arithmetic (morphology) or use power-of-two
// scaling (spline wavelet), and the WBSN platform the paper targets has no
// FPU and 96 KB of RAM. Below the edge — after dsp::sanitize_sample, the ADC
// or the wire decoder — every buffer holds this type, and the range contract
// below is why 16 bits are enough.
#pragma once

#include <cstdint>
#include <vector>

namespace hbrp::dsp {

using Sample = std::int16_t;
using Signal = std::vector<Sample>;

/// The range contract. A code lies in [kMinCode, kMaxCode], 12-bit two's
/// complement: dsp::sanitize_sample clamps to rails inside it, every
/// monitor and node requires its rails to lie inside it, and the wire
/// decoder cannot produce anything else. What the chain derives from codes
/// stays within int16 by construction, so no stage widens or saturates:
///  - a conditioned sample is x minus a baseline inside [min x, max x] (an
///    opening/closing never leaves the range of its input), then min/max
///    and a rounded average of such values: |c| <= kMaxConditioned = 4,095;
///  - the spline wavelet's approximations stay inside the range of their
///    input, so a detail 2 (a[i] - a[i - s]) is at most 4 * 4,095 = 16,380;
///  - its lowpass accumulator a + 3a + 3a + a + 4 is at most
///    8 * 4,095 + 4 = 32,764, below 2^15, so the 16-bit wrap of the kernels
///    never occurs on a conditioned input.
inline constexpr Sample kMinCode = -2048;
inline constexpr Sample kMaxCode = 2047;
inline constexpr Sample kMaxConditioned = kMaxCode - kMinCode;
static_assert(4 * kMaxConditioned <= INT16_MAX,
              "a wavelet detail of conditioned codes must fit a Sample");
static_assert(8 * kMaxConditioned + 4 <= INT16_MAX,
              "the wavelet lowpass accumulator must fit a Sample");

/// Sampling rate of the MIT-BIH Arrhythmia recordings (Hz).
inline constexpr int kMitBihFs = 360;

/// Embedded-side sampling rate after the paper's 4x downsampling (Hz).
inline constexpr int kEmbeddedFs = 90;

}  // namespace hbrp::dsp
