// Integer-factor resampling and beat-window extraction.
//
// The paper's embedded classifier consumes beats downsampled 4x (360 Hz ->
// 90 Hz, 200-sample window -> 50 samples), both to shrink the stored random
// projection matrix and to cut per-beat arithmetic. Downsampling here
// averages each group of `factor` samples (a box anti-alias filter that is
// exact in integer arithmetic).
#pragma once

#include <cstddef>
#include <span>

#include "dsp/signal.hpp"

namespace hbrp::dsp {

/// Number of samples downsample_avg() produces for an n-sample input.
constexpr std::size_t downsampled_size(std::size_t n, std::size_t factor) {
  return (n + factor - 1) / factor;
}

/// Box-filtered downsampling: output[i] = round(mean(x[i*f .. i*f+f-1])).
/// A trailing partial group is averaged over its actual length.
Signal downsample_avg(const Signal& x, std::size_t factor);

/// Allocation-free form of downsample_avg() for batch hot paths: writes
/// exactly downsampled_size(x.size(), factor) samples into `out` (which must
/// be at least that large) and returns that count.
std::size_t downsample_avg_into(std::span<const Sample> x, std::size_t factor,
                                std::span<Sample> out);

/// Extracts a window of `before + after` samples centred on `peak`
/// (samples [peak - before, peak + after)), replicating edge samples when
/// the window overruns the signal boundary.
Signal extract_window(const Signal& x, std::size_t peak, std::size_t before,
                      std::size_t after);

}  // namespace hbrp::dsp
