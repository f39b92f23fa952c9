// Wavelet-based R-peak detection.
//
// Implements the detector the paper inherits from Rincon et al. 2011 (after
// Li et al. 1995): QRS complexes generate pairs of modulus maxima with
// opposite signs across the dyadic wavelet scales; the R peak is the
// zero-crossing between the members of a pair on a fine scale. An adaptive
// per-block threshold rejects noise maxima, a refractory period suppresses
// double detections (T waves), and a search-back pass with a lowered
// threshold recovers low-amplitude beats when an abnormally long RR interval
// is observed.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/signal.hpp"
#include "dsp/wavelet.hpp"

namespace hbrp::dsp {

// Detector constants, shared by dsp::detect_r_peaks and its block port in
// kernels/dsp_peaks.hpp. Times are in seconds and scale with
// PeakDetectorConfig::fs_hz.

/// Wavelet scale index (0-based) whose modulus maxima drive detection:
/// scale 2^3 concentrates QRS energy at 360 Hz. Scale 2^2 confirms its
/// candidates, and scale 2^4 runs the second pass for wide complexes.
inline constexpr std::size_t kDetectScale = 2;
static_assert(kDetectScale >= 1 && kDetectScale + 1 < kWaveletScales);
/// Minimum separation between beats (s). 250 ms == 240 bpm ceiling.
inline constexpr double kRefractoryS = 0.25;
/// Maximum separation between the two maxima of a QRS pair (s).
inline constexpr double kPairWindowS = 0.12;
/// Adaptive threshold as a fraction of the running signal-peak estimate.
inline constexpr double kThresholdFrac = 0.3;
/// Analysis block used to seed the adaptive threshold (s).
inline constexpr double kBlockS = 2.0;
/// Search-back triggers when RR exceeds this multiple of the running mean.
inline constexpr double kSearchbackRrFactor = 1.66;
/// Threshold scaling during search-back.
inline constexpr double kSearchbackFrac = 0.4;

struct PeakDetectorConfig {
  int fs_hz = kMitBihFs;
};

/// Detects R-peak sample indices in a conditioned (baseline-free) ECG lead.
/// Returned indices are sorted and unique.
std::vector<std::size_t> detect_r_peaks(const Signal& conditioned,
                                        const PeakDetectorConfig& cfg = {});

/// Detection quality versus reference annotations: a detection matches a
/// reference peak if within `tolerance` samples.
struct PeakMatchStats {
  std::size_t true_positive = 0;
  std::size_t false_positive = 0;
  std::size_t false_negative = 0;

  double sensitivity() const;
  double positive_predictivity() const;
};

PeakMatchStats match_peaks(const std::vector<std::size_t>& detected,
                           const std::vector<std::size_t>& reference,
                           std::size_t tolerance);

}  // namespace hbrp::dsp
