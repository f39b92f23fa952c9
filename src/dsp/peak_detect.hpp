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
#include <cstdint>
#include <vector>

#include "dsp/signal.hpp"
#include "dsp/wavelet.hpp"

namespace hbrp::dsp {

/// Which R-peak detector a streaming consumer runs. Wavelet is the paper's
/// cross-scale modulus-maxima detector (the accuracy reference);
/// AdaptiveThreshold is the O(1)-per-sample running-amplitude-decay fast
/// path in kernels/dsp_peaks.hpp, accuracy-gated against the wavelet
/// detector by tests/test_detector_equivalence.cpp.
enum class PeakDetectorKind : std::uint8_t { Wavelet, AdaptiveThreshold };

// Detector constants, shared by dsp::detect_r_peaks and the block ports in
// kernels/dsp_peaks.hpp. Times are in seconds and scale with
// PeakDetectorConfig::fs_hz.

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

// The adaptive-threshold fast path (kernels::detect_r_peaks_adaptive).

/// Exponential decay rate (per second) of the running QRS-energy estimate
/// between beats.
inline constexpr double kAdaptiveDecayPerS = 1.0;
/// Trigger threshold as a fraction of the running QRS-energy estimate.
/// 0.5 clears synthetic tall-T and noisy-LBBB records with the
/// slope-energy front end (see kernels::detect_r_peaks_adaptive).
inline constexpr double kAdaptiveFrac = 0.5;
/// Floor for the running estimate, as a fraction of the median per-block
/// energy maximum (keeps long pauses from decaying into the noise floor).
inline constexpr double kAdaptiveFloorFrac = 0.05;
/// Forward apex-search window after a threshold crossing (s).
inline constexpr double kAdaptiveSearchS = 0.10;

struct PeakDetectorConfig {
  int fs_hz = kMitBihFs;
  /// Wavelet scale index (0-based) whose modulus maxima drive detection;
  /// scale 2^3 concentrates QRS energy at 360 Hz.
  std::size_t detect_scale = 2;
  /// Detector selection for streaming consumers (core::StreamingBeatMonitor
  /// and everything above it). Batch dsp::detect_r_peaks always runs the
  /// wavelet detector.
  PeakDetectorKind kind = PeakDetectorKind::Wavelet;
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
