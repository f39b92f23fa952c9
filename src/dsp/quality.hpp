// Streaming signal-quality estimation (SQI) for the acquisition front-end.
//
// A field-deployed WBSN sees lead-off intervals (electrode detached: the
// front-end rails or flat-lines), amplifier/ADC saturation, motion bursts
// and electrosurgery impulses. Classifying beats through those segments
// produces garbage labels at best and poisons the adaptive detector
// threshold at worst. This module grades the raw ADC stream in fixed-length
// chunks using four integer-only checks — rail clipping, flat-line runs,
// chunk variance (lead-off collapse) and impulsive sample-to-sample jumps —
// and drives a three-state machine with hysteresis:
//
//   Good ──(suspect/bad chunk)──▶ Suspect ──(bad chunk)──▶ Bad
//   Bad  ──(N clean chunks)────▶ Suspect ──(N clean chunks)──▶ Good
//
// Demotion is immediate (one offending chunk), promotion requires
// `recover_chunks` consecutive clean chunks, so a flapping electrode cannot
// oscillate the consumer. All per-sample work is integer compares and
// 64-bit accumulation — affordable on the 6 MHz target next to the
// morphological conditioner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/signal.hpp"

namespace hbrp::dsp {

/// Acquisition-quality grade of a signal segment.
enum class SignalQuality : std::uint8_t {
  Good = 0,     ///< trust detections and classifications
  Suspect = 1,  ///< detect, but escalate beats to the safe default (Unknown)
  Bad = 2,      ///< suppress detection entirely (lead-off / saturation)
};

constexpr const char* to_string(SignalQuality q) {
  switch (q) {
    case SignalQuality::Good: return "good";
    case SignalQuality::Suspect: return "suspect";
    case SignalQuality::Bad: return "bad";
  }
  return "?";
}

/// The sampling rate, the chunking, the rails and the recovery streak. The
/// grading thresholds are constants of dsp/quality.cpp.
struct QualityConfig {
  int fs_hz = kMitBihFs;
  /// SQI evaluation granularity (s). Short enough that one bad chunk costs
  /// little signal, long enough to hold a statistically meaningful count.
  double chunk_s = 0.5;

  /// ADC rails (MIT-BIH-style 11-bit front end). Samples outside are
  /// clamped to the rails before accumulation, so arbitrarily corrupt
  /// int32 garbage degrades into detectable clipping instead of overflow.
  Sample rail_low = 0;
  Sample rail_high = 2047;

  /// Consecutive clean chunks required to step one state toward Good.
  int recover_chunks = 2;
};

/// The code between the rails: the sample-hold value before any sample has
/// been accepted.
constexpr Sample mid_rail(const QualityConfig& rails) {
  return static_cast<Sample>(
      (static_cast<std::int64_t>(rails.rail_low) + rails.rail_high) / 2);
}

/// Which branch of the boundary rule a value took (see sanitize_sample).
enum class SampleFix : std::uint8_t {
  None,     ///< finite and within the rails: rounded only
  Clamped,  ///< finite but outside the rails: clamped, then rounded
  Held,     ///< non-finite: replaced by the held code
};

/// The ADC boundary's rule for one double sample: the one place a double
/// becomes a code. The monitor, the fleet session and the sensor node take
/// codes only; a producer that holds doubles (a driver that can hand up
/// NaN) converts them at its own edge with this. A non-finite value repeats
/// `hold`, so the timeline keeps its cadence and a sustained burst
/// flat-lines into something the SQI estimator degrades on. Any other
/// value is clamped to the rails, rounded, and becomes the new `hold`.
Sample sanitize_sample(double x, const QualityConfig& rails, Sample& hold,
                       SampleFix& fix);

/// A whole lead through sanitize_sample(), from the mid_rail() hold: the
/// codes a node or a monitor fed these doubles one by one accepts.
std::vector<Sample> sanitize_lead(std::span<const double> xs,
                                  const QualityConfig& rails);

/// Integer summary of one graded chunk (exposed for tests and telemetry).
struct QualityMetrics {
  std::size_t samples = 0;
  std::size_t clipped = 0;
  std::size_t flat = 0;
  std::size_t impulses = 0;
  double variance = 0.0;
  SignalQuality grade = SignalQuality::Good;
};

class SignalQualityEstimator {
 public:
  explicit SignalQualityEstimator(const QualityConfig& cfg = {});

  /// Feeds one raw ADC sample. Returns the (possibly unchanged) machine
  /// state whenever a chunk boundary is crossed, nullopt otherwise.
  std::optional<SignalQuality> push(Sample x);

  /// Current state of the hysteresis machine.
  SignalQuality state() const { return state_; }

  /// Metrics of the most recently completed chunk.
  const QualityMetrics& last_chunk() const { return last_; }

  /// Samples per grading chunk.
  std::size_t chunk_samples() const { return chunk_samples_; }

  /// Returns to the initial (Good, empty-chunk) state.
  void reset();

 private:
  SignalQuality grade_chunk();

  QualityConfig cfg_;
  std::size_t chunk_samples_ = 0;

  // Per-chunk integer accumulators.
  std::size_t n_ = 0;
  std::size_t clipped_ = 0;
  std::size_t flat_ = 0;
  std::size_t impulses_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t sum_sq_ = 0;
  Sample prev_ = 0;
  bool has_prev_ = false;

  // Precomputed integer thresholds (counts per chunk), so the per-chunk
  // grading is compare-only.
  std::size_t clip_bad_count_ = 0;
  std::size_t flat_bad_count_ = 0;
  std::size_t clip_suspect_count_ = 0;
  std::size_t flat_suspect_count_ = 0;
  std::size_t impulse_suspect_count_ = 0;

  SignalQuality state_ = SignalQuality::Good;
  int clean_streak_ = 0;
  QualityMetrics last_;
};

}  // namespace hbrp::dsp
