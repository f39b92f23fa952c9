// Deterministic acquisition-fault injection for robustness testing.
//
// Wraps any sample stream and overlays the failure modes a wearable ECG
// front-end actually exhibits: lead-off flat-lines, amplifier/ADC
// saturation plateaus, dropped and duplicated samples (radio/DMA glitches),
// Gaussian and impulsive noise bursts (motion, electrosurgery), and
// non-finite garbage from a misbehaving driver layer. All randomness flows
// from an explicit seed, so a faulted run is bit-reproducible in CI and a
// failure seed can be replayed.
//
// The injector emits `double` samples: that is the only way to represent
// the NaN/Inf fault class, and it mirrors the untrusted raw-ADC boundary
// the monitor's sanitizing push(double) overload defends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/signal.hpp"
#include "math/rng.hpp"

namespace hbrp::testing {

enum class FaultKind : std::uint8_t {
  LeadOff,       ///< electrode detached: output pinned to `level`
  Saturation,    ///< front-end railed: output pinned to the high rail
  DropSamples,   ///< samples silently lost (each input yields no output)
  DupSamples,    ///< samples duplicated (each input yields two outputs)
  GaussianNoise, ///< additive white noise, sigma = `magnitude`
  ImpulseNoise,  ///< sparse spikes of amplitude `magnitude` at `rate`
  NonFinite,     ///< NaN / +-Inf substituted at `rate`
};

const char* to_string(FaultKind kind);

/// One fault active over [start, start + duration) of the *input* stream.
struct FaultEvent {
  FaultKind kind = FaultKind::LeadOff;
  std::size_t start = 0;
  std::size_t duration = 0;
  /// LeadOff: output level (adu). GaussianNoise: sigma (adu).
  /// ImpulseNoise: spike amplitude (adu). Others: unused.
  double magnitude = 0.0;
  /// ImpulseNoise / NonFinite: per-sample corruption probability.
  double rate = 0.05;
};

struct FaultInjectorConfig {
  std::vector<FaultEvent> events;
  std::uint64_t seed = 1;
  /// Rails used by the Saturation fault and as the clamp for noisy output.
  dsp::Sample rail_low = 0;
  dsp::Sample rail_high = 2047;
};

/// Appends a seeded train of `count` short `kind` bursts scattered over
/// input indices [start, start + span): each burst's length is drawn
/// uniformly from [min_len, max_len] and its offset uniformly within the
/// window (bursts may overlap; FaultInjector composes overlapping events).
/// `magnitude`/`rate` carry through to every burst. The scenario engine
/// uses this for artefact storms and electrode-drop episodes; determinism
/// flows entirely from the caller's `rng`.
void append_burst_train(std::vector<FaultEvent>& events, math::Rng& rng,
                        FaultKind kind, std::size_t start, std::size_t span,
                        std::size_t count, std::size_t min_len,
                        std::size_t max_len, double magnitude,
                        double rate = 0.05);

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorConfig cfg);

  /// Feeds one clean input sample; returns zero, one or two corrupted
  /// output samples depending on the faults active at this input index.
  std::vector<double> feed(dsp::Sample x);

  /// Convenience: runs a whole signal through a fresh injector.
  static std::vector<double> apply(const dsp::Signal& in,
                                   const FaultInjectorConfig& cfg);

 private:
  FaultInjectorConfig cfg_;
  math::Rng rng_;
  std::size_t index_ = 0;
};

}  // namespace hbrp::testing
