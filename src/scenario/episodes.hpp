// Scripted adversarial ward episodes.
//
// The paper validates on clean MIT-BIH excerpts; the systematic review in
// PAPERS.md shows that is the norm — and that robustness under realistic
// degradation is almost never regression-tested. This module closes that
// gap on the generator side: a ScenarioSpec names a seeded script of
// adversarial episodes, and build_scenario() compiles it into one
// deterministic sample stream with AAMI-class ground truth:
//
//   AfibIrregularRr  highly irregular RR (no respiratory rhythm, wide
//                    uniform RR spread) — stresses every RR-statistics
//                    assumption a detector makes (cf. SNIPPETS.md Snippet 1,
//                    whose AF discriminator is exactly RR dispersion);
//   SustainedVt      a run of fast wide V beats (~170 bpm) opened by one
//                    fusion beat (AAMI F): the N/V blend at onset is the
//                    classic hard case;
//   PacedRhythm      narrow pacemaker spikes before each QRS; AAMI Q
//                    ground truth (paced beats are unclassifiable to a
//                    model that never saw them);
//   ArtefactStorm    motion/EMG bursts via testing::FaultInjector
//                    (Gaussian + impulse trains — Snippet 2's artefact-gate
//                    territory: the right answer is to distrust, not
//                    classify);
//   ElectrodeDrop    lead-off flat-line bursts with brief recoveries;
//   ClockSkew        the node's sample clock runs fast/slow by a small
//                    factor — the whole episode is resampled, annotations
//                    move with it;
//   RateMismatch     a mid-record firmware misconfiguration: one segment
//                    is resampled by a large factor (e.g. 300 Hz data on a
//                    360 Hz contract), splicing cleanly back afterwards;
//   SupraventricularRun  a run of premature narrow-QRS beats (atrial
//                    ectopy): normal morphology arriving far too early,
//                    AAMI S ground truth — the class the AAMI robustness
//                    gate previously never saw (zero denominator).
//
// Everything is deterministic in ScenarioSpec::seed: same spec, same
// stream, bit for bit — the property the wire-path replay and the CI
// robustness gate both build on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "ecg/synth.hpp"

namespace hbrp::scenario {

enum class EpisodeKind : std::uint8_t {
  AfibIrregularRr,
  SustainedVt,
  PacedRhythm,
  ArtefactStorm,
  ElectrodeDrop,
  ClockSkew,
  RateMismatch,
  SupraventricularRun,
  MorphologyShift,
};

const char* to_string(EpisodeKind kind);

/// One adversarial episode over [start_s, start_s + duration_s) of the
/// scenario timeline. `magnitude` is kind-specific:
///   ArtefactStorm  noise sigma scale (adu ~ 120 * magnitude)
///   ElectrodeDrop  unused (bursts are scripted by the seed)
///   ClockSkew      fractional skew (0.03 = clock 3% fast)
///   RateMismatch   resample factor (0.833 = 300 Hz data on a 360 Hz link)
///   MorphologyShift  blend amplitude of the fused novel wavefront
///   others         unused
struct Episode {
  EpisodeKind kind = EpisodeKind::ArtefactStorm;
  double start_s = 0.0;
  double duration_s = 0.0;
  double magnitude = 1.0;
};

struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = 1;
  double duration_s = 60.0;
  int fs_hz = dsp::kMitBihFs;
  double heart_rate_bpm = 75.0;
  /// Background beat mix outside rhythm episodes.
  ecg::RecordProfile background = ecg::RecordProfile::NormalSinus;
  std::vector<Episode> episodes;
  /// Baseline acquisition-noise scale fed to the renderer.
  double noise_scale = 0.6;
};

/// Ground truth for one scripted beat on the final stream timeline.
struct TruthBeat {
  std::size_t sample = 0;         ///< R-peak index in ScenarioStream::samples
  ecg::BeatClass cls = ecg::BeatClass::N;  ///< pipeline-level class
  core::AamiClass aami = core::AamiClass::N;
  /// The beat lies inside a lead-off/saturation burst: detection is
  /// physically impossible, so a miss here is not a detector failure.
  bool obscured = false;
};

/// RR-interval statistics over the scripted rhythm (SNIPPETS.md Snippet 1
/// idiom: mean/SDNN/RMSSD/pNN50 are the features an AF discriminator runs
/// on, reported per scenario so irregularity is visible in the bench table).
struct RrStats {
  double mean_ms = 0.0;
  double sdnn_ms = 0.0;
  double rmssd_ms = 0.0;
  double pnn50 = 0.0;
};

/// One compiled scenario: the adversarial sample stream (doubles, as a
/// driver hands them up; NaN/Inf faults survive into it, and the runners
/// turn them into codes with dsp::sanitize_lead) plus truth.
struct ScenarioStream {
  int fs_hz = dsp::kMitBihFs;
  std::vector<double> samples;
  std::vector<TruthBeat> truth;
  RrStats rr;
  std::size_t artefact_samples = 0;  ///< samples under any fault event
};

/// Compiles a spec into its stream. Deterministic in spec.seed.
ScenarioStream build_scenario(const ScenarioSpec& spec);

/// RR statistics of a beat-position sequence (sample indices at `fs_hz`).
RrStats rr_statistics(const std::vector<std::size_t>& r_peaks, int fs_hz);

/// The named suite the bench table and CI soak run: one scenario per
/// episode kind plus a clean-ward control, all `duration_s` long and
/// seeded from `seed_base` (scenario i uses seed_base + i).
std::vector<ScenarioSpec> standard_scenarios(double duration_s,
                                             std::uint64_t seed_base);

}  // namespace hbrp::scenario
