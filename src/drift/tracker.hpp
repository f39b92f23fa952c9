// drift::DriftTracker — per-beat novelty against the training centroids in
// RP space.
//
// The projection stage already reduces every beat to k (8–32) integer
// coefficients, and the random matrix preserves morphology geometry there
// (Johnson–Lindenstrauss is the paper's whole premise). That makes
// comparing each beat with the training centroids in the projected space
// nearly free — a handful of multiply-accumulates per centroid — and it
// answers the question the N/V/L classifier cannot: "this patient's beats
// stopped looking like anything we trained on."
//
// Mechanics, per observe(u):
//
//   1. Seed scan: Euclidean distance from u to every training centroid
//      (the immutable seed export), in that centroid's own within-class
//      sigmas and divided by sqrt(k), so thresholds are in "training
//      sigmas" regardless of k or the integer projection's dynamic range
//      (a seed exported without a sigma falls back to the global scale).
//      The nearest seed gives the beat's distance. The seeds never adapt,
//      so a sustained shift cannot drag the reference frame toward itself
//      and launder the very drift this tracker exists to flag; and
//      per-class units keep a wide class like V from making every far beat
//      look novel.
//   2. Novelty: a beat the caller marked normal-classified is novel when
//      that distance exceeds novelty_threshold. Beats classified
//      pathological are never novel: they already escalate through the
//      classifier path, and counting them would re-alarm on VT or pacing
//      the fleet has known about for years — drift is specifically the
//      *silent* failure mode where the classifier keeps saying "normal"
//      about shapes it was never trained on.
//   3. Score: over a ring of the last window_beats beats, the fraction of
//      normal-classified beats that were novel, with the denominator
//      floored at window_beats/2 so a window holding only a handful of
//      normals (e.g. mid-VT) cannot alarm off ratio noise. The alarm
//      latches while the score sits at/above alarm_threshold once
//      min_beats have been seen; rising edges are counted so telemetry
//      can rate alarms.
//
// Everything is allocated in the constructor; observe() never allocates.
// All arithmetic is double with a fixed evaluation order, so a given
// observation sequence produces bit-identical tracker state on any
// host/thread layout — the service layer leans on this for its
// thread/shard-count identity gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hbrp::drift {

/// Per-class training centroids exported at model-build time (see
/// core::compute_training_centroids). `scale` is the within-class RMS
/// sigma of the training projections — the unit all tracker thresholds
/// are expressed in.
struct TrainingCentroids {
  struct Centroid {
    std::vector<double> mean;  ///< k coefficients
    /// Training beats behind this centroid (carried in the bundle for
    /// provenance; the tracker does not read it).
    double mass = 0.0;
    /// Within-class RMS sigma of this class's training projections; the
    /// novelty distance to this centroid is expressed in these units.
    /// 0 means "not exported" — the tracker falls back to the global
    /// `scale` (hand-built centroids in tests rely on this).
    double sigma = 0.0;
  };

  std::size_t coefficients = 0;
  double scale = 1.0;
  std::vector<Centroid> centroids;
};

struct DriftConfig {
  /// A normal-classified beat further than this (in the nearest seed's
  /// own within-class sigmas) from every training centroid is novel.
  /// Clean streams sit around 0.8–1.1 per-class sigmas and the tightest
  /// confounder (electrode-drop recovery beats) tops out near 1.3, so the
  /// default sits right at the top of that band — see bench_drift's
  /// false-alarm sweep for the measured margins.
  double novelty_threshold = 1.3;
  /// Ring-buffer length for the windowed drift score.
  std::size_t window_beats = 48;
  /// Alarm latches while (novel normals in window) /
  /// max(normals in window, window_beats/2) >= this.
  double alarm_threshold = 0.5;
  /// No alarm before this many beats have been observed (the window must
  /// carry real history before its fraction means anything).
  std::size_t min_beats = 32;
};

/// What observe() tells the caller about one beat.
struct DriftObservation {
  /// Distance to the nearest training centroid, in that centroid's own
  /// within-class sigmas.
  double distance = 0.0;
  double score = 0.0;  ///< windowed novel-normal ratio after this beat
  bool novel = false;  ///< always false for pathological-classified beats
  bool alarm = false;  ///< alarm state after this beat
};

class DriftTracker {
 public:
  /// Copies the training centroids as the reference frame. Requires at
  /// least one centroid, coefficients > 0, scale > 0, non-negative
  /// sigmas and window_beats > 0; any number of centroids fits.
  DriftTracker(const TrainingCentroids& seed, DriftConfig cfg = {});

  /// Observe one classified beat's integer projection (u.size() must be
  /// the seeded coefficient count). `normal_classified` is whether the
  /// classifier called the beat normal — only those can be novel (see the
  /// header comment); a pathological beat still takes its slot in the
  /// score window. Never allocates.
  DriftObservation observe(std::span<const std::int32_t> u,
                           bool normal_classified = true);

  std::size_t coefficients() const { return k_; }
  std::uint64_t beats() const { return beats_; }
  std::uint64_t novel_beats() const { return novel_beats_; }
  std::uint64_t alarms() const { return alarms_; }
  bool alarm_active() const { return alarm_active_; }
  double score() const;

  /// FNV-1a over the exact bit pattern of every observation's seed
  /// distance (folded in by observe()), then the counters and the window
  /// tallies — two trackers that saw the same observation sequence have
  /// equal digests, and any arithmetic divergence in a distance changes
  /// it.
  std::uint64_t state_digest() const;

 private:
  void push_window(bool normal, bool novel);

  DriftConfig cfg_;
  std::size_t k_ = 0;
  /// Training centroid means, seed-major: seed i is [i * k_, (i + 1) * k_).
  std::vector<double> seed_means_;
  /// Per-seed 1 / (sigma * sqrt(k)), or 1 / (scale * sqrt(k)) when the
  /// export carried no sigma.
  std::vector<double> seed_inv_norm_;
  /// Ring buffer: bit 0 = normal-classified, bit 1 = novel.
  std::vector<std::uint8_t> window_;
  std::size_t window_head_ = 0;
  std::size_t window_fill_ = 0;
  std::size_t window_normals_ = 0;
  std::size_t window_novel_ = 0;
  std::uint64_t beats_ = 0;
  std::uint64_t novel_beats_ = 0;
  std::uint64_t alarms_ = 0;
  std::uint64_t distance_hash_ = 1469598103934665603ull;  ///< FNV-1a basis
  bool alarm_active_ = false;
};

}  // namespace hbrp::drift
