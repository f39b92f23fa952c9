// Firmware-shaped streaming beat finder.
//
// RealTimePipeline (core/pipeline.hpp) emulates the WBSN application over a
// whole recorded lead at once; this class is the push-one-ADC-sample-at-a-
// time equivalent with bounded memory, which is what actually runs on the
// node: a block conditioner (kernels/dsp_condition.hpp) batches raw samples
// and feeds a rolling analysis buffer of a few seconds; whenever the buffer
// fills, the wavelet R-peak detector (kernels/dsp_peaks.hpp) scans it, and
// beats far enough from the buffer's right edge are finalized, graded and
// handed to the caller's PendingBeatSink together with their beat window
// and a view of the buffer around them (what a node delineates on); the
// buffer then slides, keeping one overlap region so no beat is lost at a
// chunk boundary.
//
// The monitor finds beats; it does not classify them. The consumer maps
// each window to a class: service::Session batches the windows of a whole
// shard into one embedded::EmbeddedClassifier::classify_batch call, and
// net::SensorNodeClient classifies each window on the node (and delineates
// the flagged ones there). Either way the
// consumer is the one place that classifies and observes drift. Together
// they cover the classification sub-system (1) of the paper's Fig. 6 — the
// decision *whether* a beat needs the detailed multi-lead analysis.
//
// Fault tolerance: a streaming signal-quality estimator (dsp/quality.hpp)
// grades the raw input and drives a Good / Suspect / Bad degradation
// machine. Beats detected during Suspect segments are escalated to the
// safe default (Unknown ⇒ pathological ⇒ full delineation); during Bad
// segments (lead-off, saturation) detection is suppressed entirely and the
// conditioner plus rolling buffer are re-armed on recovery, so no stale
// filter state or poisoned adaptive threshold touches the first beats
// after a reconnect. The monitor takes ADC codes only: a producer holding
// doubles (a driver that can hand up NaN) turns them into codes at its own
// edge with dsp::sanitize_sample / dsp::sanitize_lead. The monitor still
// clamps out-of-range codes to the rails, counted in MonitorStats.
#pragma once

#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "dsp/peak_detect.hpp"
#include "dsp/quality.hpp"
#include "embedded/bundle.hpp"
#include "kernels/dsp_condition.hpp"

namespace hbrp::core {

/// One finalized beat from the streaming monitor.
struct MonitorBeat {
  /// R-peak index on the conditioned-signal timeline (aligned with the raw
  /// input timeline; availability lags by StreamingBeatMonitor::latency()).
  std::size_t r_peak = 0;
  /// Set by the monitor only for Suspect beats, always to Unknown (safe
  /// default: escalate to detailed analysis); for every other beat the
  /// consumer's classification of the window (see PendingBeat).
  ecg::BeatClass predicted = ecg::BeatClass::N;
  /// Acquisition quality at the beat's position.
  dsp::SignalQuality quality = dsp::SignalQuality::Good;
};

/// Cumulative acquisition/robustness counters (never reset by flush()).
struct MonitorStats {
  std::size_t samples_in = 0;         ///< raw samples offered to push()
  std::size_t clamped = 0;            ///< out-of-range codes clamped to rails
  std::size_t bad_signal_samples = 0; ///< samples discarded while Bad
  std::size_t suspect_beats = 0;      ///< beats escalated to Unknown
  std::size_t degradations = 0;       ///< entries into the Bad state
  std::size_t recoveries = 0;         ///< re-arms after leaving Bad
};

struct MonitorConfig {
  std::size_t window_before = 100;
  std::size_t window_after = 100;
  dsp::FilterConfig filter = dsp::FilterConfig::for_rate(dsp::kMitBihFs);
  dsp::PeakDetectorConfig peak;
  /// Rolling analysis buffer (s). Must hold several beats for the adaptive
  /// threshold to make sense.
  double chunk_s = 8.0;
  /// Overlap carried between consecutive scans (s); must exceed one beat
  /// window plus the detector refractory so boundary beats are not lost.
  double overlap_s = 2.0;
  /// Signal-quality gating (SQI chunking, thresholds, hysteresis).
  dsp::QualityConfig quality;
  /// Disables the degradation machine (every beat reports Good and nothing
  /// is suppressed) — the pre-robustness behaviour, kept for A/B tests.
  bool quality_gating = true;
};

/// A finalized beat, handed over as soon as the monitor commits to it.
///
/// When `needs_classification` is true, `window` views the monitor's rolling
/// buffer (window_before + window_after samples around the R peak) and
/// `context` views the whole buffer, with the R peak at
/// `context[context_peak]`: the conditioned signal a consumer delineates
/// the beat on. Both are valid only for the duration of the sink call:
/// classify or delineate there, or copy out. Mid-stream the scan guards
/// leave at least overlap_s / 2 + window_after samples of context right of
/// the peak (460 at the default config) and window_before left of it; a
/// beat past the previous scan's frontier, which is nearly every beat, has
/// overlap_s / 2 + window_before - window_after on its left (360). Only the
/// stream start, a re-arm after Bad signal and the final flush hold less,
/// where the conditioned signal itself begins or ends. When false the
/// monitor has already decided (Suspect signal escalates straight to
/// Unknown), `window` and `context` are empty and the beat carries no
/// projection, so it must not count toward a drift score either.
struct PendingBeat {
  MonitorBeat beat;
  std::span<const dsp::Sample> window;
  std::span<const dsp::Sample> context;
  std::size_t context_peak = 0;
  bool needs_classification = false;
};

/// Receives each finalized beat (see PendingBeat), in report order.
using PendingBeatSink = std::function<void(const PendingBeat&)>;

class StreamingBeatMonitor {
 public:
  /// The classifier only fixes the window geometry: window_before +
  /// window_after must equal its expected window. The monitor keeps no copy.
  StreamingBeatMonitor(const embedded::EmbeddedClassifier& classifier,
                       MonitorConfig cfg = {});

  /// Feeds one raw ADC sample; every beat finalized by this sample (usually
  /// none, occasionally a handful when a chunk completes) is delivered to
  /// `sink` in report order. No per-sample allocation on the steady-state
  /// path — this is the firmware-shaped entry point.
  void push(dsp::Sample x, const PendingBeatSink& sink);
  /// A double is not a code: sanitize it at the edge (dsp::sanitize_sample)
  /// instead of letting it truncate through the implicit conversion.
  void push(double x, const PendingBeatSink& sink) = delete;

  /// Block entry point: feeds a contiguous run of samples. Exactly
  /// equivalent to pushing each sample in order — same beats, same order,
  /// same stats — but the natural shape for batch producers (drain queues,
  /// record replay) now that the conditioner itself works in blocks.
  void push_block(std::span<const dsp::Sample> xs, const PendingBeatSink& sink);

  /// Finalizes everything still buffered into `sink` and resets the monitor
  /// (the cumulative stats() survive).
  void flush(const PendingBeatSink& sink);

  /// Worst-case number of samples this monitor holds between pushes: its
  /// rolling buffer plus its conditioner's history and pending batch. This
  /// bounds per-monitor state only. The conditioning and detection
  /// intermediates live in the calling thread's kernels::DspWorkspace,
  /// shared by every monitor on the thread; at the default configuration
  /// that workspace alone measures ~85 KB.
  std::size_t memory_samples() const;

  /// Input-to-report latency bound, in samples (conditioner delay plus its
  /// batching slack plus one full analysis chunk).
  std::size_t latency() const;

  /// Current acquisition-quality state of the degradation machine.
  dsp::SignalQuality quality() const { return quality_state_; }

  /// Cumulative robustness counters.
  const MonitorStats& stats() const { return stats_; }

 private:
  void scan(bool final_pass, const PendingBeatSink& sink);
  void on_quality_update(dsp::SignalQuality next, const PendingBeatSink& sink);
  dsp::SignalQuality quality_at(std::size_t absolute) const;
  void rearm(std::size_t at_absolute);
  /// Moves cond_out_ into the rolling buffer, scanning at every exact
  /// chunk-boundary crossing — the scan positions a sample-at-a-time feed
  /// would hit, so beat streams are unchanged by batching.
  void append_conditioned(const PendingBeatSink& sink);
  /// Drains the conditioner's pending batch through append_conditioned().
  void sync_conditioner(const PendingBeatSink& sink);

  MonitorConfig cfg_;
  kernels::BlockConditioner conditioner_;
  dsp::Signal cond_out_;  // conditioner output staging (reused)
  std::vector<std::size_t> peaks_;  // detector output (reused)
  dsp::SignalQualityEstimator sqi_;
  dsp::Signal buffer_;           // rolling conditioned samples
  std::size_t buffer_base_ = 0;  // absolute index of buffer_[0]
  std::size_t emitted_up_to_ = 0;  // absolute index: peaks below are reported
  std::size_t chunk_samples_ = 0;
  std::size_t overlap_samples_ = 0;

  // Degradation machine (see header comment).
  dsp::SignalQuality quality_state_ = dsp::SignalQuality::Good;
  std::size_t input_index_ = 0;  // raw samples accepted onto the timeline
  bool needs_rearm_ = false;     // recovery pending: restart timeline anchors
  // Sparse (absolute index, state-from-there) history so beats finalized
  // several seconds later are tagged with the quality at *their* position.
  std::deque<std::pair<std::size_t, dsp::SignalQuality>> transitions_;
  dsp::SignalQuality baseline_quality_ = dsp::SignalQuality::Good;
  MonitorStats stats_;
};

}  // namespace hbrp::core
