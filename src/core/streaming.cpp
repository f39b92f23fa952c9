#include "core/streaming.hpp"

#include <algorithm>

#include "dsp/resample.hpp"
#include "ecg/types.hpp"
#include "kernels/dsp_peaks.hpp"
#include "kernels/dsp_workspace.hpp"
#include "math/check.hpp"

namespace hbrp::core {

StreamingBeatMonitor::StreamingBeatMonitor(
    const embedded::EmbeddedClassifier& classifier, MonitorConfig cfg)
    : cfg_(std::move(cfg)), conditioner_(cfg_.filter), sqi_(cfg_.quality) {
  HBRP_REQUIRE(cfg_.window_before + cfg_.window_after ==
                   classifier.projector().expected_window(),
               "StreamingBeatMonitor: window geometry does not match the "
               "classifier");
  // The conditioning and wavelet arithmetic is exact in 16 bits only for
  // codes inside the range contract (dsp/signal.hpp); the rails clamp
  // every sample into them.
  HBRP_REQUIRE(cfg_.quality.rail_low >= dsp::kMinCode &&
                   cfg_.quality.rail_high <= dsp::kMaxCode,
               "StreamingBeatMonitor: ADC rails must lie in the code range "
               "[-2048, 2047]");
  chunk_samples_ =
      static_cast<std::size_t>(cfg_.chunk_s * cfg_.peak.fs_hz);
  overlap_samples_ =
      static_cast<std::size_t>(cfg_.overlap_s * cfg_.peak.fs_hz);
  const std::size_t min_overlap =
      cfg_.window_before + cfg_.window_after +
      static_cast<std::size_t>(dsp::kRefractoryS * cfg_.peak.fs_hz);
  HBRP_REQUIRE(overlap_samples_ >= min_overlap,
               "StreamingBeatMonitor: overlap shorter than one beat window "
               "plus the refractory period");
  HBRP_REQUIRE(chunk_samples_ > 2 * overlap_samples_,
               "StreamingBeatMonitor: chunk must exceed twice the overlap");
}

void StreamingBeatMonitor::push(dsp::Sample x, const PendingBeatSink& sink) {
  ++stats_.samples_in;
  if (x < cfg_.quality.rail_low || x > cfg_.quality.rail_high) {
    ++stats_.clamped;
    x = std::clamp(x, cfg_.quality.rail_low, cfg_.quality.rail_high);
  }
  const std::size_t idx = input_index_++;

  if (cfg_.quality_gating) {
    const bool was_bad = quality_state_ == dsp::SignalQuality::Bad;
    if (const auto update = sqi_.push(x)) {
      if (*update != quality_state_) {
        // A real transition: drain the conditioner's pending batch first so
        // every scan that would have preceded this moment on the per-sample
        // path happens before the transition is recorded. Same-state SQI
        // updates (the common case, one per SQI chunk) skip the sync and
        // keep the conditioner batching at full size.
        sync_conditioner(sink);
        on_quality_update(*update, sink);
      }
    }
    if (was_bad || quality_state_ == dsp::SignalQuality::Bad) {
      // Suppressed: consumed while in (or entering / just leaving) the Bad
      // state. Recovery re-arms on the next accepted sample.
      ++stats_.bad_signal_samples;
      return;
    }
    if (needs_rearm_) rearm(idx);
  }

  conditioner_.push(x, cond_out_);
  if (!cond_out_.empty()) append_conditioned(sink);
}

void StreamingBeatMonitor::append_conditioned(const PendingBeatSink& sink) {
  // Slice the staged conditioner output into the rolling buffer, scanning
  // exactly when it reaches chunk_samples_ — the per-sample path appended
  // one sample at a time and scanned at the same crossings, so the verdict
  // stream is independent of the conditioner's batch boundaries.
  std::size_t i = 0;
  while (i < cond_out_.size()) {
    HBRP_ASSERT(buffer_.size() < chunk_samples_);
    const std::size_t take =
        std::min(chunk_samples_ - buffer_.size(), cond_out_.size() - i);
    buffer_.insert(buffer_.end(),
                   cond_out_.begin() + static_cast<std::ptrdiff_t>(i),
                   cond_out_.begin() + static_cast<std::ptrdiff_t>(i + take));
    i += take;
    if (buffer_.size() >= chunk_samples_) scan(/*final_pass=*/false, sink);
  }
  cond_out_.clear();
}

void StreamingBeatMonitor::sync_conditioner(const PendingBeatSink& sink) {
  conditioner_.sync(cond_out_);
  if (!cond_out_.empty()) append_conditioned(sink);
}

void StreamingBeatMonitor::push_block(std::span<const dsp::Sample> xs,
                                      const PendingBeatSink& sink) {
  for (const dsp::Sample x : xs) push(x, sink);
}

void StreamingBeatMonitor::rearm(std::size_t at_absolute) {
  // The conditioner was rebuilt when the signal went Bad; its first output
  // after warm-up corresponds to this sample, so the rolling buffer
  // restarts here. The peak detector's adaptive threshold re-seeds from
  // the fresh buffer on the next scan — no pre-fault statistics survive.
  buffer_base_ = at_absolute;
  emitted_up_to_ = std::max(emitted_up_to_, at_absolute);
  needs_rearm_ = false;
}

void StreamingBeatMonitor::on_quality_update(dsp::SignalQuality next,
                                             const PendingBeatSink& sink) {
  if (next == quality_state_) return;
  const std::size_t qchunk = sqi_.chunk_samples();
  const bool demotion = next > quality_state_;
  // A demotion describes samples already consumed: it retro-covers the
  // chunk that tripped it. A promotion only applies from here on.
  const std::size_t effective =
      demotion ? (input_index_ > qchunk ? input_index_ - qchunk : 0)
               : input_index_;

  const bool entering_bad = next == dsp::SignalQuality::Bad;
  const bool leaving_bad = quality_state_ == dsp::SignalQuality::Bad;
  quality_state_ = next;
  transitions_.emplace_back(effective, next);

  if (entering_bad) {
    ++stats_.degradations;
    // Drop the buffer tail from two SQI chunks before the detection point:
    // the fault typically began mid-way through the previous chunk, and
    // the transition edge itself must not fabricate beats. Everything
    // older is salvaged with a final-style scan before the buffer dies.
    const std::size_t margin = 2 * qchunk;
    const std::size_t cut =
        input_index_ > margin ? input_index_ - margin : 0;
    if (buffer_base_ + buffer_.size() > cut)
      buffer_.resize(cut > buffer_base_ ? cut - buffer_base_ : 0);
    if (!buffer_.empty()) scan(/*final_pass=*/true, sink);
    buffer_.clear();
    conditioner_.reset();
    needs_rearm_ = true;
  }
  if (leaving_bad) ++stats_.recoveries;
}

dsp::SignalQuality StreamingBeatMonitor::quality_at(
    std::size_t absolute) const {
  dsp::SignalQuality q = baseline_quality_;
  for (const auto& [index, state] : transitions_) {
    if (index > absolute) break;
    q = state;
  }
  return q;
}

void StreamingBeatMonitor::scan(bool final_pass, const PendingBeatSink& sink) {
  // The wavelet detector (bit-identical to dsp::detect_r_peaks) runs in
  // the thread's shared workspace, which keeps the steady-state scan
  // allocation-free; its contents are dead once peaks_ is filled, before
  // any sink below runs.
  kernels::detect_r_peaks_block(buffer_, cfg_.peak,
                                kernels::thread_workspace().peaks, peaks_);
  const std::vector<std::size_t>& peaks = peaks_;

  // A beat is finalized once its full window fits safely inside the chunk:
  // keep a guard of window_after plus half an overlap from the right edge
  // (unless this is the final pass, where everything remaining finalizes).
  const std::size_t guard = cfg_.window_after + overlap_samples_ / 2;
  const std::size_t limit =
      final_pass || buffer_.size() < guard ? buffer_.size()
                                           : buffer_.size() - guard;

  for (const std::size_t local_peak : peaks) {
    if (local_peak >= limit) continue;
    if (local_peak < cfg_.window_before ||
        local_peak + cfg_.window_after >= buffer_.size())
      continue;
    const std::size_t absolute = buffer_base_ + local_peak;
    if (absolute < emitted_up_to_) continue;  // already reported last chunk

    MonitorBeat beat;
    beat.r_peak = absolute;
    beat.quality = cfg_.quality_gating ? quality_at(absolute)
                                       : dsp::SignalQuality::Good;
    if (beat.quality == dsp::SignalQuality::Bad) {
      // Defensive: suppressed regions should never reach here, but a beat
      // straddling a degradation boundary is dropped, not reported.
      emitted_up_to_ = absolute + 1;
      continue;
    }
    if (beat.quality == dsp::SignalQuality::Suspect) {
      // Safe default under doubtful signal: report Unknown, which counts
      // as pathological and escalates to full delineation downstream.
      beat.predicted = ecg::BeatClass::Unknown;
      ++stats_.suspect_beats;
      sink({beat, {}, /*needs_classification=*/false});
    } else {
      // The guards above guarantee the full window is inside the buffer,
      // so the consumer classifies straight off a span view: no window
      // copy per beat.
      const std::span<const dsp::Sample> window{
          buffer_.data() + (local_peak - cfg_.window_before),
          cfg_.window_before + cfg_.window_after};
      sink({beat, window, /*needs_classification=*/true});
    }
    emitted_up_to_ = absolute + 1;
  }

  // Transitions entirely behind the reporting frontier can never be looked
  // up again; fold them into the baseline.
  while (transitions_.size() >= 2 && transitions_[1].first <= emitted_up_to_) {
    baseline_quality_ = transitions_.front().second;
    transitions_.pop_front();
  }

  if (!final_pass) {
    // Slide: keep the overlap region (plus window headroom) for the next
    // scan so boundary beats are seen with full context.
    const std::size_t keep = overlap_samples_ + cfg_.window_before;
    if (buffer_.size() > keep) {
      const std::size_t drop = buffer_.size() - keep;
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(drop));
      buffer_base_ += drop;
    }
  }
}

void StreamingBeatMonitor::flush(const PendingBeatSink& sink) {
  // Two-step drain: first the pending batch (whose outputs would have
  // streamed out one by one, scanning at chunk crossings), then the
  // right-border tail, appended wholesale before one final scan.
  sync_conditioner(sink);
  conditioner_.flush_tail(cond_out_);
  buffer_.insert(buffer_.end(), cond_out_.begin(), cond_out_.end());
  cond_out_.clear();
  scan(/*final_pass=*/true, sink);
  buffer_.clear();
  buffer_base_ = 0;
  emitted_up_to_ = 0;
  input_index_ = 0;
  conditioner_.reset();
  sqi_.reset();
  quality_state_ = dsp::SignalQuality::Good;
  baseline_quality_ = dsp::SignalQuality::Good;
  transitions_.clear();
  needs_rearm_ = false;
}

std::size_t StreamingBeatMonitor::memory_samples() const {
  // Buffer high-water mark is one full chunk; conditioner state on top.
  // The SQI estimator is O(1) (a handful of accumulators) and the
  // transition history is bounded by the handful of state changes a chunk
  // can witness, so neither moves the figure. Detector and conditioner
  // intermediates are per thread (kernels::DspWorkspace), not counted.
  return chunk_samples_ + conditioner_.memory_samples();
}

std::size_t StreamingBeatMonitor::latency() const {
  return conditioner_.delay() + conditioner_.batch_slack() + chunk_samples_;
}

}  // namespace hbrp::core
