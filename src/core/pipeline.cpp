#include "core/pipeline.hpp"

#include "dsp/resample.hpp"
#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"
#include "math/check.hpp"

namespace hbrp::core {

std::size_t PipelineResult::flagged_count() const {
  std::size_t acc = 0;
  for (const PipelineBeat& b : beats)
    acc += ecg::is_pathological(b.predicted);
  return acc;
}

double PipelineResult::flagged_fraction() const {
  if (beats.empty()) return 0.0;
  return static_cast<double>(flagged_count()) /
         static_cast<double>(beats.size());
}

RealTimePipeline::RealTimePipeline(embedded::EmbeddedClassifier classifier,
                                   PipelineConfig cfg)
    : classifier_(std::move(classifier)), cfg_(std::move(cfg)) {
  HBRP_REQUIRE(cfg_.window_before + cfg_.window_after ==
                   classifier_.projector().expected_window(),
               "RealTimePipeline: window geometry does not match the "
               "classifier's expected input");
}

PipelineResult RealTimePipeline::process(const ecg::Record& record) const {
  HBRP_REQUIRE(!record.leads.empty(), "RealTimePipeline: record has no leads");

  // Reference-lead conditioning + beat isolation via the block kernels
  // (bit-identical to dsp::condition_ecg / dsp::detect_r_peaks, several
  // times faster — scratch is local, so process() stays const and
  // thread-safe).
  kernels::ConditionScratch cond_scratch;
  kernels::PeakScratch peak_scratch;
  dsp::Signal reference;
  kernels::condition_ecg_block(record.leads[0], cfg_.filter, cond_scratch,
                               reference);
  dsp::PeakDetectorConfig peak_cfg = cfg_.peak;
  peak_cfg.fs_hz = record.fs_hz;
  std::vector<std::size_t> peaks;
  kernels::detect_r_peaks_kind(reference, peak_cfg, peak_scratch, peaks);

  // Remaining leads are conditioned lazily, only if some beat needs
  // delineation (on the real node this is per-beat work on a short history
  // buffer; offline, conditioning the lead once is equivalent).
  std::vector<dsp::Signal> delineation_leads;
  bool leads_ready = false;
  auto ensure_leads = [&]() {
    if (leads_ready) return;
    delineation_leads.push_back(reference);
    for (std::size_t l = 1; l < record.leads.size(); ++l) {
      dsp::Signal conditioned;
      kernels::condition_ecg_block(record.leads[l], cfg_.filter, cond_scratch,
                                   conditioned);
      delineation_leads.push_back(std::move(conditioned));
    }
    leads_ready = true;
  };

  delineation::DelineatorConfig del_cfg = cfg_.delineator;
  del_cfg.fs_hz = record.fs_hz;

  PipelineResult result;
  result.beats.reserve(peaks.size());
  embedded::ClassifyScratch classify_scratch;
  const std::size_t guard =
      std::max(cfg_.window_before, cfg_.window_after);
  for (const std::size_t peak : peaks) {
    if (peak < guard || peak + guard >= reference.size()) continue;
    PipelineBeat beat;
    beat.r_peak = peak;
    const dsp::Signal window = dsp::extract_window(
        reference, peak, cfg_.window_before, cfg_.window_after);
    beat.predicted = classifier_.classify_window(window, classify_scratch);

    const bool needs_delineation =
        !cfg_.gate_delineation || ecg::is_pathological(beat.predicted);
    if (needs_delineation) {
      ensure_leads();
      beat.fiducials =
          delineation::delineate_beat_multilead(delineation_leads, peak,
                                                del_cfg);
      beat.delineated = true;
    }
    result.beats.push_back(beat);
  }
  return result;
}

}  // namespace hbrp::core
