// The complete WBSN application (paper Fig. 6, system (3)).
//
// Per record: the reference lead is conditioned (morphological filtering)
// and the wavelet peak detector isolates beats; each beat window is
// classified by the embedded RP + integer-NFC classifier; beats flagged
// pathological (V, L or Unknown) — and only those — trigger conditioning of
// the remaining leads and the three-lead MMD delineation. The result carries
// everything the platform/energy models need: per-beat decisions, the
// flagged fraction, and the fiducial points for flagged beats.
#pragma once

#include <vector>

#include "delineation/mmd.hpp"
#include "dsp/morphology.hpp"
#include "ecg/types.hpp"
#include "embedded/bundle.hpp"

namespace hbrp::core {

struct PipelineConfig {
  std::size_t window_before = 100;
  std::size_t window_after = 100;
  dsp::FilterConfig filter = dsp::FilterConfig::for_rate(dsp::kMitBihFs);
};

struct PipelineBeat {
  std::size_t r_peak = 0;
  ecg::BeatClass predicted = ecg::BeatClass::N;
  bool delineated = false;
  ecg::Fiducials fiducials;  ///< valid only when `delineated`
};

struct PipelineResult {
  std::vector<PipelineBeat> beats;

  std::size_t flagged_count() const;
  double flagged_fraction() const;
};

class RealTimePipeline {
 public:
  RealTimePipeline(embedded::EmbeddedClassifier classifier,
                   PipelineConfig cfg = {});

  /// Runs the full chain over a multi-lead record.
  PipelineResult process(const ecg::Record& record) const;

  const embedded::EmbeddedClassifier& classifier() const {
    return classifier_;
  }
  const PipelineConfig& config() const { return cfg_; }

 private:
  embedded::EmbeddedClassifier classifier_;
  PipelineConfig cfg_;
};

}  // namespace hbrp::core
