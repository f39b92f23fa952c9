// Accuracy gate for the adaptive-threshold R-peak fast path against the
// paper's wavelet detector (ISSUE: the adaptive detector is selectable per
// session, so it must be demonstrably interchangeable before a deployment
// flips the switch).
//
// The gates are deliberately RELATIVE: both detectors share one known blind
// spot (apex-polarity confusion on some LBBB seeds drops both below 0.4
// sensitivity), so a hard absolute per-record floor would pin the test to
// synth-generator quirks rather than to the detectors. Instead we require
// (a) aggregate sensitivity/precision against annotated truth within a small
// margin of the wavelet detector across a profile sweep, and (b) high direct
// peak-for-peak agreement between the two detectors on every clean record
// and across the adversarial scenario suite.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "dsp/morphology.hpp"
#include "dsp/peak_detect.hpp"
#include "dsp/quality.hpp"
#include "ecg/synth.hpp"
#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"
#include "scenario/episodes.hpp"

namespace {

using namespace hbrp;

struct Counts {
  std::size_t tp = 0, fp = 0, fn = 0;
  void add(const dsp::PeakMatchStats& s) {
    tp += s.true_positive;
    fp += s.false_positive;
    fn += s.false_negative;
  }
  double sensitivity() const {
    return tp + fn == 0 ? 1.0
                        : static_cast<double>(tp) /
                              static_cast<double>(tp + fn);
  }
  double precision() const {
    return tp + fp == 0 ? 1.0
                        : static_cast<double>(tp) /
                              static_cast<double>(tp + fp);
  }
};

std::vector<std::size_t> detect(const dsp::Signal& conditioned,
                                dsp::PeakDetectorKind kind,
                                kernels::PeakScratch& scratch) {
  dsp::PeakDetectorConfig cfg;
  cfg.kind = kind;
  std::vector<std::size_t> peaks;
  kernels::detect_r_peaks_kind(conditioned, cfg, scratch, peaks);
  return peaks;
}

TEST(DetectorEquivalence, AdaptiveTracksWaveletAcrossProfiles) {
  const ecg::RecordProfile profiles[] = {
      ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
      ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};
  const std::size_t tol = 18;  // 50 ms at 360 Hz, the usual AAMI window

  kernels::PeakScratch scratch;
  Counts wavelet_vs_truth, adaptive_vs_truth;
  Counts agreement;  // adaptive matched against wavelet directly
  for (const auto profile : profiles) {
    for (const std::uint64_t seed : {3u, 4u, 5u}) {
      ecg::SynthConfig cfg;
      cfg.profile = profile;
      cfg.duration_s = 90.0;
      cfg.num_leads = 1;
      cfg.seed = seed;
      const auto rec = ecg::generate_record(cfg);
      const auto sig = dsp::condition_ecg(rec.leads[0]);

      std::vector<std::size_t> truth;
      for (const auto& b : rec.beats) truth.push_back(b.sample);

      const auto wav = detect(sig, dsp::PeakDetectorKind::Wavelet, scratch);
      const auto ada =
          detect(sig, dsp::PeakDetectorKind::AdaptiveThreshold, scratch);
      wavelet_vs_truth.add(dsp::match_peaks(wav, truth, tol));
      adaptive_vs_truth.add(dsp::match_peaks(ada, truth, tol));
      agreement.add(dsp::match_peaks(ada, wav, tol));
    }
  }

  // The fast path must stay within 3% aggregate sensitivity and 5%
  // aggregate precision of the wavelet detector over the whole sweep.
  EXPECT_GE(adaptive_vs_truth.sensitivity(),
            wavelet_vs_truth.sensitivity() - 0.03)
      << "adaptive Se " << adaptive_vs_truth.sensitivity() << " vs wavelet "
      << wavelet_vs_truth.sensitivity();
  EXPECT_GE(adaptive_vs_truth.precision(),
            wavelet_vs_truth.precision() - 0.05)
      << "adaptive P " << adaptive_vs_truth.precision() << " vs wavelet "
      << wavelet_vs_truth.precision();
  // And the two detectors must be telling the same story beat for beat.
  EXPECT_GE(agreement.sensitivity(), 0.90);
  EXPECT_GE(agreement.precision(), 0.90);
}

TEST(DetectorEquivalence, AdaptiveTracksWaveletOnScenarioSuite) {
  // The adversarial suite streams doubles, NaN bursts included; they
  // become ADC codes by the one boundary rule, as at every other edge.
  const auto suite = scenario::standard_scenarios(40.0, 2400);
  kernels::PeakScratch peak_scratch;
  kernels::ConditionScratch cond_scratch;
  Counts agreement;
  for (const auto& spec : suite) {
    const auto stream = scenario::build_scenario(spec);
    const dsp::Signal raw =
        dsp::sanitize_lead(stream.samples, dsp::QualityConfig{});
    dsp::Signal sig;
    kernels::condition_ecg_block(raw, dsp::FilterConfig{}, cond_scratch, sig);

    const auto wav = detect(sig, dsp::PeakDetectorKind::Wavelet, peak_scratch);
    const auto ada =
        detect(sig, dsp::PeakDetectorKind::AdaptiveThreshold, peak_scratch);
    agreement.add(dsp::match_peaks(ada, wav, 18));
  }
  // Artefact storms and electrode drops legitimately make both detectors
  // fire differently inside corrupted stretches; across the whole suite the
  // two must still agree on the overwhelming majority of beats.
  EXPECT_GE(agreement.sensitivity(), 0.80)
      << "suite agreement Se " << agreement.sensitivity();
  EXPECT_GE(agreement.precision(), 0.80)
      << "suite agreement P " << agreement.precision();
}

}  // namespace
