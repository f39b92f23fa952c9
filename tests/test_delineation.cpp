// Tests for the MMD operator and multi-lead wave delineation, validated
// against the generator's analytic fiducials.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "delineation/mmd.hpp"
#include "dsp/morphology.hpp"
#include "dsp/peak_detect.hpp"
#include "ecg/synth.hpp"
#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"
#include "math/check.hpp"

#include "golden_records.hpp"

namespace {

using hbrp::delineation::compare_fiducials;
using hbrp::delineation::delineate_beat;
using hbrp::delineation::delineate_beat_multilead;
using hbrp::delineation::mmd;
using hbrp::dsp::Signal;
using hbrp::ecg::Fiducials;

TEST(Mmd, ZeroOnLinearRamp) {
  // dilate + erode - 2x == 0 for affine signals (max+min symmetric).
  Signal x(200);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<int>(3 * i);
  const Signal m = mmd(x, 9);
  for (std::size_t i = 10; i + 10 < x.size(); ++i) EXPECT_EQ(m[i], 0);
}

TEST(Mmd, NegativeAtPeakPositiveAtValley) {
  Signal x(100, 0);
  x[50] = 100;   // peak
  x[20] = -100;  // valley
  const Signal m = mmd(x, 5);
  EXPECT_LT(m[50], 0);
  EXPECT_GT(m[20], 0);
}

TEST(Mmd, RespondsAtWaveBoundaries) {
  // A flat-top pulse: MMD at the pulse scale is positive at the corners.
  Signal x(300, 0);
  for (std::size_t i = 100; i < 160; ++i) x[i] = 200;
  const Signal m = mmd(x, 31);
  EXPECT_GT(m[99], 0);   // onset corner (concave-up)
  EXPECT_GT(m[160], 0);  // end corner
}

hbrp::ecg::Record clean_record(hbrp::ecg::RecordProfile profile,
                               std::uint64_t seed) {
  hbrp::ecg::SynthConfig cfg;
  cfg.profile = profile;
  cfg.duration_s = 60.0;
  cfg.noise_scale = 0.25;  // light noise: delineation quality test
  cfg.seed = seed;
  return hbrp::ecg::generate_record(cfg);
}

std::vector<Signal> conditioned_leads(const hbrp::ecg::Record& rec) {
  std::vector<Signal> out;
  for (const auto& lead : rec.leads)
    out.push_back(hbrp::dsp::condition_ecg(lead));
  return out;
}

TEST(Delineate, QrsBoundariesWithinTolerance) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 1);
  const auto leads = conditioned_leads(rec);
  double onset_err = 0.0, end_err = 0.0;
  std::size_t n = 0;
  for (const auto& b : rec.beats) {
    if (b.sample < 400 || b.sample + 400 >= leads[0].size()) continue;
    const Fiducials f = delineate_beat(leads[0], b.sample);
    ASSERT_NE(f.qrs_onset, Fiducials::kNoFiducial);
    onset_err += std::abs(static_cast<double>(f.qrs_onset) -
                          static_cast<double>(b.fiducials.qrs_onset));
    end_err += std::abs(static_cast<double>(f.qrs_end) -
                        static_cast<double>(b.fiducials.qrs_end));
    ++n;
  }
  ASSERT_GT(n, 30u);
  // 360 Hz: 10 samples ~ 28 ms.
  EXPECT_LT(onset_err / static_cast<double>(n), 12.0);
  EXPECT_LT(end_err / static_cast<double>(n), 14.0);
}

TEST(Delineate, PWavePresenceMatchesClass) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::PvcOccasional, 2);
  const auto leads = conditioned_leads(rec);
  std::size_t correct = 0, total = 0;
  for (const auto& b : rec.beats) {
    if (b.sample < 400 || b.sample + 400 >= leads[0].size()) continue;
    const Fiducials f = delineate_beat_multilead(leads, b.sample);
    ++total;
    correct += (f.has_p() == b.fiducials.has_p());
  }
  ASSERT_GT(total, 30u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.8);
}

TEST(Delineate, TPeakLocatedOnNormalBeats) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 3);
  const auto leads = conditioned_leads(rec);
  double err = 0.0;
  std::size_t n = 0, found = 0, total = 0;
  for (const auto& b : rec.beats) {
    if (b.sample < 400 || b.sample + 400 >= leads[0].size()) continue;
    const Fiducials f = delineate_beat(leads[0], b.sample);
    ++total;
    if (f.t_peak == Fiducials::kNoFiducial) continue;
    ++found;
    err += std::abs(static_cast<double>(f.t_peak) -
                    static_cast<double>(b.fiducials.t_peak));
    ++n;
  }
  ASSERT_GT(total, 30u);
  EXPECT_GT(static_cast<double>(found) / static_cast<double>(total), 0.9);
  EXPECT_LT(err / static_cast<double>(n), 15.0);
}

TEST(Delineate, MultileadFusionRejectsOneBadLead) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 4);
  auto leads = conditioned_leads(rec);
  // Destroy lead 2 with an implausible constant.
  std::fill(leads[2].begin(), leads[2].end(), 0);
  const auto& b = rec.beats[rec.beats.size() / 2];
  const Fiducials fused = delineate_beat_multilead(leads, b.sample);
  EXPECT_NE(fused.qrs_onset, Fiducials::kNoFiducial);
  EXPECT_NEAR(static_cast<double>(fused.qrs_onset),
              static_cast<double>(b.fiducials.qrs_onset), 15.0);
}

TEST(Delineate, RPeakPropagatedVerbatim) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 5);
  const auto leads = conditioned_leads(rec);
  const auto& b = rec.beats[5];
  EXPECT_EQ(delineate_beat(leads[0], b.sample).r_peak, b.sample);
  EXPECT_EQ(delineate_beat_multilead(leads, b.sample).r_peak, b.sample);
}

TEST(Delineate, EdgeBeatsDoNotCrash) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 6);
  const auto leads = conditioned_leads(rec);
  EXPECT_NO_THROW(delineate_beat(leads[0], 0));
  EXPECT_NO_THROW(delineate_beat(leads[0], leads[0].size() - 1));
}

TEST(Delineate, InvalidArgsThrow) {
  Signal x(100, 0);
  hbrp::delineation::DelineatorConfig cfg;
  cfg.fs_hz = 0;
  EXPECT_THROW(delineate_beat(x, 50, cfg), hbrp::Error);
  EXPECT_THROW(delineate_beat(x, 100), hbrp::Error);
  EXPECT_THROW(delineate_beat_multilead({}, 0), hbrp::Error);
}

TEST(CompareFiducials, CountsAndErrors) {
  Fiducials ref;
  ref.r_peak = 1000;
  ref.qrs_onset = 980;
  ref.qrs_end = 1030;
  ref.t_peak = 1110;

  Fiducials det;
  det.r_peak = 1000;
  det.qrs_onset = 985;   // off by 5
  det.qrs_end = 1027;    // off by 3
  // t_peak missed

  const auto err = compare_fiducials(det, ref);
  EXPECT_EQ(err.points_compared, 3u);
  EXPECT_EQ(err.points_missed, 1u);
  EXPECT_NEAR(err.mean_abs_error_samples, (0 + 5 + 3) / 3.0, 1e-12);
}

TEST(CompareFiducials, EmptyReference) {
  const auto err = compare_fiducials(Fiducials{}, Fiducials{});
  EXPECT_EQ(err.points_compared, 0u);
  EXPECT_EQ(err.points_missed, 0u);
  EXPECT_DOUBLE_EQ(err.mean_abs_error_samples, 0.0);
}

// --- golden digest of the delineator's output ------------------------------

void mix_fiducials(hbrp::golden::Digest& d, const Fiducials& f) {
  for (const std::size_t i :
       {f.p_onset, f.p_peak, f.p_end, f.qrs_onset, f.r_peak, f.qrs_end,
        f.t_onset, f.t_peak, f.t_end})
    d.word(static_cast<std::uint32_t>(i));  // kNoFiducial mixes as ~0u
}

// Pinned while delineation still ran the dsp:: reference morphology: per
// golden record, every fiducial delineate_beat finds at each peak the
// wavelet detector reports; then delineate_beat_multilead at each peak of
// one seeded 3-lead record. scripts/ci.sh also runs it forced scalar.
TEST(DelineationGolden, FiducialDigestIsPinned) {
  const std::uint64_t pinned[] = {0x94e03d5bb7875327ull, 0x033983d53b2c4300ull,
                                  0x44d743e1ed66fc8aull, 0x6b1242f18fa828faull,
                                  0x1c41ed0ca338014dull};
  hbrp::kernels::ConditionScratch cs;
  hbrp::kernels::PeakScratch ps;
  std::vector<std::size_t> peaks;
  for (std::size_t p = 0; p < std::size(hbrp::golden::kProfiles); ++p) {
    const Signal x = hbrp::golden::record(hbrp::golden::kProfiles[p]);
    Signal conditioned;
    hbrp::kernels::condition_ecg_block(x, hbrp::dsp::FilterConfig{}, cs,
                                       conditioned);
    hbrp::kernels::detect_r_peaks_block(
        conditioned, hbrp::dsp::PeakDetectorConfig{}, ps, peaks);
    hbrp::golden::Digest d;
    d.word(static_cast<std::uint32_t>(peaks.size()));
    for (const std::size_t r : peaks)
      mix_fiducials(d, delineate_beat(conditioned, r));
    EXPECT_EQ(d.value(), pinned[p]) << "profile " << p << std::hex
                                    << " got 0x" << d.value();
  }

  hbrp::ecg::SynthConfig cfg;
  cfg.profile = hbrp::ecg::RecordProfile::PvcBigeminy;
  cfg.duration_s = 60.0;
  cfg.num_leads = 3;
  cfg.seed = 4200;
  const auto rec = hbrp::ecg::generate_record(cfg);
  std::vector<Signal> leads(rec.leads.size());
  for (std::size_t l = 0; l < rec.leads.size(); ++l)
    hbrp::kernels::condition_ecg_block(rec.leads[l],
                                       hbrp::dsp::FilterConfig{}, cs,
                                       leads[l]);
  hbrp::kernels::detect_r_peaks_block(
      leads[0], hbrp::dsp::PeakDetectorConfig{}, ps, peaks);
  hbrp::golden::Digest d;
  d.word(static_cast<std::uint32_t>(peaks.size()));
  for (const std::size_t r : peaks)
    mix_fiducials(d, delineate_beat_multilead(leads, r));
  EXPECT_EQ(d.value(), pinned[4]) << "3-lead" << std::hex << " got 0x"
                                  << d.value();
}

}  // namespace
