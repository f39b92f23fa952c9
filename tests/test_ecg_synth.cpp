// Tests for the synthetic ECG generator: structure, rhythm, morphology and
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "ecg/morphology.hpp"
#include "ecg/synth.hpp"

namespace {

using hbrp::ecg::BeatClass;
using hbrp::ecg::generate_record;
using hbrp::ecg::RecordProfile;
using hbrp::ecg::SynthConfig;

SynthConfig quick_cfg(RecordProfile profile, std::uint64_t seed,
                      double duration = 60.0) {
  SynthConfig cfg;
  cfg.profile = profile;
  cfg.duration_s = duration;
  cfg.seed = seed;
  return cfg;
}

TEST(Synth, RecordStructure) {
  const auto rec = generate_record(quick_cfg(RecordProfile::NormalSinus, 1));
  EXPECT_EQ(rec.fs_hz, 360);
  ASSERT_EQ(rec.leads.size(), 3u);
  const std::size_t n = 60 * 360;
  for (const auto& lead : rec.leads) EXPECT_EQ(lead.size(), n);
  EXPECT_FALSE(rec.beats.empty());
  EXPECT_NEAR(rec.duration_s(), 60.0, 0.01);
}

TEST(Synth, DeterministicInSeed) {
  const auto a = generate_record(quick_cfg(RecordProfile::PvcBigeminy, 42));
  const auto b = generate_record(quick_cfg(RecordProfile::PvcBigeminy, 42));
  EXPECT_EQ(a.leads, b.leads);
  ASSERT_EQ(a.beats.size(), b.beats.size());
  for (std::size_t i = 0; i < a.beats.size(); ++i) {
    EXPECT_EQ(a.beats[i].sample, b.beats[i].sample);
    EXPECT_EQ(a.beats[i].cls, b.beats[i].cls);
  }
}

TEST(Synth, DifferentSeedsDiffer) {
  const auto a = generate_record(quick_cfg(RecordProfile::NormalSinus, 1));
  const auto b = generate_record(quick_cfg(RecordProfile::NormalSinus, 2));
  EXPECT_NE(a.leads[0], b.leads[0]);
}

TEST(Synth, SamplesWithinAdcRange) {
  const auto rec = generate_record(quick_cfg(RecordProfile::PvcBigeminy, 3));
  for (const auto& lead : rec.leads)
    for (auto s : lead) {
      EXPECT_GE(s, 0);
      EXPECT_LE(s, 2047);
    }
}

TEST(Synth, AnnotationsSortedAndInRange) {
  const auto rec = generate_record(quick_cfg(RecordProfile::Lbbb, 4));
  for (std::size_t i = 0; i < rec.beats.size(); ++i) {
    EXPECT_LT(rec.beats[i].sample, rec.duration_samples());
    if (i > 0) {
      EXPECT_GT(rec.beats[i].sample, rec.beats[i - 1].sample);
    }
  }
}

TEST(Synth, HeartRateRespected) {
  auto cfg = quick_cfg(RecordProfile::NormalSinus, 5, 120.0);
  cfg.heart_rate_bpm = 75.0;
  const auto rec = generate_record(cfg);
  const double beats_per_min = static_cast<double>(rec.beats.size()) / 2.0;
  EXPECT_NEAR(beats_per_min, 75.0, 4.0);
}

TEST(Synth, RPeakIsLocalAmplitudeExtremum) {
  auto cfg = quick_cfg(RecordProfile::NormalSinus, 6);
  cfg.noise_scale = 0.0;
  const auto rec = generate_record(cfg);
  const auto& lead = rec.leads[0];
  // On a noise-free record the annotated R sample should be within a few
  // samples of the local maximum.
  for (const auto& b : rec.beats) {
    if (b.sample < 40 || b.sample + 40 >= lead.size()) continue;
    const auto begin = lead.begin() + static_cast<long>(b.sample) - 15;
    const auto end = lead.begin() + static_cast<long>(b.sample) + 15;
    const auto peak = std::max_element(begin, end);
    EXPECT_NEAR(static_cast<double>(peak - lead.begin()),
                static_cast<double>(b.sample), 4.0);
  }
}

struct MixCase {
  RecordProfile profile;
  const char* name;
};

// Prints the case by name. Without it gtest prints the struct's bytes, and
// with them the name pointer, into every registered ctest name.
void PrintTo(const MixCase& c, std::ostream* os) { *os << c.name; }

class SynthMix : public ::testing::TestWithParam<MixCase> {};

TEST_P(SynthMix, ClassMixMatchesProfile) {
  const auto rec =
      generate_record(quick_cfg(GetParam().profile, 7, 300.0));
  std::size_t n = 0, v = 0, l = 0;
  for (const auto& b : rec.beats) {
    n += b.cls == BeatClass::N;
    v += b.cls == BeatClass::V;
    l += b.cls == BeatClass::L;
  }
  const double total = static_cast<double>(rec.beats.size());
  const auto mix = hbrp::ecg::expected_mix(GetParam().profile);
  EXPECT_NEAR(n / total, mix.n, 0.08) << GetParam().name;
  EXPECT_NEAR(v / total, mix.v, 0.08) << GetParam().name;
  EXPECT_NEAR(l / total, mix.l, 0.08) << GetParam().name;
}

// gtest prints an unprintable parameter as its raw bytes into the test
// name. A table with static storage has its padding zero-filled, so the
// registered names are the same from run to run.
constexpr MixCase kMixCases[] = {{RecordProfile::NormalSinus, "normal"},
                                 {RecordProfile::PvcOccasional, "pvc"},
                                 {RecordProfile::PvcBigeminy, "bigeminy"},
                                 {RecordProfile::Lbbb, "lbbb"}};

INSTANTIATE_TEST_SUITE_P(Profiles, SynthMix, ::testing::ValuesIn(kMixCases),
                         [](const auto& p) { return p.param.name; });

TEST(Synth, PvcIsPrematureWithCompensatoryPause) {
  const auto rec =
      generate_record(quick_cfg(RecordProfile::PvcOccasional, 8, 300.0));
  // Collect normal-to-normal RR as the baseline.
  std::vector<double> nn;
  for (std::size_t i = 1; i < rec.beats.size(); ++i)
    if (rec.beats[i].cls == BeatClass::N && rec.beats[i - 1].cls == BeatClass::N)
      nn.push_back(
          static_cast<double>(rec.beats[i].sample - rec.beats[i - 1].sample));
  ASSERT_FALSE(nn.empty());
  double nn_mean = 0;
  for (double x : nn) nn_mean += x;
  nn_mean /= static_cast<double>(nn.size());

  std::size_t checked = 0;
  for (std::size_t i = 1; i + 1 < rec.beats.size(); ++i) {
    if (rec.beats[i].cls != BeatClass::V) continue;
    if (rec.beats[i - 1].cls == BeatClass::V ||
        rec.beats[i + 1].cls == BeatClass::V)
      continue;
    const double rr_in =
        static_cast<double>(rec.beats[i].sample - rec.beats[i - 1].sample);
    const double rr_out =
        static_cast<double>(rec.beats[i + 1].sample - rec.beats[i].sample);
    EXPECT_LT(rr_in, 0.92 * nn_mean);   // premature
    EXPECT_GT(rr_out, 1.05 * nn_mean);  // compensatory pause
    ++checked;
  }
  EXPECT_GT(checked, 3u);
}

TEST(Synth, PvcHasNoPWave) {
  const auto rec =
      generate_record(quick_cfg(RecordProfile::PvcOccasional, 9, 120.0));
  for (const auto& b : rec.beats) {
    if (b.cls == BeatClass::V)
      EXPECT_FALSE(b.fiducials.has_p());
    else
      EXPECT_TRUE(b.fiducials.has_p());
  }
}

TEST(Synth, FiducialOrderingIsAnatomical) {
  auto cfg = quick_cfg(RecordProfile::Lbbb, 10, 120.0);
  const auto rec = generate_record(cfg);
  for (const auto& b : rec.beats) {
    const auto& f = b.fiducials;
    if (f.has_p()) {
      EXPECT_LT(f.p_onset, f.p_peak);
      EXPECT_LT(f.p_peak, f.p_end);
      EXPECT_LE(f.p_end, f.qrs_onset + 40);  // P ends before/near QRS onset
    }
    EXPECT_LT(f.qrs_onset, f.r_peak);
    EXPECT_LT(f.r_peak, f.qrs_end);
    EXPECT_LT(f.qrs_end, f.t_end);
  }
}

TEST(Synth, LbbbQrsWiderThanNormal) {
  auto cfg_n = quick_cfg(RecordProfile::NormalSinus, 11, 120.0);
  auto cfg_l = quick_cfg(RecordProfile::Lbbb, 11, 120.0);
  const auto rec_n = generate_record(cfg_n);
  const auto rec_l = generate_record(cfg_l);
  auto mean_qrs = [](const hbrp::ecg::Record& rec, BeatClass cls) {
    double acc = 0;
    std::size_t cnt = 0;
    for (const auto& b : rec.beats) {
      if (b.cls != cls) continue;
      acc += static_cast<double>(b.fiducials.qrs_end - b.fiducials.qrs_onset);
      ++cnt;
    }
    return acc / static_cast<double>(cnt);
  };
  // Widths here are the +-2.5-sigma analytic extents, which read wider than
  // clinical QRS measurements; the class separation is what matters.
  const double w_n = mean_qrs(rec_n, BeatClass::N) / 360.0;
  const double w_l = mean_qrs(rec_l, BeatClass::L) / 360.0;
  EXPECT_LT(w_n, 0.17);
  EXPECT_GT(w_l, 0.18);
  EXPECT_GT(w_l, 1.3 * w_n);
}

TEST(Synth, NoiseScaleZeroGivesCleanBaseline) {
  auto cfg = quick_cfg(RecordProfile::NormalSinus, 12);
  cfg.noise_scale = 0.0;
  const auto rec = generate_record(cfg);
  // Between beats (far from any wave) the signal sits at the ADC baseline.
  const auto& lead = rec.leads[0];
  std::size_t quiet = 0;
  for (std::size_t i = 1; i < rec.beats.size(); ++i) {
    const std::size_t prev_end = rec.beats[i - 1].fiducials.t_end;
    const std::size_t next_start = rec.beats[i].fiducials.has_p()
                                       ? rec.beats[i].fiducials.p_onset
                                       : rec.beats[i].fiducials.qrs_onset;
    if (next_start <= prev_end + 10) continue;
    const std::size_t mid = (prev_end + next_start) / 2;
    EXPECT_NEAR(lead[mid], 1024, 8);
    ++quiet;
  }
  EXPECT_GT(quiet, 10u);
}

TEST(Synth, InvalidConfigThrows) {
  SynthConfig cfg;
  cfg.fs_hz = 0;
  EXPECT_THROW(generate_record(cfg), hbrp::Error);
  cfg = {};
  cfg.num_leads = 4;
  EXPECT_THROW(generate_record(cfg), hbrp::Error);
  cfg = {};
  cfg.duration_s = 0.5;
  EXPECT_THROW(generate_record(cfg), hbrp::Error);
}

TEST(Morphology, TemplatesHaveClassSignatures) {
  hbrp::math::Rng rng(13);
  const auto n = hbrp::ecg::make_template(BeatClass::N, rng);
  const auto v = hbrp::ecg::make_template(BeatClass::V, rng);
  const auto l = hbrp::ecg::make_template(BeatClass::L, rng);
  const auto fn = n.fiducials();
  const auto fv = v.fiducials();
  const auto fl = l.fiducials();
  EXPECT_TRUE(fn.has_p);
  EXPECT_FALSE(fv.has_p);
  EXPECT_TRUE(fl.has_p);
  const double wn = fn.qrs_end - fn.qrs_onset;
  const double wv = fv.qrs_end - fv.qrs_onset;
  const double wl = fl.qrs_end - fl.qrs_onset;
  EXPECT_GT(wv, wn);
  EXPECT_GT(wl, wn);
}

TEST(Morphology, ValueAtPeaksNearR) {
  hbrp::math::Rng rng(14);
  const auto m = hbrp::ecg::make_template(BeatClass::N, rng);
  // R-peak region should dominate the waveform.
  double best_t = -1.0, best_v = -1e9;
  for (double t = -0.4; t <= 0.5; t += 0.001) {
    const double v = m.value_at(t);
    if (v > best_v) {
      best_v = v;
      best_t = t;
    }
  }
  EXPECT_NEAR(best_t, 0.0, 0.02);
  EXPECT_GT(best_v, 0.5);
}

TEST(Morphology, UnknownClassHasNoTemplate) {
  hbrp::math::Rng rng(15);
  EXPECT_THROW(hbrp::ecg::make_template(BeatClass::Unknown, rng), hbrp::Error);
}

}  // namespace
