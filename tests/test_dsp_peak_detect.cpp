// Tests for the wavelet-based R-peak detector, validated against the
// synthetic generator's ground-truth annotations.
#include <gtest/gtest.h>

#include <ostream>

#include "dsp/morphology.hpp"
#include "dsp/peak_detect.hpp"
#include "ecg/synth.hpp"

namespace {

using hbrp::dsp::detect_r_peaks;
using hbrp::dsp::match_peaks;
using hbrp::dsp::PeakMatchStats;
using hbrp::dsp::Signal;

Signal conditioned_lead(const hbrp::ecg::Record& rec) {
  return hbrp::dsp::condition_ecg(rec.leads[0]);
}

std::vector<std::size_t> annotation_peaks(const hbrp::ecg::Record& rec) {
  std::vector<std::size_t> out;
  for (const auto& b : rec.beats) out.push_back(b.sample);
  return out;
}

// AAMI-style matching tolerance: 150 ms at 360 Hz.
constexpr std::size_t kTol = 54;

struct ProfileCase {
  hbrp::ecg::RecordProfile profile;
  const char* name;
};

// Prints the case by name. Without it gtest prints the struct's bytes, and
// with them the name pointer, into every registered ctest name.
void PrintTo(const ProfileCase& c, std::ostream* os) { *os << c.name; }

class PeakDetectOnProfile : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(PeakDetectOnProfile, HighSensitivityAndPrecision) {
  hbrp::ecg::SynthConfig cfg;
  cfg.profile = GetParam().profile;
  cfg.duration_s = 120.0;
  cfg.num_leads = 1;
  cfg.seed = 77;
  const auto rec = hbrp::ecg::generate_record(cfg);
  const auto det = detect_r_peaks(conditioned_lead(rec));
  const PeakMatchStats stats = match_peaks(det, annotation_peaks(rec), kTol);
  EXPECT_GT(stats.sensitivity(), 0.98) << GetParam().name;
  EXPECT_GT(stats.positive_predictivity(), 0.98) << GetParam().name;
}

// gtest prints an unprintable parameter as its raw bytes into the test
// name. A table with static storage has its padding zero-filled, so the
// registered names are the same from run to run.
constexpr ProfileCase kProfileCases[] = {
    {hbrp::ecg::RecordProfile::NormalSinus, "normal"},
    {hbrp::ecg::RecordProfile::PvcOccasional, "pvc"},
    {hbrp::ecg::RecordProfile::PvcBigeminy, "bigeminy"},
    {hbrp::ecg::RecordProfile::Lbbb, "lbbb"}};

INSTANTIATE_TEST_SUITE_P(Profiles, PeakDetectOnProfile,
                         ::testing::ValuesIn(kProfileCases),
                         [](const auto& p) { return p.param.name; });

TEST(PeakDetect, RobustAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    hbrp::ecg::SynthConfig cfg;
    cfg.profile = hbrp::ecg::RecordProfile::PvcOccasional;
    cfg.duration_s = 60.0;
    cfg.num_leads = 1;
    cfg.seed = seed;
    const auto rec = hbrp::ecg::generate_record(cfg);
    const auto det = detect_r_peaks(conditioned_lead(rec));
    const auto stats = match_peaks(det, annotation_peaks(rec), kTol);
    EXPECT_GT(stats.sensitivity(), 0.95) << "seed " << seed;
    EXPECT_GT(stats.positive_predictivity(), 0.93) << "seed " << seed;
  }
}

TEST(PeakDetect, CleanSignalNearPerfect) {
  hbrp::ecg::SynthConfig cfg;
  cfg.profile = hbrp::ecg::RecordProfile::NormalSinus;
  cfg.duration_s = 60.0;
  cfg.num_leads = 1;
  cfg.noise_scale = 0.0;
  cfg.seed = 5;
  const auto rec = hbrp::ecg::generate_record(cfg);
  const auto det = detect_r_peaks(conditioned_lead(rec));
  const auto stats = match_peaks(det, annotation_peaks(rec), kTol);
  EXPECT_GT(stats.sensitivity(), 0.995);
  EXPECT_GT(stats.positive_predictivity(), 0.995);
}

TEST(PeakDetect, PeaksSortedAndRefractorySpaced) {
  hbrp::ecg::SynthConfig cfg;
  cfg.duration_s = 60.0;
  cfg.num_leads = 1;
  cfg.seed = 11;
  const auto rec = hbrp::ecg::generate_record(cfg);
  hbrp::dsp::PeakDetectorConfig det_cfg;
  const auto det = detect_r_peaks(conditioned_lead(rec), det_cfg);
  const auto refractory =
      static_cast<std::size_t>(hbrp::dsp::kRefractoryS * det_cfg.fs_hz);
  for (std::size_t i = 1; i < det.size(); ++i) {
    EXPECT_LT(det[i - 1], det[i]);
    EXPECT_GE(det[i] - det[i - 1], refractory);
  }
}

TEST(PeakDetect, EmptyAndShortSignals) {
  EXPECT_TRUE(detect_r_peaks({}).empty());
  EXPECT_TRUE(detect_r_peaks(Signal(5, 100)).empty());
  EXPECT_TRUE(detect_r_peaks(Signal(5000, 0)).empty());
}

TEST(PeakDetect, InvalidConfigThrows) {
  hbrp::dsp::PeakDetectorConfig cfg;
  cfg.fs_hz = 0;
  EXPECT_THROW(detect_r_peaks(Signal(100, 0), cfg), hbrp::Error);
}

TEST(MatchPeaks, ExactAndToleranceMatching) {
  const std::vector<std::size_t> ref = {100, 200, 300};
  const auto s1 = match_peaks({100, 200, 300}, ref, 5);
  EXPECT_EQ(s1.true_positive, 3u);
  EXPECT_EQ(s1.false_positive, 0u);
  EXPECT_EQ(s1.false_negative, 0u);

  const auto s2 = match_peaks({104, 196, 350}, ref, 5);
  EXPECT_EQ(s2.true_positive, 2u);
  EXPECT_EQ(s2.false_positive, 1u);
  EXPECT_EQ(s2.false_negative, 1u);
}

TEST(MatchPeaks, DetectionUsedOnlyOnce) {
  // One detection cannot satisfy two reference beats.
  const auto s = match_peaks({100}, {98, 102}, 5);
  EXPECT_EQ(s.true_positive, 1u);
  EXPECT_EQ(s.false_negative, 1u);
  EXPECT_EQ(s.false_positive, 0u);
}

TEST(MatchPeaks, EmptyInputs) {
  const auto s1 = match_peaks({}, {100}, 5);
  EXPECT_EQ(s1.false_negative, 1u);
  EXPECT_DOUBLE_EQ(s1.sensitivity(), 0.0);
  const auto s2 = match_peaks({100}, {}, 5);
  EXPECT_EQ(s2.false_positive, 1u);
  EXPECT_DOUBLE_EQ(s2.positive_predictivity(), 0.0);
  const auto s3 = match_peaks({}, {}, 5);
  EXPECT_DOUBLE_EQ(s3.sensitivity(), 0.0);
}

}  // namespace
