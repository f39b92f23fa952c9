// Tests for the streaming signal-quality estimator: clean signal stays
// Good, each fault signature demotes correctly, hysteresis governs
// recovery, and corrupt int32 garbage cannot overflow the accumulators.
// Also the ADC boundary rule, dsp::sanitize_sample / dsp::sanitize_lead:
// the one place a double becomes a code.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "dsp/quality.hpp"
#include "ecg/synth.hpp"
#include "math/check.hpp"

namespace {

using hbrp::dsp::QualityConfig;
using hbrp::dsp::Sample;
using hbrp::dsp::SampleFix;
using hbrp::dsp::Signal;
using hbrp::dsp::SignalQuality;
using hbrp::dsp::SignalQualityEstimator;

Signal synth_lead(std::uint64_t seed, double seconds = 30.0) {
  hbrp::ecg::SynthConfig cfg;
  cfg.profile = hbrp::ecg::RecordProfile::PvcOccasional;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  return hbrp::ecg::generate_record(cfg).leads[0];
}

// Pushes a signal; returns the worst state observed at any chunk boundary.
SignalQuality run_worst(SignalQualityEstimator& est, const Signal& sig) {
  SignalQuality worst = SignalQuality::Good;
  for (const Sample x : sig)
    if (const auto s = est.push(x)) worst = std::max(worst, *s);
  return worst;
}

TEST(SignalQuality, CleanSynthRecordsStayGood) {
  // The gating must be transparent on realistic clean signal — otherwise
  // it would silently change classification results (acceptance criterion
  // (c) of the fault-injection suite).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SignalQualityEstimator est;
    EXPECT_EQ(run_worst(est, synth_lead(seed)), SignalQuality::Good)
        << "seed " << seed;
  }
}

TEST(SignalQuality, LeadOffFlatLineGoesBad) {
  SignalQualityEstimator est;
  run_worst(est, synth_lead(7, 5.0));
  ASSERT_EQ(est.state(), SignalQuality::Good);
  // Detached electrode: exactly constant at some level.
  const Signal flat(2 * est.chunk_samples(), 1024);
  EXPECT_EQ(run_worst(est, flat), SignalQuality::Bad);
  EXPECT_EQ(est.state(), SignalQuality::Bad);
  EXPECT_LE(est.last_chunk().variance, 2.0);
}

TEST(SignalQuality, SaturationPlateauGoesBad) {
  SignalQualityEstimator est;
  run_worst(est, synth_lead(8, 5.0));
  const Signal railed(2 * est.chunk_samples(), 2047);
  EXPECT_EQ(run_worst(est, railed), SignalQuality::Bad);
  EXPECT_GT(est.last_chunk().clipped, est.chunk_samples() / 2);
}

TEST(SignalQuality, ImpulseBurstGoesSuspectNotBad) {
  SignalQualityEstimator est;
  Signal sig = synth_lead(9, 10.0);
  // Electrosurgery-style spikes: jumps well above the 700-adu impulse
  // delta, sparse enough not to clip or flat-line, dense enough to cross
  // the suspect fraction.
  for (std::size_t i = est.chunk_samples(); i < sig.size(); i += 20)
    sig[i] = (i / 20) % 2 ? 1900 : 120;
  const SignalQuality worst = run_worst(est, sig);
  EXPECT_EQ(worst, SignalQuality::Suspect);
}

TEST(SignalQuality, HysteresisRecoversOneStepPerCleanStreak) {
  QualityConfig cfg;
  cfg.recover_chunks = 2;
  SignalQualityEstimator est(cfg);
  const Signal clean = synth_lead(10, 60.0);
  const std::size_t chunk = est.chunk_samples();

  // Drive to Bad.
  const Signal flat(2 * chunk, 1024);
  run_worst(est, flat);
  ASSERT_EQ(est.state(), SignalQuality::Bad);

  // Feed clean chunks one at a time and watch the ladder: two chunks to
  // Suspect, two more to Good — never a direct Bad -> Good jump.
  std::vector<SignalQuality> states;
  for (std::size_t c = 0; c < 5; ++c) {
    for (std::size_t i = 0; i < chunk; ++i)
      if (const auto s = est.push(clean[(c + 4) * chunk + i]))
        states.push_back(*s);
  }
  ASSERT_EQ(states.size(), 5u);
  EXPECT_EQ(states[0], SignalQuality::Bad);
  EXPECT_EQ(states[1], SignalQuality::Suspect);
  EXPECT_EQ(states[2], SignalQuality::Suspect);
  EXPECT_EQ(states[3], SignalQuality::Good);
  EXPECT_EQ(states[4], SignalQuality::Good);
}

TEST(SignalQuality, OneBadChunkResetsRecoveryProgress) {
  QualityConfig cfg;
  cfg.recover_chunks = 2;
  SignalQualityEstimator est(cfg);
  const std::size_t chunk = est.chunk_samples();
  const Signal clean = synth_lead(11, 30.0);
  const Signal flat(chunk, 1024);

  run_worst(est, flat);
  run_worst(est, flat);
  ASSERT_EQ(est.state(), SignalQuality::Bad);
  // One clean chunk (progress), then a bad one: back to square one.
  for (std::size_t i = 0; i < chunk; ++i) est.push(clean[4 * chunk + i]);
  run_worst(est, flat);
  EXPECT_EQ(est.state(), SignalQuality::Bad);
  // Needs the full streak again.
  for (std::size_t i = 0; i < chunk; ++i) est.push(clean[6 * chunk + i]);
  EXPECT_EQ(est.state(), SignalQuality::Bad);
  for (std::size_t i = 0; i < chunk; ++i) est.push(clean[7 * chunk + i]);
  EXPECT_EQ(est.state(), SignalQuality::Suspect);
}

TEST(SignalQuality, Int32GarbageIsClampedNotOverflowed) {
  // Hostile/corrupt samples far outside the ADC range must degrade into
  // clipping (and a Bad grade), not overflow the int64 accumulators; this
  // is the case the UBSan tier watches.
  SignalQualityEstimator est;
  Signal garbage(2 * est.chunk_samples());
  for (std::size_t i = 0; i < garbage.size(); ++i)
    garbage[i] = i % 2 ? std::numeric_limits<Sample>::max()
                       : std::numeric_limits<Sample>::min();
  EXPECT_EQ(run_worst(est, garbage), SignalQuality::Bad);
  EXPECT_EQ(est.last_chunk().clipped, est.chunk_samples());
}

TEST(SignalQuality, ResetReturnsToInitialState) {
  SignalQualityEstimator est;
  const Signal flat(2 * est.chunk_samples(), 500);
  run_worst(est, flat);
  ASSERT_EQ(est.state(), SignalQuality::Bad);
  est.reset();
  EXPECT_EQ(est.state(), SignalQuality::Good);
  EXPECT_EQ(run_worst(est, synth_lead(12, 5.0)), SignalQuality::Good);
}

TEST(SignalQuality, ConfigValidation) {
  QualityConfig cfg;
  cfg.fs_hz = 0;
  EXPECT_THROW(SignalQualityEstimator{cfg}, hbrp::Error);
  cfg = {};
  cfg.chunk_s = 0.0;
  EXPECT_THROW(SignalQualityEstimator{cfg}, hbrp::Error);
  cfg = {};
  cfg.rail_low = cfg.rail_high;
  EXPECT_THROW(SignalQualityEstimator{cfg}, hbrp::Error);
  cfg = {};
  cfg.recover_chunks = 0;
  EXPECT_THROW(SignalQualityEstimator{cfg}, hbrp::Error);
}

// --- the double -> code boundary rule --------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SanitizeSample, NonFiniteRepeatsTheHold) {
  const QualityConfig rails;
  for (const double x : {kNaN, kInf, -kInf}) {
    Sample hold = 700;
    SampleFix fix = SampleFix::None;
    EXPECT_EQ(hbrp::dsp::sanitize_sample(x, rails, hold, fix), 700) << x;
    EXPECT_EQ(fix, SampleFix::Held) << x;
    EXPECT_EQ(hold, 700) << x;
  }
}

TEST(SanitizeSample, OutOfRailValuesClampAndBecomeTheHold) {
  const QualityConfig rails;  // [0, 2047]
  const std::vector<std::pair<double, Sample>> cases = {
      {1e9, 2047}, {2047.5, 2047}, {2048.0, 2047}, {1e300, 2047},
      {-1e9, 0},   {-0.5, 0},      {-1.0, 0},      {-1e300, 0}};
  for (const auto& [x, code] : cases) {
    Sample hold = 700;
    SampleFix fix = SampleFix::None;
    EXPECT_EQ(hbrp::dsp::sanitize_sample(x, rails, hold, fix), code) << x;
    EXPECT_EQ(fix, SampleFix::Clamped) << x;
    EXPECT_EQ(hold, code) << x;
  }
}

TEST(SanitizeSample, InRailValuesRoundHalfAwayFromZero) {
  QualityConfig rails;
  rails.rail_low = -1024;  // signed rails: rounding below zero too
  rails.rail_high = 1023;
  const std::vector<std::pair<double, Sample>> cases = {
      {0.5, 1},       {512.5, 513},    {512.49, 512}, {512.0, 512},
      {-512.5, -513}, {-512.49, -512}, {-0.5, -1},    {-0.49, 0},
      {1023.0, 1023}, {-1024.0, -1024}};
  for (const auto& [x, code] : cases) {
    Sample hold = 7;
    SampleFix fix = SampleFix::Clamped;
    EXPECT_EQ(hbrp::dsp::sanitize_sample(x, rails, hold, fix), code) << x;
    EXPECT_EQ(fix, SampleFix::None) << x;
    EXPECT_EQ(hold, code) << x;
  }
  // The default 11-bit rails: 1024.5 -> 1025.
  const QualityConfig adc;
  Sample hold = 0;
  SampleFix fix = SampleFix::Held;
  EXPECT_EQ(hbrp::dsp::sanitize_sample(1024.5, adc, hold, fix), 1025);
  EXPECT_EQ(fix, SampleFix::None);
}

TEST(SanitizeLead, NanLedLeadOpensAtMidRail) {
  // The hold starts between the rails, so a lead that opens with
  // non-finite samples does not open with a clipped run; after that it
  // carries each accepted code forward.
  const QualityConfig rails;  // [0, 2047]: mid-rail 1023
  ASSERT_EQ(hbrp::dsp::mid_rail(rails), 1023);
  const std::vector<double> lead = {kNaN,  kNaN, -kInf, 1500.4, kNaN,
                                    -7.0,  kInf, 3000.0, kNaN,  1024.5};
  const std::vector<Sample> codes = {1023, 1023, 1023, 1500, 1500,
                                     0,    0,    2047, 2047, 1025};
  EXPECT_EQ(hbrp::dsp::sanitize_lead(lead, rails), codes);

  QualityConfig signed_rails;
  signed_rails.rail_low = -1000;
  signed_rails.rail_high = 1000;
  const std::vector<double> nan_led = {kNaN, kNaN, 10.0};
  EXPECT_EQ(hbrp::dsp::sanitize_lead(nan_led, signed_rails),
            (std::vector<Sample>{0, 0, 10}));
  EXPECT_TRUE(hbrp::dsp::sanitize_lead({}, rails).empty());
}

}  // namespace
