// Scenario-engine unit tests: deterministic compilation, episode
// semantics (RR irregularity, VT runs, pacing spikes, lead-off
// obscuration, timeline warps), RR statistics, and the AAMI verdict
// scorer. No classifier and no sockets — these are the fast checks the
// chaos/runner suite builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "scenario/episodes.hpp"
#include "scenario/runner.hpp"

namespace {

using namespace hbrp;
using scenario::Episode;
using scenario::EpisodeKind;
using scenario::ScenarioSpec;
using scenario::ScenarioStream;
using scenario::TruthBeat;

constexpr int kFs = dsp::kMitBihFs;

ScenarioSpec base_spec(const char* name, std::uint64_t seed = 41,
                       double duration_s = 40.0) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.duration_s = duration_s;
  return spec;
}

TEST(ScenarioBuild, DeterministicInSeed) {
  auto spec = base_spec("det");
  spec.episodes.push_back({EpisodeKind::AfibIrregularRr, 5.0, 20.0, 1.0});
  spec.episodes.push_back({EpisodeKind::ArtefactStorm, 28.0, 6.0, 1.0});
  const auto a = scenario::build_scenario(spec);
  const auto b = scenario::build_scenario(spec);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    if (std::isnan(a.samples[i])) {
      EXPECT_TRUE(std::isnan(b.samples[i])) << i;
    } else {
      EXPECT_EQ(a.samples[i], b.samples[i]) << i;  // bit-identical
    }
  }
  ASSERT_EQ(a.truth.size(), b.truth.size());
  for (std::size_t i = 0; i < a.truth.size(); ++i) {
    EXPECT_EQ(a.truth[i].sample, b.truth[i].sample);
    EXPECT_EQ(a.truth[i].aami, b.truth[i].aami);
    EXPECT_EQ(a.truth[i].obscured, b.truth[i].obscured);
  }

  spec.seed ^= 1;
  const auto c = scenario::build_scenario(spec);
  const bool same = a.samples.size() == c.samples.size() &&
                    std::equal(a.samples.begin(), a.samples.end(),
                               c.samples.begin(), c.samples.end(),
                               [](double x, double y) {
                                 return x == y ||
                                        (std::isnan(x) && std::isnan(y));
                               });
  EXPECT_FALSE(same) << "different seed must not reproduce the stream";
}

TEST(ScenarioBuild, AfibWidensRrDistribution) {
  const auto clean = scenario::build_scenario(base_spec("clean"));
  auto spec = base_spec("afib");
  spec.episodes.push_back(
      {EpisodeKind::AfibIrregularRr, 2.0, spec.duration_s - 4.0, 1.0});
  const auto afib = scenario::build_scenario(spec);
  // The Snippet-1 discriminator features must separate the two regimes.
  EXPECT_GT(afib.rr.sdnn_ms, 3.0 * clean.rr.sdnn_ms);
  EXPECT_GT(afib.rr.rmssd_ms, 3.0 * clean.rr.rmssd_ms);
  EXPECT_GT(afib.rr.pnn50, 0.5);
  EXPECT_LT(clean.rr.pnn50, 0.4);
}

TEST(ScenarioBuild, SustainedVtRunWithFusionOnset) {
  auto spec = base_spec("vt");
  spec.episodes.push_back({EpisodeKind::SustainedVt, 15.0, 10.0, 1.0});
  const auto s = scenario::build_scenario(spec);
  std::size_t v = 0, f = 0;
  for (const TruthBeat& tb : s.truth) {
    v += tb.aami == core::AamiClass::V;
    f += tb.aami == core::AamiClass::F;
  }
  EXPECT_EQ(f, 1u) << "exactly one fusion beat at VT onset";
  // ~10 s at 150-180 bpm.
  EXPECT_GE(v, 20u);
  // Consecutive V beats run fast: median VT RR well under the sinus RR.
  std::vector<std::size_t> vt_peaks;
  for (const TruthBeat& tb : s.truth)
    if (tb.aami == core::AamiClass::V) vt_peaks.push_back(tb.sample);
  const auto rr = scenario::rr_statistics(vt_peaks, kFs);
  EXPECT_LT(rr.mean_ms, 450.0);
  EXPECT_GT(rr.mean_ms, 300.0);
}

TEST(ScenarioBuild, PacedRhythmSpikesAndQTruth) {
  auto spec = base_spec("paced");
  spec.episodes.push_back(
      {EpisodeKind::PacedRhythm, 2.0, spec.duration_s - 4.0, 1.0});
  const auto s = scenario::build_scenario(spec);
  std::size_t q = 0;
  for (const TruthBeat& tb : s.truth) q += tb.aami == core::AamiClass::Q;
  EXPECT_GT(q, s.truth.size() / 2);
  // The stimulus artefact reaches near-rail amplitudes no organic QRS in
  // this generator does.
  const double peak = *std::max_element(s.samples.begin(), s.samples.end());
  EXPECT_GT(peak, 1700.0);
}

TEST(ScenarioBuild, ElectrodeDropObscuresAndInjectsNonFinite) {
  auto spec = base_spec("drop");
  spec.episodes.push_back({EpisodeKind::ElectrodeDrop, 10.0, 15.0, 1.0});
  const auto s = scenario::build_scenario(spec);
  EXPECT_GT(s.artefact_samples, static_cast<std::size_t>(2 * kFs));
  std::size_t obscured = 0;
  for (const TruthBeat& tb : s.truth) obscured += tb.obscured;
  EXPECT_GT(obscured, 0u);
  EXPECT_LT(obscured, s.truth.size());
  const bool has_nonfinite = std::any_of(
      s.samples.begin(), s.samples.end(),
      [](double x) { return !std::isfinite(x); });
  EXPECT_TRUE(has_nonfinite) << "driver garbage must survive to the "
                                "edge that sanitizes it";
}

TEST(ScenarioBuild, ClockSkewStretchesTimeline) {
  auto spec = base_spec("skew");
  const auto plain = scenario::build_scenario(spec);
  spec.episodes.push_back(
      {EpisodeKind::ClockSkew, 0.0, spec.duration_s, 0.03});
  const auto skewed = scenario::build_scenario(spec);
  const auto n = static_cast<double>(plain.samples.size());
  EXPECT_NEAR(static_cast<double>(skewed.samples.size()), 1.03 * n,
              0.002 * n);
  // Same plan, same seed: beat k is beat k, just displaced by the skew.
  ASSERT_EQ(skewed.truth.size(), plain.truth.size());
  const TruthBeat& last = skewed.truth.back();
  const TruthBeat& ref = plain.truth.back();
  EXPECT_NEAR(static_cast<double>(last.sample),
              1.03 * static_cast<double>(ref.sample),
              0.005 * static_cast<double>(ref.sample) + 3.0);
}

TEST(ScenarioBuild, RateMismatchWarpsOnlyItsSegment) {
  auto spec = base_spec("mismatch");
  const auto plain = scenario::build_scenario(spec);
  const double w0 = 15.0, wlen = 10.0, factor = 300.0 / 360.0;
  spec.episodes.push_back({EpisodeKind::RateMismatch, w0, wlen, factor});
  const auto warped = scenario::build_scenario(spec);
  EXPECT_LT(warped.samples.size(), plain.samples.size());
  ASSERT_EQ(warped.truth.size(), plain.truth.size());
  const auto before = static_cast<std::size_t>(w0 * kFs);
  const auto shift = static_cast<std::ptrdiff_t>(plain.samples.size()) -
                     static_cast<std::ptrdiff_t>(warped.samples.size());
  for (std::size_t i = 0; i < plain.truth.size(); ++i) {
    if (plain.truth[i].sample < before) {
      EXPECT_EQ(warped.truth[i].sample, plain.truth[i].sample);
    } else if (plain.truth[i].sample >=
               static_cast<std::size_t>((w0 + wlen) * kFs)) {
      EXPECT_EQ(static_cast<std::ptrdiff_t>(plain.truth[i].sample) -
                    static_cast<std::ptrdiff_t>(warped.truth[i].sample),
                shift);
    }
  }
}

TEST(ScenarioSuite, StandardScenariosCoverEveryKindOnce) {
  const auto specs = scenario::standard_scenarios(60.0, 9000);
  ASSERT_EQ(specs.size(), 10u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].seed, 9000 + i);
    EXPECT_DOUBLE_EQ(specs[i].duration_s, 60.0);
    for (std::size_t j = i + 1; j < specs.size(); ++j)
      EXPECT_NE(specs[i].name, specs[j].name);
  }
  // Every episode kind appears somewhere in the suite.
  for (const EpisodeKind k :
       {EpisodeKind::AfibIrregularRr, EpisodeKind::SustainedVt,
        EpisodeKind::PacedRhythm, EpisodeKind::ArtefactStorm,
        EpisodeKind::ElectrodeDrop, EpisodeKind::ClockSkew,
        EpisodeKind::RateMismatch, EpisodeKind::SupraventricularRun,
        EpisodeKind::MorphologyShift}) {
    const bool found = std::any_of(
        specs.begin(), specs.end(), [k](const ScenarioSpec& s) {
          return std::any_of(
              s.episodes.begin(), s.episodes.end(),
              [k](const Episode& e) { return e.kind == k; });
        });
    EXPECT_TRUE(found) << scenario::to_string(k);
  }
}

TEST(RrStatistics, KnownSequences) {
  // 360 Hz, constant RR of 360 samples = 1000 ms.
  std::vector<std::size_t> steady;
  for (std::size_t i = 0; i < 10; ++i) steady.push_back(1000 + i * 360);
  const auto s = scenario::rr_statistics(steady, kFs);
  EXPECT_NEAR(s.mean_ms, 1000.0, 1e-9);
  EXPECT_NEAR(s.sdnn_ms, 0.0, 1e-9);
  EXPECT_NEAR(s.pnn50, 0.0, 1e-9);

  // Alternating 800/1200 ms: every successive difference is 400 ms.
  std::vector<std::size_t> alt{0};
  for (std::size_t i = 0; i < 10; ++i)
    alt.push_back(alt.back() + (i % 2 == 0 ? 288 : 432));
  const auto a = scenario::rr_statistics(alt, kFs);
  EXPECT_NEAR(a.mean_ms, 1000.0, 1.0);
  EXPECT_NEAR(a.rmssd_ms, 400.0, 1.0);
  EXPECT_NEAR(a.pnn50, 1.0, 1e-9);

  EXPECT_EQ(scenario::rr_statistics({42}, kFs).mean_ms, 0.0);
}

TEST(ScoreVerdicts, MatchMissFalseAndObscured) {
  ScenarioStream stream;
  stream.fs_hz = kFs;
  stream.samples.resize(10000, 1024.0);
  stream.truth = {
      {1000, ecg::BeatClass::N, core::AamiClass::N, false},
      {2000, ecg::BeatClass::V, core::AamiClass::V, false},
      {3000, ecg::BeatClass::N, core::AamiClass::N, true},   // obscured
      {4000, ecg::BeatClass::V, core::AamiClass::V, false},  // missed
  };
  const std::vector<scenario::Verdict> verdicts = {
      {0, 1010, static_cast<std::uint8_t>(ecg::BeatClass::N), 0},
      {1, 1995, static_cast<std::uint8_t>(ecg::BeatClass::V), 0},
      {2, 6000, static_cast<std::uint8_t>(ecg::BeatClass::V), 0},  // false
  };
  const auto sc = scenario::score_verdicts(stream, verdicts);
  EXPECT_EQ(sc.truth_beats, 4u);
  EXPECT_EQ(sc.matched, 2u);
  EXPECT_EQ(sc.missed, 1u);
  EXPECT_EQ(sc.obscured, 1u);
  EXPECT_EQ(sc.false_detections, 1u);
  EXPECT_DOUBLE_EQ(sc.miss_rate, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(sc.ndr, 1.0);
  // One V recognized, one V missed.
  EXPECT_DOUBLE_EQ(sc.arr, 0.5);
  EXPECT_DOUBLE_EQ(sc.false_rate, 1.0 / 3.0);
}

TEST(ScoreVerdicts, ToleranceBoundsAreRespected) {
  ScenarioStream stream;
  stream.fs_hz = kFs;
  stream.samples.resize(5000, 1024.0);
  stream.truth = {{1000, ecg::BeatClass::N, core::AamiClass::N, false}};
  const auto tol = static_cast<std::uint64_t>(std::lround(0.15 * kFs));
  const std::vector<scenario::Verdict> inside = {
      {0, 1000 + tol, static_cast<std::uint8_t>(ecg::BeatClass::N), 0}};
  const std::vector<scenario::Verdict> outside = {
      {0, 1000 + tol + 1, static_cast<std::uint8_t>(ecg::BeatClass::N), 0}};
  EXPECT_EQ(scenario::score_verdicts(stream, inside).matched, 1u);
  EXPECT_EQ(scenario::score_verdicts(stream, outside).matched, 0u);
  EXPECT_EQ(scenario::score_verdicts(stream, outside).missed, 1u);
}

}  // namespace
