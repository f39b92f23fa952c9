// drift::DriftTracker unit tests — seed distances, novelty, the score
// window and the state digest, no signal chain. Geometry used throughout:
// k = 4 coefficients, scale = 10, so a point r "training sigmas" along one
// axis is r * 20 integer units (normalization divides by
// scale * sqrt(k) = 20).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "drift/tracker.hpp"
#include "math/check.hpp"

namespace {

using hbrp::drift::DriftConfig;
using hbrp::drift::DriftObservation;
using hbrp::drift::DriftTracker;
using hbrp::drift::TrainingCentroids;

constexpr double kUnit = 20.0;  ///< integer units per training sigma

TrainingCentroids two_seed_centroids() {
  TrainingCentroids tc;
  tc.coefficients = 4;
  tc.scale = 10.0;
  tc.centroids.push_back({{0.0, 0.0, 0.0, 0.0}, 100.0});
  tc.centroids.push_back({{100.0, 100.0, 100.0, 100.0}, 50.0});
  return tc;
}

TrainingCentroids one_seed_centroids() {
  TrainingCentroids tc;
  tc.coefficients = 4;
  tc.scale = 10.0;
  tc.centroids.push_back({{0.0, 0.0, 0.0, 0.0}, 100.0});
  return tc;
}

std::array<std::int32_t, 4> axis0(double sigmas) {
  return {static_cast<std::int32_t>(sigmas * kUnit), 0, 0, 0};
}

TEST(DriftTracker, ConstructorValidatesSeedsButNotTheirCount) {
  // Any number of seeds fits: a bundle may carry up to 256 of them.
  TrainingCentroids many = one_seed_centroids();
  for (int i = 1; i < 256; ++i)
    many.centroids.push_back({{1000.0 * i, 0.0, 0.0, 0.0}, 1.0});
  const DriftTracker t(many);
  EXPECT_EQ(t.coefficients(), 4u);
  EXPECT_EQ(t.beats(), 0u);
  EXPECT_DOUBLE_EQ(t.score(), 0.0);

  TrainingCentroids none = one_seed_centroids();
  none.centroids.clear();
  EXPECT_THROW(DriftTracker{none}, hbrp::Error);
  TrainingCentroids skewed = two_seed_centroids();
  skewed.centroids[1].mean.pop_back();
  EXPECT_THROW(DriftTracker{skewed}, hbrp::Error);
  TrainingCentroids negative = one_seed_centroids();
  negative.centroids[0].sigma = -1.0;
  EXPECT_THROW(DriftTracker{negative}, hbrp::Error);
  DriftConfig no_window;
  no_window.window_beats = 0;
  EXPECT_THROW(DriftTracker(one_seed_centroids(), no_window), hbrp::Error);
}

TEST(DriftTracker, NearbyBeatAssignsWithoutNovelty) {
  DriftTracker t(two_seed_centroids());
  const auto u = axis0(0.4);  // well inside the novelty threshold (1.3)
  const DriftObservation obs = t.observe(u);
  EXPECT_FALSE(obs.novel);
  EXPECT_NEAR(obs.distance, 0.4, 1e-12);
  EXPECT_EQ(t.beats(), 1u);
  EXPECT_EQ(t.novel_beats(), 0u);
}

TEST(DriftTracker, DistantBeatFoundsClusterAndStaysNovel) {
  DriftTracker t(two_seed_centroids());
  const auto u = axis0(5.0);
  const DriftObservation first = t.observe(u);
  EXPECT_TRUE(first.novel);
  EXPECT_NEAR(first.distance, 5.0, 1e-12);

  // Repeats are still novel at the same distance: nothing the tracker
  // keeps adapts toward a recurring shape.
  const DriftObservation second = t.observe(u);
  EXPECT_TRUE(second.novel);
  EXPECT_NEAR(second.distance, 5.0, 1e-12);
  EXPECT_EQ(t.novel_beats(), 2u);
}

TEST(DriftTracker, PristineSeedsAnchorNovelty) {
  // Novelty is judged against the training centroid as exported, which
  // never adapts: a sustained 2-sigma shift stays novel forever.
  DriftConfig cfg;
  cfg.novelty_threshold = 0.6;
  DriftTracker t(one_seed_centroids(), cfg);
  const auto shifted = axis0(2.0);
  DriftObservation obs;
  for (int i = 0; i < 50; ++i) obs = t.observe(shifted);
  // The 50th beat still reads as 2 sigmas from the seed.
  EXPECT_NEAR(obs.distance, 2.0, 1e-12);
  EXPECT_TRUE(obs.novel);
  EXPECT_EQ(t.novel_beats(), 50u);
}

TEST(DriftTracker, WindowScoreAlarmLatchAndRearm) {
  DriftConfig cfg;
  cfg.window_beats = 8;
  cfg.alarm_threshold = 0.5;
  cfg.min_beats = 8;
  DriftTracker t(one_seed_centroids(), cfg);

  const auto novel = axis0(5.0);
  const auto familiar = axis0(0.0);
  DriftObservation obs;
  for (int i = 0; i < 8; ++i) obs = t.observe(novel);
  EXPECT_DOUBLE_EQ(obs.score, 1.0);
  EXPECT_TRUE(obs.alarm);
  EXPECT_TRUE(t.alarm_active());
  EXPECT_EQ(t.alarms(), 1u);

  // Familiar beats wash the window; the alarm drops below threshold and
  // clears (latched only while score >= threshold).
  for (int i = 0; i < 5; ++i) obs = t.observe(familiar);
  EXPECT_DOUBLE_EQ(obs.score, 3.0 / 8.0);
  EXPECT_FALSE(t.alarm_active());
  EXPECT_EQ(t.alarms(), 1u);

  // A second burst re-arms: the rising edge counts again.
  for (int i = 0; i < 8; ++i) obs = t.observe(novel);
  EXPECT_TRUE(t.alarm_active());
  EXPECT_EQ(t.alarms(), 2u);
}

TEST(DriftTracker, MinBeatsSuppressesEarlyAlarm) {
  DriftConfig cfg;
  cfg.window_beats = 4;
  cfg.alarm_threshold = 0.5;
  cfg.min_beats = 32;
  DriftTracker t(one_seed_centroids(), cfg);
  const auto novel = axis0(5.0);
  for (int i = 0; i < 31; ++i) {
    const auto obs = t.observe(novel);
    EXPECT_FALSE(obs.alarm) << "beat " << i;
  }
  const auto obs = t.observe(novel);  // beat 32 crosses min_beats
  EXPECT_TRUE(obs.alarm);
  EXPECT_EQ(t.alarms(), 1u);
}

TEST(DriftTracker, DigestIsDeterministicAndSensitive) {
  DriftTracker a(two_seed_centroids());
  DriftTracker b(two_seed_centroids());
  EXPECT_EQ(a.state_digest(), b.state_digest());
  for (int i = 0; i < 20; ++i) {
    const std::array<std::int32_t, 4> u = {i * 13 - 50, i * 7, 0, 0};
    a.observe(u);
    b.observe(u);
    ASSERT_EQ(a.state_digest(), b.state_digest()) << "beat " << i;
  }
  a.observe(axis0(1.0));
  b.observe(axis0(1.1));
  EXPECT_NE(a.state_digest(), b.state_digest());
}

TEST(DriftTracker, ObserveRejectsWrongWidth) {
  DriftTracker t(two_seed_centroids());
  const std::array<std::int32_t, 3> narrow = {0, 0, 0};
  EXPECT_THROW(t.observe(narrow), hbrp::Error);
}

TEST(DriftTracker, PathologicalBeatsAreNeverNovel) {
  // A pathological verdict gates novelty off no matter how far the beat
  // sits: the classifier already escalates those, so they must neither
  // raise novel_beats nor contribute to the score's numerator or
  // denominator — 40 far V beats followed by near normals stay silent.
  DriftConfig cfg;
  cfg.window_beats = 8;
  cfg.min_beats = 1;
  DriftTracker t(one_seed_centroids(), cfg);
  for (int i = 0; i < 40; ++i) {
    const DriftObservation obs =
        t.observe(axis0(6.0), /*normal_classified=*/false);
    EXPECT_FALSE(obs.novel);
    EXPECT_DOUBLE_EQ(obs.score, 0.0);
    EXPECT_FALSE(obs.alarm);
  }
  EXPECT_EQ(t.novel_beats(), 0u);
  EXPECT_EQ(t.alarms(), 0u);

  // The same geometry marked normal flips novel immediately.
  const DriftObservation obs = t.observe(axis0(6.0));
  EXPECT_TRUE(obs.novel);
  EXPECT_EQ(t.novel_beats(), 1u);
}

TEST(DriftTracker, ScoreDenominatorFlooredAtHalfWindow) {
  // Window 8 -> denominator floor 4. One novel normal in a window whose
  // other beats were all pathological scores 1/4, not 1/1: a lone normal
  // beat mid-VT cannot alarm the tracker by itself.
  DriftConfig cfg;
  cfg.window_beats = 8;
  cfg.min_beats = 1;
  DriftTracker t(one_seed_centroids(), cfg);
  for (int i = 0; i < 7; ++i)
    t.observe(axis0(6.0), /*normal_classified=*/false);
  const DriftObservation obs = t.observe(axis0(6.0));
  EXPECT_TRUE(obs.novel);
  EXPECT_DOUBLE_EQ(obs.score, 0.25);
  EXPECT_FALSE(obs.alarm);
}

TEST(DriftTracker, PerSeedSigmaNormalizesNoveltyDistance) {
  // Seed B carries its own sigma (40 = 4x the global scale), so a beat
  // 60 units from B measures 60 / (40 * sqrt(4)) = 0.75 of B's sigmas —
  // not the 1.5 the global scale would report. Seed A has no sigma and
  // keeps the global fallback.
  TrainingCentroids tc;
  tc.coefficients = 4;
  tc.scale = 10.0;
  tc.centroids.push_back({{0.0, 0.0, 0.0, 0.0}, 100.0});
  tc.centroids.push_back({{1000.0, 0.0, 0.0, 0.0}, 50.0, 40.0});
  DriftConfig cfg;
  cfg.novelty_threshold = 1.0;
  DriftTracker t(tc, cfg);

  const std::array<std::int32_t, 4> near_b = {1060, 0, 0, 0};
  const DriftObservation wide = t.observe(near_b);
  EXPECT_NEAR(wide.distance, 0.75, 1e-12);
  EXPECT_FALSE(wide.novel);

  // The same offset from the sigma-less seed A uses the global unit:
  // 60 / (10 * sqrt(4)) = 3.0 sigmas, well past the threshold.
  const std::array<std::int32_t, 4> near_a = {60, 0, 0, 0};
  const DriftObservation tight = t.observe(near_a);
  EXPECT_NEAR(tight.distance, 3.0, 1e-12);
  EXPECT_TRUE(tight.novel);
}

}  // namespace
