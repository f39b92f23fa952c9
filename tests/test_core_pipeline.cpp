// End-to-end tests of the real-time pipeline (Fig. 6 system (3)).
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "math/check.hpp"

namespace {

using hbrp::core::PipelineConfig;
using hbrp::core::RealTimePipeline;
using hbrp::ecg::BeatClass;

// One trained classifier shared by every test in this file.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hbrp::ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 51;
    const auto ts1 = hbrp::ecg::build_dataset({150, 150, 150}, cfg);
    cfg.max_per_record_per_class = 80;
    cfg.seed = 52;
    const auto ts2 = hbrp::ecg::build_dataset({1200, 120, 150}, cfg);
    hbrp::core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 5;
    const hbrp::core::TwoStepTrainer trainer(ts1, ts2, tcfg);
    const auto trained = trainer.run();
    bundle_ = new hbrp::embedded::EmbeddedClassifier(trained.quantize());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static hbrp::ecg::Record test_record(hbrp::ecg::RecordProfile profile,
                                       std::uint64_t seed) {
    hbrp::ecg::SynthConfig cfg;
    cfg.profile = profile;
    cfg.duration_s = 120.0;
    cfg.seed = seed;
    return hbrp::ecg::generate_record(cfg);
  }

  static const hbrp::embedded::EmbeddedClassifier* bundle_;
};

const hbrp::embedded::EmbeddedClassifier* PipelineTest::bundle_ = nullptr;

TEST_F(PipelineTest, ProcessesRecordEndToEnd) {
  const RealTimePipeline pipeline(*bundle_);
  const auto rec = test_record(hbrp::ecg::RecordProfile::PvcOccasional, 61);
  const auto result = pipeline.process(rec);
  // Nearly every annotated beat should surface (detector sensitivity).
  EXPECT_GT(result.beats.size(), rec.beats.size() * 9 / 10);
  EXPECT_LT(result.beats.size(), rec.beats.size() * 11 / 10);
}

TEST_F(PipelineTest, OnlyFlaggedBeatsAreDelineated) {
  const RealTimePipeline pipeline(*bundle_);
  const auto rec = test_record(hbrp::ecg::RecordProfile::PvcBigeminy, 62);
  const auto result = pipeline.process(rec);
  std::size_t delineated = 0;
  for (const auto& b : result.beats) {
    EXPECT_EQ(b.delineated, hbrp::ecg::is_pathological(b.predicted));
    delineated += b.delineated;
    if (b.delineated) {
      EXPECT_NE(b.fiducials.qrs_onset, hbrp::ecg::Fiducials::kNoFiducial);
    }
  }
  EXPECT_EQ(delineated, result.flagged_count());
  EXPECT_GT(delineated, 0u);
}

TEST_F(PipelineTest, FlaggedFractionTracksRecordMix) {
  const RealTimePipeline pipeline(*bundle_);
  const auto normal =
      pipeline.process(test_record(hbrp::ecg::RecordProfile::NormalSinus, 64));
  const auto lbbb =
      pipeline.process(test_record(hbrp::ecg::RecordProfile::Lbbb, 65));
  // An LBBB patient should trigger the detailed analysis almost always,
  // a normal-sinus one rarely.
  EXPECT_LT(normal.flagged_fraction(), 0.45);
  EXPECT_GT(lbbb.flagged_fraction(), 0.7);
  EXPECT_GT(lbbb.flagged_fraction(), normal.flagged_fraction() + 0.3);
}

TEST_F(PipelineTest, BeatClassificationQualityOnRecords) {
  // Match pipeline beats back to annotations and score NDR/ARR.
  const RealTimePipeline pipeline(*bundle_);
  hbrp::core::ConfusionMatrix cm;
  for (std::uint64_t seed = 70; seed < 73; ++seed) {
    const auto rec =
        test_record(seed % 2 == 0 ? hbrp::ecg::RecordProfile::PvcOccasional
                                  : hbrp::ecg::RecordProfile::Lbbb,
                    seed);
    const auto result = pipeline.process(rec);
    std::size_t ai = 0;
    for (const auto& b : result.beats) {
      while (ai < rec.beats.size() && rec.beats[ai].sample + 15 < b.r_peak)
        ++ai;
      if (ai < rec.beats.size() &&
          rec.beats[ai].sample <= b.r_peak + 15)
        cm.add(rec.beats[ai].cls, b.predicted);
    }
  }
  EXPECT_GT(cm.total(), 300u);
  EXPECT_GT(cm.arr(), 0.75);
  EXPECT_GT(cm.ndr(), 0.6);
}

TEST_F(PipelineTest, WindowGeometryValidated) {
  PipelineConfig cfg;
  cfg.window_before = 90;  // 90 + 100 != 200 expected by the projector
  EXPECT_THROW(RealTimePipeline(*bundle_, cfg), hbrp::Error);
}

TEST_F(PipelineTest, EmptyRecordRejected) {
  const RealTimePipeline pipeline(*bundle_);
  hbrp::ecg::Record empty;
  EXPECT_THROW(pipeline.process(empty), hbrp::Error);
}

TEST_F(PipelineTest, FlaggedFractionEmptyResult) {
  hbrp::core::PipelineResult empty;
  EXPECT_DOUBLE_EQ(empty.flagged_fraction(), 0.0);
  EXPECT_EQ(empty.flagged_count(), 0u);
}

}  // namespace
