// Reproducibility guarantees: every stochastic component must be bit-stable
// given its seed, across the full training stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/trainer.hpp"
#include "dsp/morphology.hpp"
#include "ecg/dataset.hpp"
#include "kernels/dsp_condition.hpp"
#include "lifecycle/bundle.hpp"

namespace {

using hbrp::ecg::BeatDataset;

BeatDataset quick_split(const hbrp::ecg::DatasetSpec& spec,
                        std::uint64_t seed, std::size_t cap) {
  hbrp::ecg::DatasetBuilderConfig cfg;
  cfg.record_duration_s = 90.0;
  cfg.max_per_record_per_class = cap;
  cfg.seed = seed;
  return hbrp::ecg::build_dataset(spec, cfg);
}

TEST(Determinism, FullTwoStepTrainingIsBitStable) {
  const auto ts1 = quick_split({60, 60, 60}, 21, 15);
  const auto ts2 = quick_split({400, 60, 70}, 22, 60);
  hbrp::core::TwoStepConfig cfg;
  cfg.ga.population = 4;
  cfg.ga.generations = 2;
  cfg.seed = 23;
  const hbrp::core::TwoStepTrainer trainer(ts1, ts2, cfg);
  const auto a = trainer.run();
  const auto b = trainer.run();
  EXPECT_EQ(a.projector.matrix(), b.projector.matrix());
  EXPECT_DOUBLE_EQ(a.alpha_train, b.alpha_train);
  for (std::size_t k = 0; k < 8; ++k)
    for (std::size_t l = 0; l < 3; ++l) {
      EXPECT_DOUBLE_EQ(a.nfc.mf(k, l).center, b.nfc.mf(k, l).center);
      EXPECT_DOUBLE_EQ(a.nfc.mf(k, l).sigma, b.nfc.mf(k, l).sigma);
    }
}

TEST(Determinism, ParallelTrainingBitIdenticalToSerial) {
  // The engine's core contract: the executor thread count must not change
  // any trained artefact or metric. Run the full two-step framework fully
  // serial and with four executor threads and compare everything.
  const auto ts1 = quick_split({60, 60, 60}, 51, 15);
  const auto ts2 = quick_split({400, 60, 70}, 52, 60);
  hbrp::core::TwoStepConfig cfg;
  cfg.ga.population = 5;
  cfg.ga.generations = 3;
  cfg.seed = 53;

  cfg.threads = 1;
  const hbrp::core::TwoStepTrainer serial(ts1, ts2, cfg);
  const auto a = serial.run();
  const auto ha = serial.last_history();

  cfg.threads = 4;
  const hbrp::core::TwoStepTrainer parallel(ts1, ts2, cfg);
  const auto b = parallel.run();
  const auto hb = parallel.last_history();

  EXPECT_EQ(a.projector.matrix(), b.projector.matrix());
  EXPECT_DOUBLE_EQ(a.alpha_train, b.alpha_train);
  for (std::size_t k = 0; k < 8; ++k)
    for (std::size_t l = 0; l < 3; ++l) {
      EXPECT_DOUBLE_EQ(a.nfc.mf(k, l).center, b.nfc.mf(k, l).center);
      EXPECT_DOUBLE_EQ(a.nfc.mf(k, l).sigma, b.nfc.mf(k, l).sigma);
    }
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i)
    EXPECT_DOUBLE_EQ(ha[i], hb[i]);

  // Metrics on an independent evaluation set agree exactly too, whichever
  // executor computes them.
  const auto test = quick_split({300, 50, 60}, 54, 60);
  const auto proj_a = hbrp::core::project_dataset(test, a.projector);
  const auto proj_b = hbrp::core::project_dataset(test, b.projector);
  const hbrp::core::Executor executor(4);
  const auto cm_serial =
      hbrp::core::evaluate(a.nfc, proj_a, a.alpha_train);
  const auto cm_parallel =
      hbrp::core::evaluate(b.nfc, proj_b, b.alpha_train, &executor);
  EXPECT_DOUBLE_EQ(cm_serial.ndr(), cm_parallel.ndr());
  EXPECT_DOUBLE_EQ(cm_serial.arr(), cm_parallel.arr());
}

// Golden digest of a trained model bundle: projection matrix, MFs, alpha
// and the drift centroids of ts1, committed while the trainer still ran its
// own double-typed projection. Run-vs-run checks above cannot see a change
// that moves both runs alike; this one fails on any moved bit of what
// training produces. Also run under HBRP_FORCE_SCALAR=1, because training
// evaluates its MFs with the dispatched log_fuzzy_batch kernel.
TEST(Determinism, TrainedBundleDigestIsPinned) {
  hbrp::ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 120.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 911;
  const auto ts1 = hbrp::ecg::build_dataset({90, 90, 90}, dcfg);
  dcfg.max_per_record_per_class = 60;
  dcfg.seed = 912;
  const auto ts2 = hbrp::ecg::build_dataset({600, 80, 80}, dcfg);
  hbrp::core::TwoStepConfig cfg;
  cfg.ga.population = 4;
  cfg.ga.generations = 3;
  cfg.seed = 914;
  cfg.threads = 1;
  const hbrp::core::TrainedClassifier trained =
      hbrp::core::TwoStepTrainer(ts1, ts2, cfg).run();
  const hbrp::lifecycle::ModelBundle bundle{
      .model = trained,
      .centroids =
          hbrp::core::compute_training_centroids(trained.quantize(), ts1)};
  EXPECT_EQ(hbrp::lifecycle::bundle_digest(
                hbrp::lifecycle::encode_bundle(bundle)),
            0x215616563b352bccull);
}

TEST(Determinism, FitnessIsAPureFunctionOfTheMatrix) {
  const auto ts1 = quick_split({60, 60, 60}, 31, 15);
  const auto ts2 = quick_split({400, 60, 70}, 32, 60);
  const hbrp::core::TwoStepTrainer trainer(ts1, ts2, {});
  hbrp::math::Rng rng(33);
  const auto p = hbrp::rp::make_achlioptas(8, 50, rng);
  const double f1 = trainer.fitness(p);
  const double f2 = trainer.fitness(p);
  EXPECT_DOUBLE_EQ(f1, f2);
}

TEST(Determinism, StreamingConditionerIndependentOfPushGranularity) {
  // Sample-by-sample pushes, one whole-record block, and fixed-size blocks
  // with a sync() after each must all finish (after flush_tail) on the
  // same samples: the batch conditioner's output over the whole record.
  hbrp::math::Rng rng(41);
  hbrp::dsp::Signal x(2000);
  for (auto& v : x) v = static_cast<int>(rng.uniform_int(-400, 400));
  const hbrp::dsp::Signal expected = hbrp::dsp::condition_ecg(x);

  auto run = [&x](std::size_t block, bool sync_each) {
    hbrp::kernels::BlockConditioner cond;
    hbrp::dsp::Signal out;
    for (std::size_t i = 0; i < x.size(); i += block) {
      const std::size_t n = std::min(block, x.size() - i);
      if (n == 1)
        cond.push(x[i], out);
      else
        cond.push_block(std::span<const hbrp::dsp::Sample>(x.data() + i, n),
                        out);
      if (sync_each) cond.sync(out);
    }
    cond.flush_tail(out);
    return out;
  };
  EXPECT_EQ(run(1, false), expected);
  EXPECT_EQ(run(x.size(), false), expected);
  EXPECT_EQ(run(37, true), expected);
}

}  // namespace
