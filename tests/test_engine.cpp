// The batched evaluation engine: core::Executor scheduling/determinism
// contracts, the BeatBatch arena container, and exact equivalence of every
// batch entry point with its per-beat counterpart.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/batch.hpp"
#include "core/executor.hpp"
#include "core/trainer.hpp"
#include "dsp/resample.hpp"
#include "ecg/dataset.hpp"
#include "embedded/bundle.hpp"
#include "math/fixed.hpp"
#include "nfc/train.hpp"

namespace {

using hbrp::core::BeatBatch;
using hbrp::core::Executor;

hbrp::ecg::BeatDataset quick_split(const hbrp::ecg::DatasetSpec& spec,
                                   std::uint64_t seed, std::size_t cap) {
  hbrp::ecg::DatasetBuilderConfig cfg;
  cfg.record_duration_s = 90.0;
  cfg.max_per_record_per_class = cap;
  cfg.seed = seed;
  return hbrp::ecg::build_dataset(spec, cfg);
}

// ---------------------------------------------------------------- Executor

TEST(Executor, VisitsEachIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const Executor executor(threads);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    executor.parallel_for(n, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
  }
}

TEST(Executor, ZeroThreadsMeansHardwareConcurrency) {
  const Executor executor(0);
  EXPECT_EQ(executor.threads(), Executor::hardware_threads());
  EXPECT_GE(executor.threads(), 1u);
}

TEST(Executor, EmptyAndSingleItemJobs) {
  const Executor executor(4);
  std::atomic<int> count{0};
  executor.parallel_for(0, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  executor.parallel_for(1, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
}

TEST(Executor, NestedParallelForRunsInlineWithoutDeadlock) {
  const Executor executor(2);
  constexpr std::size_t outer = 8, inner = 16;
  std::vector<std::atomic<int>> hits(outer * inner);
  executor.parallel_for(outer, [&](std::size_t i) {
    executor.parallel_for(inner, [&, i](std::size_t j) {
      ++hits[i * inner + j];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1);
}

TEST(Executor, ExceptionPropagatesToCaller) {
  const Executor executor(4);
  EXPECT_THROW(executor.parallel_for(100,
                                     [](std::size_t i) {
                                       if (i == 37)
                                         throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  // The executor must stay usable after a failed job.
  std::atomic<int> count{0};
  executor.parallel_for(10, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(Executor, SequentialJobsReuseWorkers) {
  const Executor executor(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 50; ++round)
    executor.parallel_for(20, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50 * 20);
}

// ---------------------------------------------------------------- BeatBatch

TEST(BeatBatch, RoundTripsDatasetExactly) {
  const auto ds = quick_split({40, 40, 40}, 71, 15);
  const BeatBatch batch = BeatBatch::from_dataset(ds);
  ASSERT_EQ(batch.size(), ds.beats.size());
  EXPECT_EQ(batch.window_length(), ds.window_size());
  EXPECT_EQ(batch.windows().size(), batch.size() * batch.window_length());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.label(i), ds.beats[i].label);
    const auto w = batch.window(i);
    ASSERT_EQ(w.size(), ds.beats[i].samples.size());
    for (std::size_t s = 0; s < w.size(); ++s)
      ASSERT_EQ(w[s], ds.beats[i].samples[s]);
  }
}

TEST(BeatBatch, AppendClearAndValidation) {
  BeatBatch batch(4);
  EXPECT_TRUE(batch.empty());
  const hbrp::dsp::Sample w1[] = {1, -2, 3, -4};
  batch.append(w1, hbrp::ecg::BeatClass::V);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.label(0), hbrp::ecg::BeatClass::V);
  const hbrp::dsp::Sample bad[] = {1, 2};
  EXPECT_THROW(batch.append(bad, hbrp::ecg::BeatClass::N),
               hbrp::Error);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_THROW(batch.window(0), hbrp::Error);
}

// ------------------------------------------------- batch/scalar equivalence

struct EngineFixture : ::testing::Test {
  void SetUp() override {
    ds = quick_split({80, 50, 50}, 81, 25);
    batch = hbrp::core::BeatBatch::from_dataset(ds);
    hbrp::math::Rng rng(82);
    projector = std::make_unique<hbrp::rp::BeatProjector>(
        hbrp::rp::make_achlioptas(8, ds.window_size() / 4, rng), 4);
    const auto d = hbrp::core::project_dataset(ds, *projector);
    nfc = std::make_unique<hbrp::nfc::NeuroFuzzyClassifier>(8);
    hbrp::nfc::init_from_statistics(*nfc, d.u, d.labels);
    bundle = std::make_unique<hbrp::embedded::EmbeddedClassifier>(
        *projector,
        hbrp::embedded::IntClassifier::from_float(*nfc),
        hbrp::math::to_q16(0.05));
  }

  hbrp::ecg::BeatDataset ds;
  hbrp::core::BeatBatch batch{1};
  std::unique_ptr<hbrp::rp::BeatProjector> projector;
  std::unique_ptr<hbrp::nfc::NeuroFuzzyClassifier> nfc;
  std::unique_ptr<hbrp::embedded::EmbeddedClassifier> bundle;
};

TEST_F(EngineFixture, ProjectIntBatchBitIdenticalToPerBeat) {
  const std::size_t k = projector->coefficients();
  std::vector<std::int32_t> batched(batch.size() * k);
  hbrp::rp::ProjectionScratch scratch;
  projector->project_int_batch(batch.windows(), batch.size(), batched,
                               scratch);
  std::vector<std::int32_t> u(k);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    projector->project_int_into(ds.beats[i].samples, u, scratch);
    for (std::size_t c = 0; c < k; ++c)
      ASSERT_EQ(batched[i * k + c], u[c]) << "beat " << i;
  }
}

TEST_F(EngineFixture, NfcClassifyBatchMatchesPerBeat) {
  const std::size_t k = projector->coefficients();
  const auto data = hbrp::core::project_dataset(batch, *projector);
  const std::span<const double> u = data.u.flat();
  for (const double alpha : {0.0, 0.05, 0.5}) {
    std::vector<hbrp::ecg::BeatClass> out(batch.size());
    nfc->classify_batch(u, batch.size(), alpha, out);
    for (std::size_t i = 0; i < batch.size(); ++i)
      ASSERT_EQ(out[i], nfc->classify(u.subspan(i * k, k), alpha))
          << "alpha " << alpha << " beat " << i;
  }
}

TEST_F(EngineFixture, EmbeddedClassifyBatchMatchesClassifyWindow) {
  std::vector<hbrp::ecg::BeatClass> out(batch.size());
  hbrp::embedded::ClassifyScratch scratch;
  bundle->classify_batch(batch.windows(), batch.size(), out, scratch);
  hbrp::embedded::ClassifyScratch window_scratch;
  for (std::size_t i = 0; i < batch.size(); ++i)
    ASSERT_EQ(out[i],
              bundle->classify_window(ds.beats[i].samples, window_scratch))
        << "beat " << i;
}

TEST_F(EngineFixture, BatchEntryPointsHandleEmptyAndSingleBeat) {
  hbrp::rp::ProjectionScratch scratch;
  hbrp::embedded::ClassifyScratch escratch;
  const std::size_t k = projector->coefficients();

  // Empty batch: every entry point is a no-op.
  projector->project_int_batch({}, 0, {}, scratch);
  nfc->classify_batch({}, 0, 0.1, {});
  bundle->classify_batch({}, 0, {}, escratch);

  // Single beat: identical to the scalar call.
  std::vector<std::int32_t> u(k), expect(k);
  projector->project_int_batch(batch.window(0), 1, u, scratch);
  projector->project_int_into(ds.beats[0].samples, expect, scratch);
  EXPECT_EQ(u, expect);
  hbrp::ecg::BeatClass cls;
  bundle->classify_batch(batch.window(0), 1, {&cls, 1}, escratch);
  hbrp::embedded::ClassifyScratch window_scratch;
  EXPECT_EQ(cls, bundle->classify_window(ds.beats[0].samples, window_scratch));
}

TEST_F(EngineFixture, BatchSizeMismatchesAreRejected) {
  hbrp::rp::ProjectionScratch scratch;
  const std::size_t k = projector->coefficients();
  std::vector<std::int32_t> u(batch.size() * k);
  // Output span too small for the count.
  EXPECT_THROW(projector->project_int_batch(batch.windows(), batch.size(),
                                            {u.data(), k}, scratch),
               hbrp::Error);
  // Window span not a multiple of the expected window.
  EXPECT_THROW(projector->project_int_batch(batch.windows().subspan(1),
                                            batch.size(), u, scratch),
               hbrp::Error);
}

TEST_F(EngineFixture, EvaluateParallelIdenticalToSerial) {
  const auto data = hbrp::core::project_dataset(batch, *projector);
  const Executor executor(4);
  for (const double alpha : {0.0, 0.05, 0.3}) {
    const auto serial = hbrp::core::evaluate(*nfc, data, alpha);
    const auto parallel = hbrp::core::evaluate(*nfc, data, alpha, &executor);
    EXPECT_EQ(serial.ndr(), parallel.ndr());
    EXPECT_EQ(serial.arr(), parallel.arr());
  }
}

TEST_F(EngineFixture, EvaluateEmbeddedBatchAndParallelIdenticalToLegacy) {
  const auto legacy = hbrp::core::evaluate_embedded(*bundle, ds);
  const auto batched = hbrp::core::evaluate_embedded(*bundle, batch);
  const Executor executor(4);
  const auto parallel =
      hbrp::core::evaluate_embedded(*bundle, batch, &executor);
  EXPECT_EQ(legacy.ndr(), batched.ndr());
  EXPECT_EQ(legacy.arr(), batched.arr());
  EXPECT_EQ(legacy.ndr(), parallel.ndr());
  EXPECT_EQ(legacy.arr(), parallel.arr());
}

// The trainer's double-typed data: every row, from either overload, is the
// dense double-typed projection of the beat's downsampled window.
TEST_F(EngineFixture, ProjectDatasetRowsAreTheDenseFloatProjection) {
  const auto a = hbrp::core::project_dataset(ds, *projector);
  const auto b = hbrp::core::project_dataset(batch, *projector);
  ASSERT_EQ(a.u.rows(), ds.beats.size());
  ASSERT_EQ(b.u.rows(), ds.beats.size());
  for (std::size_t i = 0; i < ds.beats.size(); ++i) {
    const hbrp::dsp::Signal down = hbrp::dsp::downsample_avg(
        ds.beats[i].samples, projector->downsample_factor());
    const std::vector<double> x(down.begin(), down.end());
    const auto ref = projector->matrix().apply(std::span<const double>(x));
    for (std::size_t c = 0; c < ref.size(); ++c) {
      ASSERT_EQ(a.u.at(i, c), ref[c]) << "beat " << i;
      ASSERT_EQ(b.u.at(i, c), ref[c]) << "beat " << i;
    }
  }
}

TEST_F(EngineFixture, ProjectDatasetBatchIdenticalToPerBeatOverload) {
  const auto a = hbrp::core::project_dataset(ds, *projector);
  const auto b = hbrp::core::project_dataset(batch, *projector);
  ASSERT_EQ(a.u.rows(), b.u.rows());
  ASSERT_EQ(a.u.cols(), b.u.cols());
  ASSERT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.u.rows(); ++i)
    for (std::size_t c = 0; c < a.u.cols(); ++c)
      ASSERT_EQ(a.u.at(i, c), b.u.at(i, c));
}

}  // namespace
