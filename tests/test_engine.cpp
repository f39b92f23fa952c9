// The batched evaluation engine: core::Executor scheduling/determinism
// contracts, and exact equivalence of every batch entry point, run over a
// dataset's window arena, with its per-beat counterpart.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/executor.hpp"
#include "core/trainer.hpp"
#include "dsp/resample.hpp"
#include "ecg/dataset.hpp"
#include "embedded/bundle.hpp"
#include "math/fixed.hpp"
#include "nfc/train.hpp"

namespace {

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

// ------------------------------------------------- batch/scalar equivalence

struct EngineFixture : ::testing::Test {
  void SetUp() override {
    ds = quick_split({80, 50, 50}, 81, 25);
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
  std::unique_ptr<hbrp::rp::BeatProjector> projector;
  std::unique_ptr<hbrp::nfc::NeuroFuzzyClassifier> nfc;
  std::unique_ptr<hbrp::embedded::EmbeddedClassifier> bundle;
};

TEST_F(EngineFixture, ProjectIntBatchBitIdenticalToPerBeat) {
  const std::size_t k = projector->coefficients();
  std::vector<std::int32_t> batched(ds.size() * k);
  hbrp::rp::ProjectionScratch scratch;
  projector->project_int_batch(ds.samples, ds.size(), batched, scratch);
  std::vector<std::int32_t> u(k);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    projector->project_int_into(ds.window(i), u, scratch);
    for (std::size_t c = 0; c < k; ++c)
      ASSERT_EQ(batched[i * k + c], u[c]) << "beat " << i;
  }
}

TEST_F(EngineFixture, NfcClassifyBatchMatchesPerBeat) {
  const std::size_t k = projector->coefficients();
  const auto data = hbrp::core::project_dataset(ds, *projector);
  const std::span<const double> u = data.u.flat();
  for (const double alpha : {0.0, 0.05, 0.5}) {
    std::vector<hbrp::ecg::BeatClass> out(ds.size());
    nfc->classify_batch(u, ds.size(), alpha, out);
    for (std::size_t i = 0; i < ds.size(); ++i)
      ASSERT_EQ(out[i], nfc->classify(u.subspan(i * k, k), alpha))
          << "alpha " << alpha << " beat " << i;
  }
}

TEST_F(EngineFixture, EmbeddedClassifyBatchMatchesClassifyWindow) {
  std::vector<hbrp::ecg::BeatClass> out(ds.size());
  hbrp::embedded::ClassifyScratch scratch;
  bundle->classify_batch(ds.samples, ds.size(), out, scratch);
  hbrp::embedded::ClassifyScratch window_scratch;
  for (std::size_t i = 0; i < ds.size(); ++i)
    ASSERT_EQ(out[i], bundle->classify_window(ds.window(i), window_scratch))
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
  projector->project_int_batch(ds.window(0), 1, u, scratch);
  projector->project_int_into(ds.window(0), expect, scratch);
  EXPECT_EQ(u, expect);
  hbrp::ecg::BeatClass cls;
  bundle->classify_batch(ds.window(0), 1, {&cls, 1}, escratch);
  hbrp::embedded::ClassifyScratch window_scratch;
  EXPECT_EQ(cls, bundle->classify_window(ds.window(0), window_scratch));
}

TEST_F(EngineFixture, BatchSizeMismatchesAreRejected) {
  hbrp::rp::ProjectionScratch scratch;
  const std::size_t k = projector->coefficients();
  const std::span<const hbrp::dsp::Sample> windows(ds.samples);
  std::vector<std::int32_t> u(ds.size() * k);
  // Output span too small for the count.
  EXPECT_THROW(projector->project_int_batch(windows, ds.size(),
                                            {u.data(), k}, scratch),
               hbrp::Error);
  // Window span not a multiple of the expected window.
  EXPECT_THROW(projector->project_int_batch(windows.subspan(1), ds.size(), u,
                                            scratch),
               hbrp::Error);
}

TEST_F(EngineFixture, EvaluateParallelIdenticalToSerial) {
  const auto data = hbrp::core::project_dataset(ds, *projector);
  const Executor executor(4);
  for (const double alpha : {0.0, 0.05, 0.3}) {
    const auto serial = hbrp::core::evaluate(*nfc, data, alpha);
    const auto parallel = hbrp::core::evaluate(*nfc, data, alpha, &executor);
    EXPECT_EQ(serial.ndr(), parallel.ndr());
    EXPECT_EQ(serial.arr(), parallel.arr());
  }
}

// evaluate_embedded's classify_batch sweeps, serial and parallel, against
// the plainest reference: one classify_window call per beat.
TEST_F(EngineFixture, EvaluateEmbeddedBatchAndParallelIdenticalToLegacy) {
  hbrp::core::ConfusionMatrix legacy;
  hbrp::embedded::ClassifyScratch scratch;
  for (std::size_t i = 0; i < ds.size(); ++i)
    legacy.add(ds.labels[i], bundle->classify_window(ds.window(i), scratch));
  const auto batched = hbrp::core::evaluate_embedded(*bundle, ds);
  const Executor executor(4);
  const auto parallel = hbrp::core::evaluate_embedded(*bundle, ds, &executor);
  for (const auto* cm : {&batched, &parallel})
    for (std::size_t t = 0; t < hbrp::ecg::kNumClasses; ++t)
      for (std::size_t p = 0; p <= hbrp::ecg::kNumClasses; ++p) {
        const auto truth = static_cast<hbrp::ecg::BeatClass>(t);
        const auto predicted = static_cast<hbrp::ecg::BeatClass>(p);
        ASSERT_EQ(cm->count(truth, predicted), legacy.count(truth, predicted))
            << "truth " << t << " predicted " << p;
      }
  EXPECT_EQ(legacy.total(), ds.size());
}

// The trainer's double-typed data: every row is the dense double-typed
// projection of the beat's downsampled window.
TEST_F(EngineFixture, ProjectDatasetRowsAreTheDenseFloatProjection) {
  const auto a = hbrp::core::project_dataset(ds, *projector);
  ASSERT_EQ(a.u.rows(), ds.size());
  EXPECT_EQ(a.labels, ds.labels);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const hbrp::dsp::Signal window(ds.window(i).begin(), ds.window(i).end());
    const hbrp::dsp::Signal down =
        hbrp::dsp::downsample_avg(window, projector->downsample_factor());
    const std::vector<double> x(down.begin(), down.end());
    const auto ref = projector->matrix().apply(std::span<const double>(x));
    for (std::size_t c = 0; c < ref.size(); ++c)
      ASSERT_EQ(a.u.at(i, c), ref[c]) << "beat " << i;
  }
}

}  // namespace
