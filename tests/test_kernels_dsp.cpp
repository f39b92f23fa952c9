// Block-vs-sample equivalence gates for the SoA DSP front-end
// (src/kernels/dsp_condition / dsp_wavelet / dsp_peaks).
//
// The refactor's contract is bit-identity: every block kernel must produce
// exactly the output of the per-sample / batch operator it replaces, for any
// input length and any block partition, on both dispatch targets. These
// suites are run twice by scripts/ci.sh — once under the normal dispatcher
// and once with HBRP_FORCE_SCALAR=1 — so a divergence in either code path
// fails CI, not just on AVX2 hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <tuple>
#include <vector>

#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "dsp/morphology.hpp"
#include "dsp/peak_detect.hpp"
#include "dsp/wavelet.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "kernels/cpu.hpp"
#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"
#include "kernels/dsp_wavelet.hpp"
#include "math/check.hpp"
#include "math/rng.hpp"
#include "testing/fault_inject.hpp"

namespace {

using namespace hbrp;

// Lengths straddling every structural edge: empty, shorter than the noise
// element, shorter than the morphology elements, exactly the conditioner
// delay (224 for the default config), one past it, twice it, and long.
const std::size_t kEdgeLengths[] = {0, 1, 2, 5, 70, 223, 224, 448, 449, 1000};

dsp::Signal random_signal(std::size_t n, std::uint64_t seed) {
  dsp::Signal x(n);
  math::Rng rng(seed);
  for (auto& v : x) v = static_cast<int>(rng.uniform_int(-2048, 2047));
  return x;
}

dsp::Signal conditioned_record(ecg::RecordProfile profile, std::uint64_t seed,
                               double seconds = 60.0) {
  ecg::SynthConfig cfg;
  cfg.profile = profile;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  return dsp::condition_ecg(ecg::generate_record(cfg).leads[0]);
}

// --- condition_ecg_block vs dsp::condition_ecg -----------------------------

TEST(KernelsDspCondition, BlockMatchesBatchOperatorAcrossLengths) {
  kernels::ConditionScratch scratch;  // reused: stale state must not leak
  dsp::Signal out;
  for (const std::size_t n : kEdgeLengths) {
    const auto x = random_signal(n, 100 + n);
    kernels::condition_ecg_block(x, dsp::FilterConfig{}, scratch, out);
    EXPECT_EQ(out, dsp::condition_ecg(x)) << "length " << n;
  }
}

TEST(KernelsDspCondition, BlockMatchesBatchOperatorForRateConfigs) {
  kernels::ConditionScratch scratch;
  dsp::Signal out;
  for (const int fs : {250, 360, 500}) {
    const auto cfg = dsp::FilterConfig::for_rate(fs);
    const auto x = random_signal(2000, 7 + static_cast<std::uint64_t>(fs));
    kernels::condition_ecg_block(x, cfg, scratch, out);
    EXPECT_EQ(out, dsp::condition_ecg(x, cfg)) << "fs " << fs;
  }
}

TEST(KernelsDspCondition, ErodeDilateBlocksMatchOperators) {
  kernels::ConditionScratch scratch;
  dsp::Signal out;
  const auto x = random_signal(777, 3);
  for (const std::size_t len : {3u, 71u, 151u}) {
    kernels::erode_block(x, len, scratch, out);
    EXPECT_EQ(out, dsp::erode(x, len)) << "erode len " << len;
    kernels::dilate_block(x, len, scratch, out);
    EXPECT_EQ(out, dsp::dilate(x, len)) << "dilate len " << len;
  }
}

TEST(KernelsDspCondition, ScalarAndAvx2AreBitIdentical) {
#if HBRP_KERNELS_X86
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  kernels::ConditionScratch s1, s2;
  dsp::Signal a, b;
  for (const std::size_t n : kEdgeLengths) {
    const auto x = random_signal(n, 500 + n);
    kernels::condition_ecg_block_scalar(x, dsp::FilterConfig{}, s1, a);
    kernels::condition_ecg_block_avx2(x, dsp::FilterConfig{}, s2, b);
    EXPECT_EQ(a, b) << "length " << n;
  }
#else
  GTEST_SKIP() << "x86-only comparison";
#endif
}

// Every block extremum equals the batch operator for lengths from the
// 1-tap pass-through and the direct 3-tap pass up to the baseline elements.
class ExtremumEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExtremumEquivalence, MatchesBatchOperator) {
  const auto [len, seed] = GetParam();
  const auto length = static_cast<std::size_t>(len);
  const auto x = random_signal(400, static_cast<std::uint64_t>(seed));
  kernels::ConditionScratch scratch;
  dsp::Signal out;
  kernels::erode_block(x, length, scratch, out);
  EXPECT_EQ(out, dsp::erode(x, length));
  kernels::dilate_block(x, length, scratch, out);
  EXPECT_EQ(out, dsp::dilate(x, length));
}

INSTANTIATE_TEST_SUITE_P(
    LengthsAndSeeds, ExtremumEquivalence,
    ::testing::Combine(::testing::Values(1, 3, 5, 9, 71, 151),
                       ::testing::Values(1, 2, 3)));

// --- BlockConditioner vs dsp::condition_ecg --------------------------------

// Feeds `x` to a BlockConditioner chopped into random pieces with a random
// mix of push / push_block / mid-stream sync calls, then flush_tail; the
// result must equal the batch dsp::condition_ecg(x) on every sample,
// borders included. Rates from 128 Hz (1-tap noise element) to 1000 Hz
// (636-sample delay) and lengths from the edge list (all output from
// flush_tail when n <= delay) up to 5000 samples.
TEST(KernelsDspConditioner, MatchesBatchConditionerUnderRandomPartitions) {
  const int rates[] = {128, 250, 360, 500, 1000};
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    math::Rng rng(900 + trial);
    const int fs = rates[trial % std::size(rates)];
    const auto cfg = dsp::FilterConfig::for_rate(fs);
    const std::size_t n =
        trial < std::size(kEdgeLengths)
            ? kEdgeLengths[trial]
            : static_cast<std::size_t>(rng.uniform_int(1, 5000));
    const auto x = random_signal(n, 40 + trial);
    const dsp::Signal expected = dsp::condition_ecg(x, cfg);

    kernels::BlockConditioner block(cfg);
    dsp::Signal got;
    std::size_t i = 0;
    while (i < n) {
      const int action = static_cast<int>(rng.uniform_int(0, 3));
      if (action == 0) {
        block.push(x[i++], got);
      } else if (action == 1) {
        const auto take = std::min<std::size_t>(
            n - i, static_cast<std::size_t>(rng.uniform_int(1, 700)));
        block.push_block(std::span<const dsp::Sample>(x.data() + i, take),
                         got);
        i += take;
      } else {
        block.sync(got);
      }
    }
    block.flush_tail(got);
    EXPECT_EQ(got, expected) << "trial " << trial << " fs " << fs << " n "
                             << n;
  }
}

TEST(KernelsDspConditioner, ReusableAfterFlushTail) {
  kernels::BlockConditioner block;
  const auto x = random_signal(1500, 77);
  dsp::Signal first, second;
  block.push_block(std::span<const dsp::Sample>(x), first);
  block.flush_tail(first);
  block.push_block(std::span<const dsp::Sample>(x), second);
  block.flush_tail(second);
  EXPECT_EQ(first, second);

  dsp::Signal after_reset;
  block.push_block(std::span<const dsp::Sample>(x.data(), 700), after_reset);
  block.reset();  // drop mid-stream state entirely
  after_reset.clear();
  block.push_block(std::span<const dsp::Sample>(x), after_reset);
  block.flush_tail(after_reset);
  EXPECT_EQ(after_reset, first);
}

TEST(KernelsDspConditioner, DelayAndMemoryContract) {
  const dsp::FilterConfig cfg;
  kernels::BlockConditioner block(cfg);
  // The group delay is the summed half-widths of the chain's stages.
  EXPECT_EQ(block.delay(), (cfg.baseline_open_len - 1) +
                               (cfg.baseline_close_len - 1) +
                               2 * (cfg.noise_len - 1));
  EXPECT_EQ(block.delay(), 224u);
  EXPECT_GT(block.batch_slack(), 0u);
  // The monitor budgets this figure; it must bound history + pending.
  EXPECT_EQ(block.memory_samples(), 2 * block.delay() + 256);

  // After sync() exactly inputs - delay() outputs are out, and they are
  // already final: the batch conditioner's output over the whole record
  // (20 s of synthetic ECG).
  ecg::SynthConfig scfg;
  scfg.duration_s = 20.0;
  scfg.num_leads = 1;
  scfg.seed = 12;
  const dsp::Signal x = ecg::generate_record(scfg).leads[0];
  const dsp::Signal expected = dsp::condition_ecg(x, cfg);
  dsp::Signal got;
  std::size_t pushed = 0;
  for (const std::size_t upto : {std::size_t{100}, std::size_t{224},
                                 std::size_t{225}, std::size_t{600},
                                 x.size()}) {
    block.push_block(
        std::span<const dsp::Sample>(x.data() + pushed, upto - pushed), got);
    pushed = upto;
    block.sync(got);
    ASSERT_EQ(got.size(), upto > block.delay() ? upto - block.delay() : 0)
        << "after " << upto << " inputs";
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()))
        << "after " << upto << " inputs";
  }
  block.flush_tail(got);
  EXPECT_EQ(got, expected);

  // An opening element no shorter than the closing one is rejected, as
  // the batch chain rejects it.
  kernels::ConditionScratch scratch;
  dsp::Signal out;
  for (const std::size_t open_len : {71u, 151u}) {
    dsp::FilterConfig bad;
    bad.baseline_open_len = open_len;
    bad.baseline_close_len = 71;
    EXPECT_THROW(kernels::BlockConditioner{bad}, hbrp::Error)
        << "open " << open_len;
    EXPECT_THROW(kernels::condition_ecg_block(x, bad, scratch, out),
                 hbrp::Error)
        << "open " << open_len;
  }
}

// --- wavelet_decompose_block vs dsp::wavelet_decompose ---------------------

TEST(KernelsDspWavelet, BlockMatchesBatchAcrossLengthsAndScales) {
  kernels::WaveletScratch scratch;
  dsp::WaveletDecomposition out;
  for (const std::size_t n : {0u, 1u, 2u, 7u, 15u, 100u, 1000u, 10800u}) {
    const auto x = random_signal(n, 60 + n);
    for (std::size_t scales = 1; scales <= dsp::kWaveletScales; ++scales) {
      kernels::wavelet_decompose_block(x, scales, scratch, out);
      const auto ref = dsp::wavelet_decompose(x, scales);
      for (std::size_t j = 0; j < dsp::kWaveletScales; ++j)
        EXPECT_EQ(out.detail[j], ref.detail[j])
            << "n " << n << " scales " << scales << " detail " << j;
      EXPECT_EQ(out.approx, ref.approx) << "n " << n << " scales " << scales;
    }
  }
}

TEST(KernelsDspWavelet, ScalarAndAvx2AreBitIdentical) {
#if HBRP_KERNELS_X86
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  kernels::WaveletScratch s1, s2;
  dsp::WaveletDecomposition a, b;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    math::Rng rng(300 + trial);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 5000));
    const auto x = random_signal(n, 800 + trial);
    kernels::wavelet_decompose_block_scalar(x, dsp::kWaveletScales, s1, a);
    kernels::wavelet_decompose_block_avx2(x, dsp::kWaveletScales, s2, b);
    for (std::size_t j = 0; j < dsp::kWaveletScales; ++j)
      EXPECT_EQ(a.detail[j], b.detail[j]) << "trial " << trial;
    EXPECT_EQ(a.approx, b.approx) << "trial " << trial;
  }
#else
  GTEST_SKIP() << "x86-only comparison";
#endif
}

// --- detect_r_peaks_block vs dsp::detect_r_peaks ---------------------------

TEST(KernelsDspPeaks, BlockDetectorMatchesReferenceOnRecords) {
  const ecg::RecordProfile profiles[] = {
      ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
      ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};
  kernels::PeakScratch scratch;  // reused across records on purpose
  std::vector<std::size_t> peaks;
  for (const auto profile : profiles) {
    for (const std::uint64_t seed : {11u, 12u}) {
      const auto sig = conditioned_record(profile, seed);
      kernels::detect_r_peaks_block(sig, dsp::PeakDetectorConfig{}, scratch,
                                    peaks);
      EXPECT_EQ(peaks, dsp::detect_r_peaks(sig))
          << "profile " << static_cast<int>(profile) << " seed " << seed;
    }
  }
}

TEST(KernelsDspPeaks, BlockDetectorHandlesDegenerateInputs) {
  kernels::PeakScratch scratch;
  std::vector<std::size_t> peaks;
  for (const std::size_t n : {0u, 1u, 5u, 64u}) {
    const dsp::Signal flat(n, 0);
    kernels::detect_r_peaks_block(flat, dsp::PeakDetectorConfig{}, scratch,
                                  peaks);
    EXPECT_EQ(peaks, dsp::detect_r_peaks(flat)) << "flat n " << n;
  }
}

TEST(KernelsDspPeaks, AdaptiveDetectorRespectsRefractoryAndOrdering) {
  const auto sig = conditioned_record(ecg::RecordProfile::NormalSinus, 21);
  dsp::PeakDetectorConfig cfg;
  cfg.kind = dsp::PeakDetectorKind::AdaptiveThreshold;
  kernels::PeakScratch scratch;
  std::vector<std::size_t> peaks;
  kernels::detect_r_peaks_kind(sig, cfg, scratch, peaks);
  ASSERT_FALSE(peaks.empty());
  const auto refractory =
      static_cast<std::size_t>(cfg.refractory_s * cfg.fs_hz);
  for (std::size_t i = 1; i < peaks.size(); ++i) {
    EXPECT_LT(peaks[i - 1], peaks[i]);
    EXPECT_GE(peaks[i] - peaks[i - 1], refractory);
  }
  // 60 s of clean 75 bpm sinus: the fast path must see roughly every beat.
  EXPECT_GE(peaks.size(), 60u);
  EXPECT_LE(peaks.size(), 110u);
}

TEST(KernelsDspPeaks, KindDispatchSelectsDetector) {
  const auto sig = conditioned_record(ecg::RecordProfile::PvcOccasional, 5);
  kernels::PeakScratch scratch;
  std::vector<std::size_t> by_kind, direct;
  dsp::PeakDetectorConfig cfg;  // kind defaults to Wavelet
  kernels::detect_r_peaks_kind(sig, cfg, scratch, by_kind);
  kernels::detect_r_peaks_block(sig, cfg, scratch, direct);
  EXPECT_EQ(by_kind, direct);
  cfg.kind = dsp::PeakDetectorKind::AdaptiveThreshold;
  kernels::detect_r_peaks_kind(sig, cfg, scratch, by_kind);
  kernels::detect_r_peaks_adaptive(sig, cfg, scratch, direct);
  EXPECT_EQ(by_kind, direct);
}

// --- StreamingBeatMonitor: push_block vs per-sample push -------------------

class KernelsDspMonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 81;
    const auto ts1 = ecg::build_dataset({150, 150, 150}, cfg);
    cfg.max_per_record_per_class = 80;
    cfg.seed = 82;
    const auto ts2 = ecg::build_dataset({1200, 120, 150}, cfg);
    core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 8;
    const core::TwoStepTrainer trainer(ts1, ts2, tcfg);
    bundle_ = new embedded::EmbeddedClassifier(trainer.run().quantize());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }
  static const embedded::EmbeddedClassifier* bundle_;
};

const embedded::EmbeddedClassifier* KernelsDspMonitorTest::bundle_ = nullptr;

// The faulted double stream exercises the sanitizer, the SQI state machine
// and the conditioner resets together; the beat stream must not depend on
// how the caller batches samples.
TEST_F(KernelsDspMonitorTest, PushBlockMatchesPerSampleUnderFaults) {
  ecg::SynthConfig scfg;
  scfg.profile = ecg::RecordProfile::PvcOccasional;
  scfg.duration_s = 90.0;
  scfg.num_leads = 1;
  scfg.seed = 2026;
  const auto rec = ecg::generate_record(scfg);
  const auto& lead = rec.leads[0];
  const auto fs = static_cast<std::size_t>(rec.fs_hz);

  const auto make_stream = [&] {
    hbrp::testing::FaultInjectorConfig fcfg;
    fcfg.seed = 99;
    fcfg.events = {
        {hbrp::testing::FaultKind::LeadOff, lead.size() / 4, 6 * fs, 0.0, 0.0},
        {hbrp::testing::FaultKind::Saturation, lead.size() / 2, 4 * fs, 0.0, 0.0},
        {hbrp::testing::FaultKind::NonFinite, 3 * lead.size() / 4, 2 * fs, 0.0,
         0.25},
    };
    hbrp::testing::FaultInjector injector(fcfg);
    std::vector<double> stream;
    for (const auto x : lead)
      for (const double y : injector.feed(x)) stream.push_back(y);
    return stream;
  };
  const auto stream = make_stream();

  struct Seen {
    std::size_t r_peak;
    ecg::BeatClass predicted;
    dsp::SignalQuality quality;
    bool operator==(const Seen&) const = default;
  };
  const auto run = [&](auto&& feed) {
    core::StreamingBeatMonitor monitor(*bundle_);
    std::vector<Seen> seen;
    const core::BeatSink sink = [&](const core::MonitorBeat& b) {
      seen.push_back({b.r_peak, b.predicted, b.quality});
    };
    feed(monitor, sink);
    monitor.flush(sink);
    return seen;
  };

  const auto per_sample =
      run([&](core::StreamingBeatMonitor& m, const core::BeatSink& sink) {
        for (const double x : stream) m.push(x, sink);
      });
  ASSERT_FALSE(per_sample.empty());

  // Fixed large blocks, tiny blocks, and randomly ragged blocks must all
  // reproduce the per-sample beat stream exactly.
  for (const std::uint64_t mode : {0u, 1u, 2u}) {
    const auto blocked = run([&](core::StreamingBeatMonitor& m,
                                 const core::BeatSink& sink) {
      math::Rng rng(55 + mode);
      std::size_t i = 0;
      while (i < stream.size()) {
        std::size_t take = mode == 0   ? 1024
                           : mode == 1 ? 3
                                       : static_cast<std::size_t>(
                                             rng.uniform_int(1, 2000));
        take = std::min(take, stream.size() - i);
        m.push_block(std::span<const double>(stream.data() + i, take), sink);
        i += take;
      }
    });
    EXPECT_EQ(blocked, per_sample) << "mode " << mode;
  }
}

}  // namespace
