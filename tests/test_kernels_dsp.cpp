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
#include <exception>
#include <iterator>
#include <latch>
#include <limits>
#include <span>
#include <thread>
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

#include "golden_records.hpp"

namespace {

using namespace hbrp;

// Lengths straddling every structural edge: empty, shorter than the noise
// element, shorter than the morphology elements, exactly the conditioner
// delay (224 for the default config), one past it, twice it, and long.
const std::size_t kEdgeLengths[] = {0, 1, 2, 5, 70, 223, 224, 448, 449, 1000};

// Codes from the contract's range by default; the scalar/AVX2 identity
// tests also draw from the whole int16 range.
dsp::Signal random_signal(std::size_t n, std::uint64_t seed,
                          std::int64_t lo = dsp::kMinCode,
                          std::int64_t hi = dsp::kMaxCode) {
  dsp::Signal x(n);
  math::Rng rng(seed);
  for (auto& v : x) v = static_cast<dsp::Sample>(rng.uniform_int(lo, hi));
  return x;
}

constexpr std::int64_t kInt16Min = std::numeric_limits<dsp::Sample>::min();
constexpr std::int64_t kInt16Max = std::numeric_limits<dsp::Sample>::max();

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
    // Beyond the contract a subtraction wraps mod 2^16 on both paths, and
    // the rounded average must not overflow on either.
    for (const auto& x : {random_signal(n, 500 + n),
                          random_signal(n, 600 + n, kInt16Min, kInt16Max)}) {
      kernels::condition_ecg_block_scalar(x, dsp::FilterConfig{}, s1, a);
      kernels::condition_ecg_block_avx2(x, dsp::FilterConfig{}, s2, b);
      EXPECT_EQ(a, b) << "length " << n;
    }
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
    // Odd trials draw from the whole int16 range, where the lowpass and
    // the details wrap mod 2^16 on both paths.
    const auto x = trial % 2 == 0
                       ? random_signal(n, 800 + trial)
                       : random_signal(n, 800 + trial, kInt16Min, kInt16Max);
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

// Full-scale square waves between the ends of the code range. With high
// plateaus shorter than the baseline's opening element, the baseline sits
// on the bottom code and the conditioned signal spans [0, 4095]; with only
// the low plateaus short, it sits on the top code and spans [-4095, 0]. The
// first lowpass then reaches the accumulator bounds of dsp/signal.hpp,
// 8 * 4,095 + 4 and its negative twin. The reference chain accumulates in
// int64, so equality with it shows nothing wraps; scalar and AVX2 must agree.
TEST(KernelsDspWavelet, FullScaleSquareWaveReachesAccumulatorBoundExactly) {
  const std::size_t plateaus[][2] = {{20, 20}, {100, 20}};  // {high, low}
  for (const auto& [high, low] : plateaus) {
    dsp::Signal x(4000);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = i % (high + low) < high ? dsp::kMaxCode : dsp::kMinCode;
    kernels::ConditionScratch cs;
    dsp::Signal c;
    kernels::condition_ecg_block_scalar(x, dsp::FilterConfig{}, cs, c);
    EXPECT_EQ(c, dsp::condition_ecg(x)) << "high " << high;
    const auto [lo, hi] = std::minmax_element(c.begin(), c.end());
    EXPECT_EQ(std::max<int>(*hi, -*lo), dsp::kMaxConditioned)
        << "high " << high;

    kernels::WaveletScratch ws;
    dsp::WaveletDecomposition a;
    kernels::wavelet_decompose_block_scalar(c, dsp::kWaveletScales, ws, a);
    const auto ref = dsp::wavelet_decompose(c, dsp::kWaveletScales);
    for (std::size_t j = 0; j < dsp::kWaveletScales; ++j)
      EXPECT_EQ(a.detail[j], ref.detail[j]) << "high " << high << " j " << j;
    EXPECT_EQ(a.approx, ref.approx) << "high " << high;
#if HBRP_KERNELS_X86
    if (!kernels::cpu_supports_avx2()) continue;
    dsp::Signal c2;
    kernels::condition_ecg_block_avx2(x, dsp::FilterConfig{}, cs, c2);
    EXPECT_EQ(c2, c) << "high " << high;
    dsp::WaveletDecomposition b;
    kernels::wavelet_decompose_block_avx2(c, dsp::kWaveletScales, ws, b);
    for (std::size_t j = 0; j < dsp::kWaveletScales; ++j)
      EXPECT_EQ(b.detail[j], a.detail[j]) << "high " << high << " j " << j;
    EXPECT_EQ(b.approx, a.approx) << "high " << high;
#endif
  }
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

// --- golden digests of the block kernels -----------------------------------

// From the dispatched kernels, per profile: the conditioned record, its four
// wavelet details and approximation, and the detector's peaks. Computed by
// the code before the adaptive detector was deleted, with its peaks left
// out; they hold for any dispatch target (scripts/ci.sh also runs them
// forced scalar).
TEST(KernelsDspGolden, BlockKernelOutputDigestIsPinned) {
  const std::uint64_t pinned[] = {0x30d0ffe28f950bf3ull, 0xca000ea3ef193d73ull,
                                  0xa5927043e6633186ull, 0x2781a65d3966ff6eull};
  kernels::ConditionScratch cs;
  kernels::WaveletScratch ws;
  kernels::PeakScratch ps;
  dsp::Signal conditioned;
  dsp::WaveletDecomposition wd;
  std::vector<std::size_t> peaks;
  for (std::size_t p = 0; p < std::size(golden::kProfiles); ++p) {
    const dsp::Signal x = golden::record(golden::kProfiles[p]);
    golden::Digest d;
    kernels::condition_ecg_block(x, dsp::FilterConfig{}, cs, conditioned);
    d.samples(conditioned);
    kernels::wavelet_decompose_block(conditioned, dsp::kWaveletScales, ws, wd);
    for (const dsp::Signal& detail : wd.detail) d.samples(detail);
    d.samples(wd.approx);
    kernels::detect_r_peaks_block(conditioned, dsp::PeakDetectorConfig{}, ps,
                                  peaks);
    d.word(static_cast<std::uint32_t>(peaks.size()));
    for (const std::size_t r : peaks) d.word(static_cast<std::uint32_t>(r));
    EXPECT_EQ(d.value(), pinned[p]) << "profile " << p << std::hex << " got 0x"
                                    << d.value();
  }
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
    // The injector's doubles become codes at the edge, as a driver's do.
    return dsp::sanitize_lead(hbrp::testing::FaultInjector::apply(lead, fcfg),
                              core::MonitorConfig{}.quality);
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
    embedded::ClassifyScratch scratch;
    const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
      const ecg::BeatClass predicted =
          pb.needs_classification
              ? bundle_->classify_window(pb.window, scratch)
              : pb.beat.predicted;
      seen.push_back({pb.beat.r_peak, predicted, pb.beat.quality});
    };
    feed(monitor, sink);
    monitor.flush(sink);
    return seen;
  };

  const auto per_sample = run(
      [&](core::StreamingBeatMonitor& m, const core::PendingBeatSink& sink) {
        for (const dsp::Sample x : stream) m.push(x, sink);
      });
  ASSERT_FALSE(per_sample.empty());

  // Fixed large blocks, tiny blocks, and randomly ragged blocks must all
  // reproduce the per-sample beat stream exactly.
  for (const std::uint64_t mode : {0u, 1u, 2u}) {
    const auto blocked = run([&](core::StreamingBeatMonitor& m,
                                 const core::PendingBeatSink& sink) {
      math::Rng rng(55 + mode);
      std::size_t i = 0;
      while (i < stream.size()) {
        std::size_t take = mode == 0   ? 1024
                           : mode == 1 ? 3
                                       : static_cast<std::size_t>(
                                             rng.uniform_int(1, 2000));
        take = std::min(take, stream.size() - i);
        m.push_block(std::span<const dsp::Sample>(stream.data() + i, take),
                     sink);
        i += take;
      }
    });
    EXPECT_EQ(blocked, per_sample) << "mode " << mode;
  }
}


// --- Per-thread DSP workspace: streams that share it stay isolated --------
//
// Every BlockConditioner and StreamingBeatMonitor on a thread conditions and
// detects in that thread's kernels::DspWorkspace. Interleaving differently
// configured streams packet by packet on one thread (and then over two
// threads) must not change a single output: nothing may survive in the
// workspace from one call to the next.

// Steps every unfinished run once per round until all are done.
template <typename Run>
void interleave(const std::vector<Run*>& runs) {
  for (bool any = true; any;) {
    any = false;
    for (Run* r : runs) {
      if (r->done()) continue;
      r->step();
      any = true;
    }
  }
}

// interleave() with the runs dealt over two threads by index parity; both
// threads start together so their runs overlap in time.
template <typename Run>
void interleave_on_two_threads(std::vector<Run>& runs) {
  std::vector<Run*> even, odd;
  for (std::size_t i = 0; i < runs.size(); ++i)
    (i % 2 == 0 ? even : odd).push_back(&runs[i]);
  std::latch start(2);
  std::exception_ptr worker_error;
  {
    std::jthread worker([&] {
      start.arrive_and_wait();
      try {
        interleave(odd);
      } catch (...) {
        worker_error = std::current_exception();
      }
    });
    start.arrive_and_wait();
    interleave(even);
  }
  if (worker_error) std::rethrow_exception(worker_error);
}

// One conditioner fed a random push / push_block / sync mix; flush_tail runs
// once after `flush_at` samples and again at the end, so its output must be
// condition_ecg() of each of the two segments, concatenated.
class ConditionerRun {
 public:
  ConditionerRun(const dsp::FilterConfig& cfg, dsp::Signal input,
                 std::size_t flush_at, std::size_t max_block,
                 std::uint64_t seed)
      : cfg_(cfg),
        input_(std::move(input)),
        flush_at_(flush_at),
        max_block_(max_block),
        seed_(seed),
        block_(cfg),
        rng_(seed) {}

  bool done() const { return finished_; }

  void step() {
    const std::size_t before = pos_;
    const std::size_t stop = pos_ < flush_at_ ? flush_at_ : input_.size();
    const int action = static_cast<int>(rng_.uniform_int(0, 3));
    if (action == 0) {
      block_.push(input_[pos_++], got_);
    } else if (action == 1) {
      const auto most = static_cast<std::int64_t>(max_block_);
      const auto take = std::min<std::size_t>(
          stop - pos_, static_cast<std::size_t>(rng_.uniform_int(1, most)));
      block_.push_block(
          std::span<const dsp::Sample>(input_.data() + pos_, take), got_);
      pos_ += take;
    } else {
      block_.sync(got_);
    }
    finished_ = pos_ == input_.size();
    if ((before < flush_at_ && pos_ == flush_at_) || finished_)
      block_.flush_tail(got_);
  }

  dsp::Signal expected() const {
    const auto mid = input_.begin() + static_cast<std::ptrdiff_t>(flush_at_);
    dsp::Signal out =
        dsp::condition_ecg(dsp::Signal(input_.begin(), mid), cfg_);
    const dsp::Signal tail =
        dsp::condition_ecg(dsp::Signal(mid, input_.end()), cfg_);
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  }

  const dsp::Signal& got() const { return got_; }

  // The same run from the start, for a second layout.
  ConditionerRun fresh() const {
    return {cfg_, input_, flush_at_, max_block_, seed_};
  }

 private:
  dsp::FilterConfig cfg_;
  dsp::Signal input_;
  std::size_t flush_at_;
  std::size_t max_block_;
  std::uint64_t seed_;
  kernels::BlockConditioner block_;
  math::Rng rng_;
  std::size_t pos_ = 0;
  bool finished_ = false;
  dsp::Signal got_;
};

std::vector<ConditionerRun> conditioner_runs() {
  dsp::FilterConfig custom;
  custom.baseline_open_len = 91;
  custom.baseline_close_len = 201;
  custom.noise_len = 5;
  ecg::SynthConfig scfg;
  scfg.duration_s = 60.0;
  scfg.num_leads = 1;
  scfg.seed = 14;
  std::vector<ConditionerRun> runs;
  // Different element lengths (delays 66..636 samples), inputs and block
  // sizes; the 4000-sample blocks grow the shared workspace well past what
  // the others need, the 8-sample ones keep it barely used. Long enough
  // that the two-thread layout really runs concurrently.
  runs.emplace_back(dsp::FilterConfig{}, ecg::generate_record(scfg).leads[0],
                    3001, 512, 1);
  runs.emplace_back(dsp::FilterConfig::for_rate(128), random_signal(20000, 2),
                    2500, 8, 2);
  runs.emplace_back(dsp::FilterConfig::for_rate(1000), random_signal(40000, 3),
                    40000, 4000, 3);
  runs.emplace_back(custom, random_signal(30000, 4), 12345, 700, 4);
  runs.emplace_back(dsp::FilterConfig::for_rate(250), random_signal(300, 5),
                    100, 64, 5);
  return runs;
}

TEST(KernelsDspWorkspace, InterleavedConditionersMatchBatch) {
  std::vector<ConditionerRun> runs = conditioner_runs();
  std::vector<ConditionerRun*> all;
  for (ConditionerRun& r : runs) all.push_back(&r);
  interleave(all);
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].got(), runs[i].expected()) << "conditioner " << i;

  std::vector<ConditionerRun> split;
  for (const ConditionerRun& r : runs) split.push_back(r.fresh());
  interleave_on_two_threads(split);
  for (std::size_t i = 0; i < split.size(); ++i)
    EXPECT_EQ(split[i].got(), split[i].expected())
        << "conditioner " << i << " on two threads";
}

// One monitor fed fixed-size packets, optionally flushed once mid-stream
// and always flushed at the end; records every beat it reports, with its
// class and a hash of its surrendered window.
struct MonitorSpec {
  core::MonitorConfig cfg;
  dsp::Signal input;
  std::size_t packet = 512;
  std::size_t flush_at = 0;  // 0: only the final flush
};

struct SeenBeat {
  std::size_t r_peak = 0;
  ecg::BeatClass predicted = ecg::BeatClass::N;
  dsp::SignalQuality quality = dsp::SignalQuality::Good;
  std::uint64_t window_hash = 0;
  bool operator==(const SeenBeat&) const = default;
};

class MonitorRun {
 public:
  MonitorRun(const embedded::EmbeddedClassifier& clf, const MonitorSpec& spec)
      : clf_(&clf), spec_(&spec), monitor_(clf, spec.cfg) {}

  bool done() const { return pos_ == spec_->input.size(); }

  void step() {
    const auto take = std::min(spec_->packet, spec_->input.size() - pos_);
    const std::span<const dsp::Sample> xs(spec_->input.data() + pos_, take);
    const core::PendingBeatSink sink = [this](const core::PendingBeat& pb) {
      on_beat(pb);
    };
    monitor_.push_block(xs, sink);
    const std::size_t before = pos_;
    pos_ += take;
    const bool mid = before < spec_->flush_at && pos_ >= spec_->flush_at;
    if (mid || done()) monitor_.flush(sink);
  }

  const std::vector<SeenBeat>& seen() const { return seen_; }

 private:
  void on_beat(const core::PendingBeat& pb) {
    std::uint64_t hash = pb.needs_classification ? 1 : 0;
    for (const dsp::Sample x : pb.window)
      hash = hash * 31 + static_cast<std::uint64_t>(x);
    const ecg::BeatClass predicted =
        pb.needs_classification ? clf_->classify_window(pb.window, scratch_)
                                : pb.beat.predicted;
    seen_.push_back({pb.beat.r_peak, predicted, pb.beat.quality, hash});
  }

  const embedded::EmbeddedClassifier* clf_;
  const MonitorSpec* spec_;
  core::StreamingBeatMonitor monitor_;
  embedded::ClassifyScratch scratch_;
  std::size_t pos_ = 0;
  std::vector<SeenBeat> seen_;
};

dsp::Signal synth_input(ecg::RecordProfile profile, std::uint64_t seed,
                        bool faulted) {
  ecg::SynthConfig scfg;
  scfg.profile = profile;
  scfg.duration_s = 60.0;
  scfg.num_leads = 1;
  scfg.seed = seed;
  const dsp::Signal lead = ecg::generate_record(scfg).leads[0];
  if (!faulted) return lead;
  const std::size_t fs = dsp::kMitBihFs;
  hbrp::testing::FaultInjectorConfig fcfg;
  fcfg.seed = seed;
  fcfg.events = {
      {hbrp::testing::FaultKind::LeadOff, lead.size() / 3, 5 * fs, 0.0, 0.0},
      {hbrp::testing::FaultKind::NonFinite, 2 * lead.size() / 3, fs, 0.0, 0.3},
  };
  // The injector's doubles become codes at the edge, as a driver's do.
  return dsp::sanitize_lead(hbrp::testing::FaultInjector::apply(lead, fcfg),
                            core::MonitorConfig{}.quality);
}

std::vector<MonitorSpec> monitor_specs() {
  std::vector<MonitorSpec> specs(5);
  // Defaults, faulted input: lead-off re-arms the conditioner mid-stream.
  specs[0].input = synth_input(ecg::RecordProfile::PvcOccasional, 1, true);
  // Shorter chunk, small packets.
  specs[1].cfg.chunk_s = 5.0;
  specs[1].cfg.overlap_s = 2.0;
  specs[1].input = synth_input(ecg::RecordProfile::NormalSinus, 2, false);
  specs[1].packet = 100;
  // Longer chunk, no quality gating, flushed mid-stream.
  specs[2].cfg.chunk_s = 12.0;
  specs[2].cfg.overlap_s = 3.0;
  specs[2].cfg.quality_gating = false;
  specs[2].input = synth_input(ecg::RecordProfile::Lbbb, 3, true);
  specs[2].packet = 777;
  specs[2].flush_at = 10000;
  // 250 Hz element lengths (64-sample delay).
  specs[3].cfg.filter = dsp::FilterConfig::for_rate(250);
  specs[3].cfg.chunk_s = 6.0;
  specs[3].cfg.overlap_s = 2.5;
  specs[3].input = synth_input(ecg::RecordProfile::PvcBigeminy, 4, false);
  specs[3].packet = 64;
  // Longer custom elements, big packets.
  specs[4].cfg.filter.baseline_open_len = 91;
  specs[4].cfg.filter.baseline_close_len = 201;
  specs[4].cfg.filter.noise_len = 5;
  specs[4].input = synth_input(ecg::RecordProfile::PvcOccasional, 5, true);
  specs[4].packet = 2048;
  return specs;
}

TEST_F(KernelsDspMonitorTest, InterleavedMonitorsMatchSoloRuns) {
  const std::vector<MonitorSpec> specs = monitor_specs();
  std::vector<std::vector<SeenBeat>> solo;
  for (const MonitorSpec& spec : specs) {
    MonitorRun run(*bundle_, spec);
    interleave(std::vector<MonitorRun*>{&run});
    ASSERT_FALSE(run.seen().empty());
    solo.push_back(run.seen());
  }

  std::vector<MonitorRun> runs;
  for (const MonitorSpec& spec : specs) runs.emplace_back(*bundle_, spec);
  std::vector<MonitorRun*> all;
  for (MonitorRun& r : runs) all.push_back(&r);
  interleave(all);
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].seen(), solo[i]) << "monitor " << i;

  std::vector<MonitorRun> split;
  for (const MonitorSpec& spec : specs) split.emplace_back(*bundle_, spec);
  interleave_on_two_threads(split);
  for (std::size_t i = 0; i < split.size(); ++i)
    EXPECT_EQ(split[i].seen(), solo[i])
        << "monitor " << i << " on two threads";
}

}  // namespace
