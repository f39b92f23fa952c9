// Fault-injection robustness suite (the monitor under realistic
// acquisition failures): lead-off and saturation windows must produce no
// beats, the beat stream must recover to the clean-signal sequence after
// the fault ends, clean-segment classifications must be untouched by the
// gating, and non-finite / garbage input must be absorbed and counted.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "math/check.hpp"
#include "testing/fault_inject.hpp"

namespace {

using hbrp::core::MonitorBeat;
using hbrp::core::MonitorConfig;
using hbrp::core::PendingBeat;
using hbrp::core::PendingBeatSink;
using hbrp::core::StreamingBeatMonitor;
using hbrp::dsp::SignalQuality;
using hbrp::testing::FaultEvent;
using hbrp::testing::FaultInjector;
using hbrp::testing::FaultInjectorConfig;
using hbrp::testing::FaultKind;

constexpr int kFs = hbrp::dsp::kMitBihFs;

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hbrp::ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 61;
    const auto ts1 = hbrp::ecg::build_dataset({150, 150, 150}, cfg);
    cfg.max_per_record_per_class = 80;
    cfg.seed = 62;
    const auto ts2 = hbrp::ecg::build_dataset({1200, 120, 150}, cfg);
    hbrp::core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 6;
    const hbrp::core::TwoStepTrainer trainer(ts1, ts2, tcfg);
    bundle_ = new hbrp::embedded::EmbeddedClassifier(trainer.run().quantize());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static hbrp::dsp::Signal clean_lead(std::uint64_t seed, double seconds) {
    hbrp::ecg::SynthConfig cfg;
    cfg.profile = hbrp::ecg::RecordProfile::PvcOccasional;
    cfg.duration_s = seconds;
    cfg.num_leads = 1;
    cfg.seed = seed;
    return hbrp::ecg::generate_record(cfg).leads[0];
  }

  // The injector's doubles as ADC codes, converted at the edge by the one
  // boundary rule; `held` (optional) counts the non-finite values it held.
  static hbrp::dsp::Signal edge_codes(const std::vector<double>& xs,
                                      std::size_t* held = nullptr) {
    const hbrp::dsp::QualityConfig rails = MonitorConfig{}.quality;
    hbrp::dsp::Signal codes;
    hbrp::dsp::Sample hold = hbrp::dsp::mid_rail(rails);
    for (const double x : xs) {
      hbrp::dsp::SampleFix fix = hbrp::dsp::SampleFix::None;
      codes.push_back(hbrp::dsp::sanitize_sample(x, rails, hold, fix));
      if (held != nullptr && fix == hbrp::dsp::SampleFix::Held) ++*held;
    }
    return codes;
  }

  // Feeds `lead` and flushes, classifying each surrendered window as a
  // node does.
  static std::vector<MonitorBeat> run(StreamingBeatMonitor& monitor,
                                      const hbrp::dsp::Signal& lead) {
    std::vector<MonitorBeat> beats;
    hbrp::embedded::ClassifyScratch scratch;
    const PendingBeatSink sink = [&](const PendingBeat& pb) {
      MonitorBeat beat = pb.beat;
      if (pb.needs_classification)
        beat.predicted = bundle_->classify_window(pb.window, scratch);
      beats.push_back(beat);
    };
    for (const auto x : lead) monitor.push(x, sink);
    monitor.flush(sink);
    return beats;
  }

  static bool has_match(const std::vector<MonitorBeat>& beats,
                        std::size_t r_peak, std::size_t tolerance = 5) {
    for (const auto& b : beats)
      if (b.r_peak + tolerance >= r_peak && b.r_peak <= r_peak + tolerance)
        return true;
    return false;
  }

  static const hbrp::embedded::EmbeddedClassifier* bundle_;
};

const hbrp::embedded::EmbeddedClassifier* FaultInjectionTest::bundle_ =
    nullptr;

// --- injector unit behaviour ---------------------------------------------

TEST_F(FaultInjectionTest, InjectorIsDeterministicAndShapedRight) {
  const auto lead = clean_lead(21, 10.0);
  FaultInjectorConfig cfg;
  cfg.seed = 42;
  cfg.events = {
      {FaultKind::LeadOff, 1000, 500, 0.0, 0.0},
      {FaultKind::DropSamples, 2000, 100, 0.0, 0.0},
      {FaultKind::DupSamples, 3000, 100, 0.0, 0.0},
      {FaultKind::GaussianNoise, 400, 200, 40.0, 0.0},
  };
  const auto a = FaultInjector::apply(lead, cfg);
  const auto b = FaultInjector::apply(lead, cfg);
  EXPECT_EQ(a, b);  // bit-reproducible
  // 100 dropped, 100 duplicated: net length unchanged.
  EXPECT_EQ(a.size(), lead.size());
  // Lead-off window is exactly constant.
  for (std::size_t i = 1100; i < 1400; ++i) EXPECT_EQ(a[i], 0.0);
  // Outside every event the stream is untouched (drop/dup cancel by 3000).
  for (std::size_t i = 0; i < 400; ++i)
    EXPECT_EQ(a[i], static_cast<double>(lead[i]));
}

TEST_F(FaultInjectionTest, InjectorEmitsNonFinite) {
  const auto lead = clean_lead(22, 5.0);
  FaultInjectorConfig cfg;
  cfg.events = {{FaultKind::NonFinite, 100, 1000, 0.0, 0.2}};
  const auto out = FaultInjector::apply(lead, cfg);
  std::size_t non_finite = 0;
  for (const double v : out) non_finite += !std::isfinite(v);
  EXPECT_GT(non_finite, 100u);
  EXPECT_LT(non_finite, 400u);
}

// --- the acceptance scenario: lead-off + saturation ----------------------

TEST_F(FaultInjectionTest, LeadOffAndSaturationAreGatedAndRecovered) {
  const double seconds = 90.0;
  const auto lead = clean_lead(23, seconds);

  // Fault window [30 s, 40 s): five seconds of detached electrode, then
  // five seconds of railed front-end.
  const std::size_t f_start = 30 * kFs, f_mid = 35 * kFs, f_end = 40 * kFs;
  FaultInjectorConfig fcfg;
  fcfg.seed = 7;
  fcfg.events = {
      {FaultKind::LeadOff, f_start, f_mid - f_start, 0.0, 0.0},
      {FaultKind::Saturation, f_mid, f_end - f_mid, 0.0, 0.0},
  };
  const auto faulted = FaultInjector::apply(lead, fcfg);
  ASSERT_EQ(faulted.size(), lead.size());

  StreamingBeatMonitor gated(*bundle_);
  // (a) must not crash
  const auto fault_beats = run(gated, edge_codes(faulted));

  StreamingBeatMonitor reference(*bundle_);
  const auto clean_beats = run(reference, lead);

  // (a) No beats inside the fault window. One SQI chunk (0.5 s) of grace
  // at the head covers the detection latency of the degradation machine;
  // inside that grace the monitor is not yet in BadSignal.
  const std::size_t qchunk = static_cast<std::size_t>(0.5 * kFs);
  for (const auto& b : fault_beats) {
    EXPECT_FALSE(b.r_peak >= f_start + qchunk && b.r_peak < f_end)
        << "beat emitted at " << b.r_peak << " inside the fault window";
    EXPECT_NE(b.quality, SignalQuality::Bad);
  }
  EXPECT_GE(gated.stats().degradations, 1u);
  EXPECT_GE(gated.stats().recoveries, 1u);
  EXPECT_GT(gated.stats().bad_signal_samples, 5u * kFs);

  // (b) Recovery: after the fault ends, the machine needs 2x2 clean SQI
  // chunks (2 s) to walk Bad -> Suspect -> Good plus the conditioner
  // warm-up; from 44 s on, the clean-signal beat sequence must reappear
  // with at most one beat missing.
  const std::size_t recovered_from = 44 * kFs;
  std::size_t expected = 0, found = 0;
  for (const auto& b : clean_beats) {
    if (b.r_peak < recovered_from) continue;
    ++expected;
    found += has_match(fault_beats, b.r_peak);
  }
  ASSERT_GT(expected, 40u);
  EXPECT_GE(found + 1, expected);

  // (c) Clean segments are untouched: beats comfortably before the fault
  // match the clean run in position *and* label.
  const std::size_t pre_fault = f_start - 2 * kFs;
  std::size_t pre_expected = 0, pre_matched = 0;
  for (const auto& b : clean_beats) {
    if (b.r_peak >= pre_fault) continue;
    ++pre_expected;
    for (const auto& f : fault_beats)
      if (f.r_peak + 5 >= b.r_peak && f.r_peak <= b.r_peak + 5) {
        pre_matched += f.predicted == b.predicted;
        break;
      }
  }
  ASSERT_GT(pre_expected, 20u);
  EXPECT_GE(pre_matched + 1, pre_expected);
}

TEST_F(FaultInjectionTest, GatingIsTransparentOnCleanSignal) {
  // Acceptance (c), strongest form: on clean signal the gated monitor is
  // bit-identical to the un-gated one — same beats, same labels.
  const auto lead = clean_lead(24, 60.0);

  MonitorConfig ungated_cfg;
  ungated_cfg.quality_gating = false;
  StreamingBeatMonitor gated(*bundle_);
  StreamingBeatMonitor ungated(*bundle_, ungated_cfg);

  const auto a = run(gated, lead);
  const auto b = run(ungated, lead);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].r_peak, b[i].r_peak);
    EXPECT_EQ(a[i].predicted, b[i].predicted);
    EXPECT_EQ(a[i].quality, SignalQuality::Good);
  }
  EXPECT_EQ(gated.stats().degradations, 0u);
  EXPECT_EQ(gated.stats().suspect_beats, 0u);
}

TEST_F(FaultInjectionTest, NonFiniteBurstIsRejectedAndCounted) {
  const auto lead = clean_lead(25, 30.0);
  FaultInjectorConfig fcfg;
  fcfg.seed = 9;
  fcfg.events = {{FaultKind::NonFinite, 10 * kFs, 2 * kFs, 0.0, 0.3}};
  const auto faulted = FaultInjector::apply(lead, fcfg);

  std::size_t held = 0;
  const auto codes = edge_codes(faulted, &held);
  EXPECT_GT(held, 100u);
  StreamingBeatMonitor monitor(*bundle_);
  const auto beats = run(monitor, codes);  // must not throw
  EXPECT_EQ(monitor.stats().samples_in, faulted.size());
  EXPECT_GT(beats.size(), 20u);  // the record is still monitored
}

TEST_F(FaultInjectionTest, ImpulseBurstEscalatesToUnknown) {
  auto lead = clean_lead(26, 60.0);
  FaultInjectorConfig fcfg;
  fcfg.seed = 11;
  fcfg.events = {{FaultKind::ImpulseNoise, 20 * kFs, 10 * kFs, 900.0, 0.08}};
  const auto faulted = FaultInjector::apply(lead, fcfg);

  StreamingBeatMonitor monitor(*bundle_);
  const auto beats = run(monitor, edge_codes(faulted));
  // Beats inside the burst that were detected at all must carry the
  // Suspect tag and the safe-default Unknown class (=> pathological, so
  // the node escalates to full delineation instead of guessing).
  std::size_t suspect = 0;
  for (const auto& b : beats)
    if (b.quality == SignalQuality::Suspect) {
      EXPECT_EQ(b.predicted, hbrp::ecg::BeatClass::Unknown);
      EXPECT_TRUE(hbrp::ecg::is_pathological(b.predicted));
      ++suspect;
    }
  EXPECT_GT(suspect, 0u);
  EXPECT_EQ(monitor.stats().suspect_beats, suspect);
}

TEST_F(FaultInjectionTest, DropAndDupGlitchesDoNotCrashOrDesync) {
  const auto lead = clean_lead(27, 45.0);
  FaultInjectorConfig fcfg;
  fcfg.seed = 13;
  fcfg.events = {
      {FaultKind::DropSamples, 10 * kFs, kFs / 2, 0.0, 0.0},
      {FaultKind::DupSamples, 25 * kFs, kFs / 2, 0.0, 0.0},
  };
  const auto faulted = FaultInjector::apply(lead, fcfg);

  StreamingBeatMonitor monitor(*bundle_);
  const auto beats = run(monitor, edge_codes(faulted));
  // Monotone, de-duplicated output stream survives timeline glitches.
  for (std::size_t i = 1; i < beats.size(); ++i)
    EXPECT_GT(beats[i].r_peak, beats[i - 1].r_peak + 30);
  EXPECT_GT(beats.size(), 30u);
}

TEST_F(FaultInjectionTest, GarbageIntSamplesAreClampedAndCounted) {
  StreamingBeatMonitor monitor(*bundle_);
  const PendingBeatSink sink = [](const PendingBeat&) {};
  monitor.push(std::numeric_limits<hbrp::dsp::Sample>::max(), sink);
  monitor.push(std::numeric_limits<hbrp::dsp::Sample>::min(), sink);
  monitor.push(-1, sink);
  monitor.push(5000, sink);
  monitor.push(1024, sink);
  EXPECT_EQ(monitor.stats().samples_in, 5u);
  EXPECT_EQ(monitor.stats().clamped, 4u);
  // Still functional afterwards.
  const auto lead = clean_lead(28, 20.0);
  StreamingBeatMonitor fresh(*bundle_);
  EXPECT_GT(run(fresh, lead).size(), 10u);
}

TEST(BurstTrain, GeneratesBoundedSeededBursts) {
  std::vector<FaultEvent> events;
  hbrp::math::Rng rng(77);
  hbrp::testing::append_burst_train(events, rng, FaultKind::LeadOff,
                                    /*start=*/1000, /*span=*/36000,
                                    /*count=*/5, /*min_len=*/180,
                                    /*max_len=*/720, /*magnitude=*/10.0);
  ASSERT_EQ(events.size(), 5u);
  for (const FaultEvent& e : events) {
    EXPECT_EQ(e.kind, FaultKind::LeadOff);
    EXPECT_GE(e.start, 1000u);
    EXPECT_LE(e.start + e.duration, 1000u + 36000u);
    EXPECT_GE(e.duration, 180u);
    EXPECT_LE(e.duration, 720u);
    EXPECT_DOUBLE_EQ(e.magnitude, 10.0);
  }
  // Same seed, same schedule — the property the scenario engine leans on.
  std::vector<FaultEvent> again;
  hbrp::math::Rng rng2(77);
  hbrp::testing::append_burst_train(again, rng2, FaultKind::LeadOff, 1000,
                                    36000, 5, 180, 720, 10.0);
  ASSERT_EQ(again.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(again[i].start, events[i].start);
    EXPECT_EQ(again[i].duration, events[i].duration);
  }
}

}  // namespace
