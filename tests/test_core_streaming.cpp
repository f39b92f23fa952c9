// Tests for the streaming beat monitor: agreement with the batch pipeline,
// chunk-boundary behaviour, memory/latency bounds.
#include <gtest/gtest.h>

#include <limits>

#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "math/check.hpp"

namespace {

using hbrp::core::MonitorBeat;
using hbrp::core::MonitorConfig;
using hbrp::core::PendingBeat;
using hbrp::core::PendingBeatSink;
using hbrp::core::StreamingBeatMonitor;

// A sink that classifies each surrendered window with `classifier`, as a
// node does, and appends the beat to `out`.
PendingBeatSink classify_into(
    const hbrp::embedded::EmbeddedClassifier& classifier,
    std::vector<MonitorBeat>& out) {
  return [&classifier, &out, scratch = hbrp::embedded::ClassifyScratch{}](
             const PendingBeat& pb) mutable {
    MonitorBeat beat = pb.beat;
    if (pb.needs_classification)
      beat.predicted = classifier.classify_window(pb.window, scratch);
    out.push_back(beat);
  };
}

class StreamingMonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hbrp::ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 81;
    const auto ts1 = hbrp::ecg::build_dataset({150, 150, 150}, cfg);
    cfg.max_per_record_per_class = 80;
    cfg.seed = 82;
    const auto ts2 = hbrp::ecg::build_dataset({1200, 120, 150}, cfg);
    hbrp::core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 8;
    const hbrp::core::TwoStepTrainer trainer(ts1, ts2, tcfg);
    bundle_ = new hbrp::embedded::EmbeddedClassifier(trainer.run().quantize());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static std::vector<MonitorBeat> run_monitor(const hbrp::dsp::Signal& lead,
                                              const MonitorConfig& cfg = {}) {
    StreamingBeatMonitor monitor(*bundle_, cfg);
    std::vector<MonitorBeat> beats;
    const PendingBeatSink sink = classify_into(*bundle_, beats);
    for (const auto x : lead) monitor.push(x, sink);
    monitor.flush(sink);
    return beats;
  }

  static const hbrp::embedded::EmbeddedClassifier* bundle_;
};

const hbrp::embedded::EmbeddedClassifier* StreamingMonitorTest::bundle_ =
    nullptr;

hbrp::ecg::Record monitor_record(std::uint64_t seed, double seconds = 60.0) {
  hbrp::ecg::SynthConfig cfg;
  cfg.profile = hbrp::ecg::RecordProfile::PvcOccasional;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  return hbrp::ecg::generate_record(cfg);
}

TEST_F(StreamingMonitorTest, AgreesWithBatchPipeline) {
  const auto rec = monitor_record(1);
  const auto streaming = run_monitor(rec.leads[0]);

  hbrp::core::PipelineConfig pcfg;
  const hbrp::core::RealTimePipeline pipeline(*bundle_, pcfg);
  const auto batch = pipeline.process(rec);

  // Every batch beat away from the record borders must appear in the
  // streaming output with the same classification.
  std::size_t matched = 0, compared = 0;
  for (const auto& b : batch.beats) {
    if (b.r_peak < 1000 || b.r_peak + 1000 > rec.leads[0].size()) continue;
    ++compared;
    for (const auto& s : streaming) {
      if (s.r_peak + 5 >= b.r_peak && s.r_peak <= b.r_peak + 5) {
        if (s.predicted == b.predicted) ++matched;
        break;
      }
    }
  }
  ASSERT_GT(compared, 30u);
  EXPECT_GE(static_cast<double>(matched) / static_cast<double>(compared),
            0.97);
}

TEST_F(StreamingMonitorTest, NoDuplicatesAcrossChunks) {
  const auto rec = monitor_record(2, 90.0);
  const auto beats = run_monitor(rec.leads[0]);
  for (std::size_t i = 1; i < beats.size(); ++i)
    EXPECT_GT(beats[i].r_peak, beats[i - 1].r_peak + 30)
        << "duplicate or out-of-order beat at " << i;
}

TEST_F(StreamingMonitorTest, BeatCountTracksAnnotations) {
  const auto rec = monitor_record(3, 90.0);
  const auto beats = run_monitor(rec.leads[0]);
  EXPECT_GT(beats.size(), rec.beats.size() * 85 / 100);
  EXPECT_LT(beats.size(), rec.beats.size() * 108 / 100);
}

TEST_F(StreamingMonitorTest, MemoryBoundWellUnderIcyHeartRam) {
  const StreamingBeatMonitor monitor(*bundle_);
  // Samples are int32 in this model; even so the per-monitor state (rolling
  // buffer, conditioner history and pending batch) must sit far below the
  // 96 KB of the SoC. The figure leaves out the per-thread
  // kernels::DspWorkspace the monitor borrows for conditioning and
  // detection, ~145 KB at this configuration, which alone exceeds the SoC's
  // RAM. test_footprint measures the heap a monitor really holds.
  EXPECT_LT(monitor.memory_samples() * sizeof(hbrp::dsp::Sample),
            48u * 1024u);
}

TEST_F(StreamingMonitorTest, LatencyBounded) {
  const StreamingBeatMonitor monitor(*bundle_);
  // Conditioner delay plus one chunk: ~8.6 s at the default config.
  EXPECT_LT(monitor.latency(), static_cast<std::size_t>(10 * 360));
}

TEST_F(StreamingMonitorTest, ConfigValidation) {
  MonitorConfig cfg;
  cfg.window_before = 10;  // mismatched geometry
  EXPECT_THROW(StreamingBeatMonitor(*bundle_, cfg), hbrp::Error);

  cfg = {};
  cfg.overlap_s = 0.3;  // shorter than a beat window
  EXPECT_THROW(StreamingBeatMonitor(*bundle_, cfg), hbrp::Error);

  cfg = {};
  cfg.chunk_s = 3.0;  // chunk must exceed twice the overlap
  EXPECT_THROW(StreamingBeatMonitor(*bundle_, cfg), hbrp::Error);
}

TEST_F(StreamingMonitorTest, FlushFinalizesTailBeats) {
  // A record shorter than one chunk: nothing is emitted until flush.
  const auto rec = monitor_record(4, 6.0);
  StreamingBeatMonitor monitor(*bundle_);
  std::vector<MonitorBeat> beats;
  const PendingBeatSink sink = classify_into(*bundle_, beats);
  for (const auto x : rec.leads[0]) monitor.push(x, sink);
  EXPECT_EQ(beats.size(), 0u);
  monitor.flush(sink);
  EXPECT_GT(beats.size(), 3u);
}

TEST_F(StreamingMonitorTest, FlushOnEmptyMonitorIsSafeAndEmpty) {
  StreamingBeatMonitor monitor(*bundle_);
  std::vector<MonitorBeat> beats;
  const PendingBeatSink sink = classify_into(*bundle_, beats);
  monitor.flush(sink);
  monitor.flush(sink);  // idempotent
  EXPECT_TRUE(beats.empty());
  // A handful of samples (far less than one beat window) also yields none.
  for (int i = 0; i < 10; ++i) monitor.push(1024, sink);
  monitor.flush(sink);
  EXPECT_TRUE(beats.empty());
  // And the monitor is still usable afterwards.
  const auto rec = monitor_record(6, 30.0);
  for (const auto x : rec.leads[0]) monitor.push(x, sink);
  monitor.flush(sink);
  EXPECT_GT(beats.size(), 15u);
}

TEST_F(StreamingMonitorTest, FlushRightAfterChunkSlideLosesNothing) {
  // Feed exactly up to the first chunk scan, flush immediately, and check
  // the combined output against an uninterrupted run of the same prefix:
  // beats straddling the freshly-slid overlap region must be reported
  // exactly once.
  const auto rec = monitor_record(7, 60.0);
  StreamingBeatMonitor probe(*bundle_);

  // Find the sample index at which the first scan fires.
  std::vector<MonitorBeat> probed;
  const PendingBeatSink probe_sink = classify_into(*bundle_, probed);
  std::size_t first_scan_end = 0;
  for (std::size_t i = 0; i < rec.leads[0].size(); ++i) {
    probe.push(rec.leads[0][i], probe_sink);
    if (!probed.empty()) {
      first_scan_end = i + 1;
      break;
    }
  }
  ASSERT_GT(first_scan_end, 0u) << "record never filled a chunk";

  StreamingBeatMonitor monitor(*bundle_);
  std::vector<MonitorBeat> interrupted;
  const PendingBeatSink sink = classify_into(*bundle_, interrupted);
  for (std::size_t i = 0; i < first_scan_end; ++i)
    monitor.push(rec.leads[0][i], sink);
  monitor.flush(sink);

  // Nothing double-reported across the slide...
  for (std::size_t i = 1; i < interrupted.size(); ++i)
    EXPECT_GT(interrupted[i].r_peak, interrupted[i - 1].r_peak + 30)
        << "duplicate across slide+flush at " << i;
  // ...nothing beyond the data fed...
  for (const auto& b : interrupted) EXPECT_LT(b.r_peak, first_scan_end);
  // ...and nothing lost: every beat the full-record run reports well
  // inside the prefix must also be reported by the interrupted run.
  const auto full = run_monitor(rec.leads[0]);
  std::size_t expected = 0, found = 0;
  for (const auto& b : full) {
    if (b.r_peak + 400 >= first_scan_end) continue;
    ++expected;
    for (const auto& other : interrupted)
      if (other.r_peak + 5 >= b.r_peak && other.r_peak <= b.r_peak + 5) {
        ++found;
        break;
      }
  }
  ASSERT_GT(expected, 5u);
  EXPECT_EQ(found, expected);
}

TEST_F(StreamingMonitorTest, BeatsStraddlingOverlapAgreeAcrossChunkSizes) {
  // Different chunk lengths place the overlap regions at different spots;
  // any beat lost or duplicated at a boundary shows up as a disagreement
  // between the two runs.
  const auto rec = monitor_record(8, 60.0);
  MonitorConfig small_chunks;
  small_chunks.chunk_s = 5.5;
  const auto a = run_monitor(rec.leads[0]);
  const auto b = run_monitor(rec.leads[0], small_chunks);

  EXPECT_LE(a.size() > b.size() ? a.size() - b.size() : b.size() - a.size(),
            1u);
  std::size_t matched = 0;
  for (const auto& beat : a)
    for (const auto& other : b)
      if (other.r_peak + 5 >= beat.r_peak &&
          other.r_peak <= beat.r_peak + 5) {
        matched += other.predicted == beat.predicted;
        break;
      }
  ASSERT_GT(a.size(), 40u);
  EXPECT_GE(matched + 1, a.size());
}

TEST_F(StreamingMonitorTest, StatsCountSanitizedInputs) {
  // The monitor takes codes; out-of-rail ones are clamped and counted.
  // (The double-to-code rule is dsp::sanitize_sample's: SanitizeSample.*.)
  StreamingBeatMonitor monitor(*bundle_);
  const PendingBeatSink sink = [](const PendingBeat&) {};
  monitor.push(4000, sink);   // clamped high
  monitor.push(-4000, sink);  // clamped low
  monitor.push(std::numeric_limits<hbrp::dsp::Sample>::max(), sink);
  monitor.push(1024, sink);   // fine
  monitor.push(0, sink);      // on the rail: fine
  monitor.push(2047, sink);   // on the rail: fine
  monitor.push(2048, sink);   // one past the rail: clamped
  const auto& stats = monitor.stats();
  EXPECT_EQ(stats.samples_in, 7u);
  EXPECT_EQ(stats.clamped, 4u);
  // Stats survive flush(); the quality machine resets.
  monitor.flush(sink);
  EXPECT_EQ(monitor.stats().samples_in, 7u);
  EXPECT_EQ(monitor.quality(), hbrp::dsp::SignalQuality::Good);
}

TEST_F(StreamingMonitorTest, ReusableAfterFlush) {
  const auto rec = monitor_record(5, 30.0);
  StreamingBeatMonitor monitor(*bundle_);
  auto run_once = [&]() {
    std::vector<MonitorBeat> beats;
    const PendingBeatSink sink = classify_into(*bundle_, beats);
    for (const auto x : rec.leads[0]) monitor.push(x, sink);
    monitor.flush(sink);
    return beats;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].r_peak, second[i].r_peak);
    EXPECT_EQ(first[i].predicted, second[i].predicted);
  }
}

}  // namespace
