// Firmware-style streaming demo: one ADC sample in, classified beats out.
//
// Shows the bounded-memory path a WBSN firmware would take — the
// StreamingBeatMonitor wraps the streaming conditioner and chunked wavelet
// peak detection, and the integer classifier labels each beat window it
// surrenders — and prints the beats as they are finalized, with the
// monitor's memory/latency budget up front.
//
// Usage: streaming_demo [seconds] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"

int main(int argc, char** argv) {
  using namespace hbrp;
  const double seconds = argc > 1 ? std::atof(argv[1]) : 30.0;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 7;

  std::printf("Training classifier (reduced GA)...\n");
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 180.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 91;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 100;
  dcfg.seed = 92;
  const auto ts2 = ecg::build_dataset({3000, 270, 330}, dcfg);
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 10;
  tcfg.ga.generations = 8;
  tcfg.seed = 93;
  const core::TwoStepTrainer trainer(ts1, ts2, tcfg);
  const embedded::EmbeddedClassifier classifier = trainer.run().quantize();
  core::StreamingBeatMonitor monitor(classifier);

  std::printf("monitor: %zu samples of per-monitor state (%.1f KB; DSP "
              "scratch is per thread), latency <= %.1f s\n\n",
              monitor.memory_samples(),
              static_cast<double>(monitor.memory_samples() *
                                  sizeof(dsp::Sample)) /
                  1024.0,
              static_cast<double>(monitor.latency()) / 360.0);

  ecg::SynthConfig scfg;
  scfg.profile = ecg::RecordProfile::PvcBigeminy;
  scfg.duration_s = seconds;
  scfg.num_leads = 1;
  scfg.seed = seed;
  const auto rec = ecg::generate_record(scfg);

  std::printf("streaming %.0f s of ECG, one sample at a time...\n", seconds);
  std::size_t flagged = 0, total = 0;
  embedded::ClassifyScratch scratch;
  const core::PendingBeatSink report = [&](const core::PendingBeat& pb) {
    const ecg::BeatClass predicted =
        pb.needs_classification ? classifier.classify_window(pb.window, scratch)
                                : pb.beat.predicted;
    ++total;
    if (ecg::is_pathological(predicted)) ++flagged;
    std::printf("  t=%7.2fs  beat #%3zu  -> %s%s\n",
                static_cast<double>(pb.beat.r_peak) / 360.0, total,
                to_string(predicted),
                ecg::is_pathological(predicted)
                    ? "  [detailed analysis triggered]"
                    : "");
  };
  for (const auto x : rec.leads[0]) monitor.push(x, report);
  monitor.flush(report);

  std::printf("\n%zu beats, %zu flagged (%.1f%%); record had %zu annotated "
              "beats\n",
              total, flagged,
              total ? 100.0 * static_cast<double>(flagged) /
                          static_cast<double>(total)
                    : 0.0,
              rec.beats.size());
  return 0;
}
