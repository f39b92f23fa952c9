// Simulated ambulatory (Holter) monitoring session.
//
// Streams several multi-lead records — different synthetic "patients" with
// different rhythm profiles — through the complete WBSN pipeline (system
// (3) of the paper's Fig. 6), reporting per-record classification, gated
// delineation activity, and the modelled duty cycle / node power on the
// IcyHeart platform. A final segment replays one patient through the
// fault-tolerant streaming monitor with injected acquisition faults
// (lead-off, saturation, NaN bursts) to show the signal-quality gating and
// recovery behaviour a real ambulatory session depends on.
//
// Usage: holter_monitor [minutes-per-record] [detector] [--seed=N]
//   minutes-per-record: default 5
//   detector: "wavelet" (default) or "adaptive" — selects the R-peak
//             detector the streaming monitor runs (dsp::PeakDetectorKind).
//   --seed=N: base seed for the synthetic patient records (default 1000;
//             patient i streams from N+i, the fault replay from N+1000).
//             The trained model's seeds are fixed — only the simulated
//             patients change.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "platform/energy.hpp"
#include "testing/fault_inject.hpp"

namespace {

const char* profile_name(hbrp::ecg::RecordProfile p) {
  using hbrp::ecg::RecordProfile;
  switch (p) {
    case RecordProfile::NormalSinus: return "normal sinus";
    case RecordProfile::PvcOccasional: return "occasional PVC";
    case RecordProfile::PvcBigeminy: return "PVC bigeminy";
    case RecordProfile::Lbbb: return "LBBB";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbrp;
  double minutes = 5.0;
  std::uint64_t seed_base = 1000;
  dsp::PeakDetectorKind detector = dsp::PeakDetectorKind::Wavelet;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed_base = static_cast<std::uint64_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr,
                   "unknown flag '%s'\n"
                   "usage: holter_monitor [minutes] [detector] [--seed=N]\n",
                   argv[i]);
      return 1;
    } else if (positional == 0) {
      minutes = std::atof(argv[i]);
      ++positional;
    } else {
      if (std::strcmp(argv[i], "adaptive") == 0)
        detector = dsp::PeakDetectorKind::AdaptiveThreshold;
      ++positional;
    }
  }
  std::printf("R-peak detector: %s\n",
              detector == dsp::PeakDetectorKind::Wavelet ? "wavelet"
                                                         : "adaptive");

  // Train once (reduced GA keeps the example snappy).
  std::printf("Training classifier...\n");
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 180.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 31;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 100;
  dcfg.seed = 32;
  const auto ts2 = ecg::build_dataset({2500, 220, 280}, dcfg);
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 8;
  tcfg.ga.generations = 6;
  tcfg.seed = 33;
  const core::TwoStepTrainer trainer(ts1, ts2, tcfg);
  const auto trained = trainer.run();
  core::PipelineConfig pipe_cfg;
  pipe_cfg.peak.kind = detector;
  const core::RealTimePipeline pipeline(trained.quantize(), pipe_cfg);

  const ecg::RecordProfile profiles[] = {
      ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
      ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};

  const platform::KernelCosts costs(platform::CycleModel{}, 360);
  const platform::IcyHeartSpec soc;
  const platform::PowerModel power;
  const platform::PayloadModel payload;

  std::printf("\n%-16s %7s %9s %11s %8s %11s\n", "patient profile", "beats",
              "flagged", "delineated", "duty", "node power");
  double session_flagged = 0.0, session_beats = 0.0;
  for (std::size_t i = 0; i < std::size(profiles); ++i) {
    ecg::SynthConfig scfg;
    scfg.profile = profiles[i];
    scfg.duration_s = minutes * 60.0;
    scfg.seed = seed_base + i;
    const auto rec = ecg::generate_record(scfg);
    const auto result = pipeline.process(rec);

    platform::ScenarioParams scenario;
    scenario.beat_rate_hz =
        static_cast<double>(result.beats.size()) / rec.duration_s();
    scenario.flagged_fraction = result.flagged_fraction();
    const double duty =
        platform::load_system3(costs, scenario).duty_cycle(soc);
    const auto energy =
        platform::energy_proposed(costs, scenario, soc, power, payload);

    std::size_t delineated = 0;
    for (const auto& b : result.beats) delineated += b.delineated;
    std::printf("%-16s %7zu %8.1f%% %11zu %8.3f %9.0f uW\n",
                profile_name(profiles[i]), result.beats.size(),
                100.0 * result.flagged_fraction(), delineated, duty,
                1e6 * energy.total_w());
    session_flagged += static_cast<double>(result.flagged_count());
    session_beats += static_cast<double>(result.beats.size());
  }
  std::printf("\nsession: %.0f beats, %.1f%% routed to detailed analysis\n",
              session_beats, 100.0 * session_flagged / session_beats);

  // --- fault-tolerance demo: a patient with a flaky electrode ------------
  std::printf("\nFault-injection replay (occasional PVC patient):\n");
  ecg::SynthConfig scfg;
  scfg.profile = ecg::RecordProfile::PvcOccasional;
  scfg.duration_s = minutes * 60.0;
  scfg.num_leads = 1;
  scfg.seed = seed_base + 1000;
  const auto rec = ecg::generate_record(scfg);
  const auto& lead = rec.leads[0];

  const int fs = rec.fs_hz;
  const auto n = lead.size();
  testing::FaultInjectorConfig fcfg;
  fcfg.seed = 99;
  fcfg.events = {
      // 20%: electrode detaches for 8 s.
      {testing::FaultKind::LeadOff, n / 5, static_cast<std::size_t>(8 * fs),
       0.0, 0.0},
      // 50%: front-end saturates for 5 s.
      {testing::FaultKind::Saturation, n / 2,
       static_cast<std::size_t>(5 * fs), 0.0, 0.0},
      // 75%: two seconds of NaN garbage from the driver layer.
      {testing::FaultKind::NonFinite, 3 * n / 4,
       static_cast<std::size_t>(2 * fs), 0.0, 0.25},
  };

  core::MonitorConfig mon_cfg;
  mon_cfg.peak.kind = detector;
  core::StreamingBeatMonitor monitor(trained.quantize(), mon_cfg);
  std::size_t beats_total = 0, beats_suspect = 0;
  testing::FaultInjector injector(fcfg);
  // Beats stream straight into the sink as they finalize — no per-sample
  // result vectors on the monitoring loop. This replay only counts beats
  // and their quality, so it leaves the windows unclassified.
  const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
    ++beats_total;
    beats_suspect += pb.beat.quality == dsp::SignalQuality::Suspect;
  };
  // The fault injector mangles sample-by-sample, like the front end would,
  // and hands up doubles (NaN included). They become ADC codes here, at the
  // edge, by the one boundary rule: a non-finite value repeats the held
  // code, anything else is clamped to the rails and rounded. The codes
  // replay in ADC-DMA-sized blocks through the monitor's block entry point.
  std::vector<dsp::Sample> block;
  constexpr std::size_t kBlock = 1024;
  dsp::Sample hold = dsp::mid_rail(mon_cfg.quality);
  std::size_t nonfinite = 0, clamped_at_edge = 0;
  for (const auto x : lead) {
    for (const double y : injector.feed(x)) {
      dsp::SampleFix fix = dsp::SampleFix::None;
      block.push_back(dsp::sanitize_sample(y, mon_cfg.quality, hold, fix));
      nonfinite += fix == dsp::SampleFix::Held;
      clamped_at_edge += fix == dsp::SampleFix::Clamped;
    }
    if (block.size() >= kBlock) {
      monitor.push_block(block, sink);
      block.clear();
    }
  }
  monitor.push_block(block, sink);
  monitor.flush(sink);
  const auto& stats = monitor.stats();  // cumulative: survives flush()

  std::printf(
      "  %zu beats (%zu escalated to Unknown under suspect signal)\n"
      "  %zu samples suppressed in bad-signal state, %zu degradations, "
      "%zu recoveries\n"
      "  %zu non-finite samples rejected, %zu out-of-range clamped\n",
      beats_total, beats_suspect, stats.bad_signal_samples,
      stats.degradations, stats.recoveries, nonfinite,
      clamped_at_edge + stats.clamped);
  return 0;
}
