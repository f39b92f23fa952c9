// Drift-tracker bench: the numbers behind the src/drift CI gate.
//
// Four measurements, all deterministic (fixed trainer config — seeds
// 311/312/313, same as bench_scenarios — and fixed scenario seeds):
//
//   cost       DriftTracker::observe() nanoseconds per beat on real
//              projections, plus the platform cycle model's charge for the
//              same update (platform::KernelCosts::drift_update_per_beat)
//              so the measured and modelled costs sit side by side;
//   latency    detection latency of the morphology_shift scenario as a
//              beats-from-episode-onset-to-alarm curve over shift
//              magnitudes — the headline "how many beats of a novel
//              morphology before the fleet hears about it";
//   falsealarm replay of every OTHER standard scenario (artefact storms,
//              electrode drops, VT, clock skew, ... plus the clean ward)
//              through the same tracker: none may alarm. The false-alarm
//              rate and the worst windowed score are recorded and gated;
//   identity   FleetEngine drift state digest, 1 thread/1 shard vs
//              4 threads/4 shards — must be bit-identical (exit 1).
//
// --quick trims the magnitude curve to {1.0} and the false-alarm sweep to
// its first three scenarios; the trainer config is NOT scaled, so quick
// numbers are comparable with the committed BENCH_drift.json baseline.
//
// Output: BENCH_drift.json (scripts/robustness_gate.py compares a fresh
// run against the committed baseline: detection latency must not regress,
// the false-alarm rate must stay zero, drift_identity is fatal).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "bench/common.hpp"
#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "drift/tracker.hpp"
#include "ecg/dataset.hpp"
#include "platform/cycles.hpp"
#include "platform/energy.hpp"
#include "scenario/episodes.hpp"
#include "service/fleet.hpp"

namespace {

using namespace hbrp;

constexpr double kDurationS = 90.0;
constexpr double kOnsetS = 20.0;
constexpr std::uint64_t kSeed = 9100;

struct Trained {
  embedded::EmbeddedClassifier classifier;
  std::shared_ptr<const drift::TrainingCentroids> centroids;
};

Trained train_fixed(std::size_t threads) {
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 180.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 311;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 100;
  dcfg.seed = 312;
  const auto ts2 = ecg::build_dataset({2500, 220, 280}, dcfg);
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 8;
  tcfg.ga.generations = 6;
  tcfg.seed = 313;
  tcfg.threads = threads;
  embedded::EmbeddedClassifier clf =
      core::TwoStepTrainer(ts1, ts2, tcfg).run().quantize();
  auto tc = std::make_shared<const drift::TrainingCentroids>(
      core::compute_training_centroids(clf, ts1));
  return {std::move(clf), std::move(tc)};
}

scenario::ScenarioSpec shift_spec(double magnitude) {
  scenario::ScenarioSpec spec;
  spec.name = "morphology_shift_bench";
  spec.seed = kSeed;
  spec.duration_s = kDurationS;
  spec.episodes.push_back({scenario::EpisodeKind::MorphologyShift, kOnsetS,
                           kDurationS - kOnsetS - 10.0, magnitude});
  return spec;
}

struct Replay {
  std::uint64_t beats = 0;
  std::uint64_t novel = 0;
  std::uint64_t alarms = 0;
  double max_score = 0.0;
  /// Beats observed from the first beat at/after the episode onset until
  /// the alarm first latched; -1 when the alarm never fired.
  std::ptrdiff_t detect_beats = -1;
};

/// Replays one scenario through a streaming monitor, classifying each
/// window and feeding its projection to a tracker as a node does, and
/// records alarm onset relative to `onset_s` (pass 0 for scenarios without
/// a shift episode).
Replay replay(const Trained& t, const scenario::ScenarioSpec& spec,
              double onset_s) {
  const auto stream = scenario::build_scenario(spec);
  core::StreamingBeatMonitor monitor(t.classifier);
  drift::DriftTracker tracker(*t.centroids);
  embedded::ClassifyScratch scratch;
  const auto onset_sample =
      static_cast<std::size_t>(onset_s * stream.fs_hz);
  Replay r;
  std::uint64_t beats_before_onset = 0;
  std::uint64_t alarm_beat = 0;
  const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
    // Suspect beats carry no projection and are not observed.
    if (pb.needs_classification) {
      const ecg::BeatClass verdict =
          t.classifier.classify_window(pb.window, scratch);
      tracker.observe(scratch.u, !ecg::is_pathological(verdict));
    }
    if (pb.beat.r_peak < onset_sample) beats_before_onset = tracker.beats();
    r.max_score = std::max(r.max_score, tracker.score());
    if (alarm_beat == 0 && tracker.alarm_active())
      alarm_beat = tracker.beats();
  };
  const auto codes =
      dsp::sanitize_lead(stream.samples, core::MonitorConfig{}.quality);
  monitor.push_block(codes, sink);
  monitor.flush(sink);
  r.beats = tracker.beats();
  r.novel = tracker.novel_beats();
  r.alarms = tracker.alarms();
  if (alarm_beat != 0)
    r.detect_beats =
        static_cast<std::ptrdiff_t>(alarm_beat - beats_before_onset);
  return r;
}

/// Harvests every classified projection of one scenario replay.
std::vector<std::int32_t> harvest_projections(const Trained& t,
                                              const scenario::ScenarioSpec& s,
                                              std::size_t k) {
  const auto stream = scenario::build_scenario(s);
  core::StreamingBeatMonitor monitor(t.classifier);
  embedded::ClassifyScratch scratch;
  std::vector<std::int32_t> us;
  const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
    if (!pb.needs_classification) return;
    (void)t.classifier.classify_window(pb.window, scratch);
    us.insert(us.end(), scratch.u.begin(), scratch.u.end());
  };
  const auto codes =
      dsp::sanitize_lead(stream.samples, core::MonitorConfig{}.quality);
  monitor.push_block(codes, sink);
  monitor.flush(sink);
  (void)k;
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, "drift");
  bench::JsonReport report("drift");
  report.set("quick", args.quick);
  report.set("threads", args.threads);

  std::printf("training classifier (fixed config, seeds 311/312/313)...\n");
  const Trained trained = train_fixed(args.threads);
  const std::size_t k = trained.centroids->coefficients;
  report.set("coefficients", k);
  report.set("centroids", trained.centroids->centroids.size());
  report.set("scale", trained.centroids->scale);

  bool all_ok = true;

  // --- cost: measured ns/beat next to the platform model's cycles/beat.
  {
    const auto us = harvest_projections(trained, shift_spec(1.0), k);
    const std::size_t n = us.size() / k;
    drift::DriftTracker tracker(*trained.centroids);
    constexpr int kReps = 2000;
    bench::WallTimer timer;
    for (int rep = 0; rep < kReps; ++rep)
      for (std::size_t i = 0; i < n; ++i)
        tracker.observe(
            std::span<const std::int32_t>(us.data() + i * k, k));
    const double ns =
        timer.seconds() * 1e9 / (static_cast<double>(kReps) * n);
    report.set("drift_observe_beats", n);
    report.set("drift_observe_ns", ns);

    const platform::KernelCosts costs(platform::CycleModel{}, 360);
    const std::size_t seeds = trained.centroids->centroids.size();
    const double cycles = costs.drift_update_per_beat(k, seeds);
    report.set("drift_model_cycles_per_beat", cycles);
    // At the paper's 6 MHz core and test-set beat rate, the duty-cycle
    // increment tracking adds to sub-system (1).
    platform::ScenarioParams params;
    params.coefficients = k;
    params.drift_seeds = seeds;
    const platform::IcyHeartSpec spec;
    const double duty_with =
        platform::load_subsystem1(costs, params).duty_cycle(spec);
    params.drift_seeds = 0;
    const double duty_without =
        platform::load_subsystem1(costs, params).duty_cycle(spec);
    report.set("drift_model_duty_delta", duty_with - duty_without);
    std::printf("observe(): %.1f ns/beat measured, %.0f cycles/beat "
                "modelled (+%.5f duty at 6 MHz)\n",
                ns, cycles, duty_with - duty_without);
  }

  // --- latency: beats from episode onset to alarm, per shift magnitude.
  {
    std::vector<double> magnitudes = {0.75, 1.0, 1.5};
    if (args.quick) magnitudes = {1.0};
    std::printf("\n%-10s %7s %7s %7s %9s %7s\n", "magnitude", "beats",
                "novel", "alarms", "maxscore", "detect");
    for (const double m : magnitudes) {
      const Replay r = replay(trained, shift_spec(m), kOnsetS);
      char key[40];
      std::snprintf(key, sizeof key, "drift_detect_beats_m%03d",
                    static_cast<int>(m * 100.0 + 0.5));
      report.set(key, static_cast<std::int64_t>(r.detect_beats));
      std::printf("%-10.2f %7llu %7llu %7llu %9.3f %7td\n", m,
                  static_cast<unsigned long long>(r.beats),
                  static_cast<unsigned long long>(r.novel),
                  static_cast<unsigned long long>(r.alarms), r.max_score,
                  r.detect_beats);
      if (m >= 1.0 && r.detect_beats < 0) {
        std::fprintf(stderr,
                     "magnitude %.2f: morphology shift never alarmed\n", m);
        all_ok = false;
      }
    }
  }

  // --- falsealarm: every other standard scenario must stay silent.
  {
    auto specs = scenario::standard_scenarios(40.0, 9000);
    std::erase_if(specs, [](const scenario::ScenarioSpec& s) {
      return s.name == "morphology_shift";
    });
    if (args.quick) specs.resize(3);
    std::size_t alarmed = 0;
    double worst_score = 0.0;
    std::printf("\n%-20s %7s %7s %9s\n", "scenario", "beats", "alarms",
                "maxscore");
    for (const auto& spec : specs) {
      const Replay r = replay(trained, spec, 0.0);
      worst_score = std::max(worst_score, r.max_score);
      if (r.alarms != 0) {
        ++alarmed;
        std::fprintf(stderr, "%s: spurious drift alarm\n",
                     spec.name.c_str());
      }
      std::printf("%-20s %7llu %7llu %9.3f\n", spec.name.c_str(),
                  static_cast<unsigned long long>(r.beats),
                  static_cast<unsigned long long>(r.alarms), r.max_score);
    }
    const double rate =
        static_cast<double>(alarmed) / static_cast<double>(specs.size());
    report.set("drift_false_alarm_scenarios", specs.size());
    report.set("drift_false_alarm_rate", rate);
    report.set("drift_max_clean_score", worst_score);
    if (alarmed != 0) all_ok = false;
  }

  // --- identity: fleet drift state must not depend on the thread layout.
  {
    const auto stream = scenario::build_scenario(shift_spec(1.0));
    const std::vector<dsp::Sample> codes =
        dsp::sanitize_lead(stream.samples, core::MonitorConfig{}.quality);
    auto digest = [&](std::size_t threads, std::size_t shards) {
      service::FleetConfig cfg;
      cfg.threads = threads;
      cfg.shards = shards;
      cfg.session.model = std::make_shared<const service::SessionModel>(
          service::SessionModel{cfg.initial_model_version, trained.classifier,
                                trained.centroids});
      service::FleetEngine engine(trained.classifier, cfg);
      const auto id =
          engine.open_session([](const service::SessionResult&) {});
      std::size_t off = 0;
      const std::span<const dsp::Sample> all(codes);
      while (off < codes.size()) {
        const std::size_t n =
            std::min<std::size_t>(2048, codes.size() - off);
        off += engine.offer(*id, all.subspan(off, n)).accepted;
        engine.pump();
      }
      engine.drain();
      const std::uint64_t d = engine.session_drift(*id)->state_digest();
      engine.close_session(*id);
      return d;
    };
    const std::uint64_t d1 = digest(1, 1);
    const std::uint64_t d4 = digest(4, 4);
    const bool identity = d1 == d4;
    report.set("drift_identity", identity);
    std::printf("\nfleet drift digest t1s1=%016llx t4s4=%016llx %s\n",
                static_cast<unsigned long long>(d1),
                static_cast<unsigned long long>(d4),
                identity ? "ok" : "MISMATCH");
    if (!identity) {
      std::fprintf(stderr, "drift state diverged across thread layouts\n");
      all_ok = false;
    }
  }

  report.set("all_ok", all_ok);
  report.write(args.json_path);
  std::printf("\nwrote %s\n", args.json_path.c_str());
  if (!all_ok) {
    std::fprintf(stderr, "drift detection/identity gate FAILED\n");
    return 1;
  }
  return 0;
}
