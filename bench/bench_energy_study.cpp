// Section IV-E reproduction: energy-efficiency improvement of the proposed
// gated system over the always-on baseline.
//
// Baseline: sub-system (2) always delineating, radio transmitting every
// fiducial point of every beat. Proposed: system (3) with RP gating, radio
// transmitting only the R peak for beats classified normal and the full
// fiducial set for flagged beats. The flagged fraction is measured on the
// test set at the ARR >= 97% operating point.
//
// Paper figures: 68% wireless-module saving, 63% bio-signal-analysis
// saving, ~23% total node energy (computation + communication accounting
// for ~34% of a typical WBSN's budget [1]).
#include "bench/common.hpp"
#include "platform/energy.hpp"

int main(int argc, char** argv) {
  using namespace hbrp;
  const auto args = bench::BenchArgs::parse(argc, argv, "energy_study");
  bench::JsonReport report("energy_study");
  const bench::WallTimer timer;
  const auto splits = bench::load_splits(args);
  const core::Executor executor(args.threads);

  const auto cfg = bench::trainer_config(args, 8);
  const core::TwoStepTrainer trainer(splits.training1, splits.training2, cfg);
  const auto trained = trainer.run();
  auto bundle = trained.quantize();
  const auto cm = bench::at_min_arr(
      [&](double alpha) {
        bundle.set_alpha_q16(math::to_q16(alpha));
        return core::evaluate_embedded(bundle, splits.test, &executor);
      },
      0.97);

  platform::ScenarioParams scenario;
  scenario.beat_rate_hz = 74.0 / 60.0;
  scenario.flagged_fraction = cm.flagged_fraction();

  const platform::KernelCosts costs(platform::CycleModel{}, 360);
  const platform::IcyHeartSpec soc;
  const platform::PowerModel power;
  const platform::PayloadModel payload;

  const auto base =
      platform::energy_baseline(costs, scenario, soc, power, payload);
  const auto prop =
      platform::energy_proposed(costs, scenario, soc, power, payload);

  bench::print_header("Section IV-E — energy efficiency improvement");
  std::printf("# flagged fraction on test set: %.3f (ARR %.3f)\n\n",
              scenario.flagged_fraction, cm.arr());
  std::printf("%-22s %14s %14s %10s\n", "component", "baseline (uW)",
              "proposed (uW)", "saving");
  auto row = [](const char* name, double b, double p) {
    std::printf("%-22s %14.1f %14.1f %9.0f%%\n", name, 1e6 * b, 1e6 * p,
                100.0 * platform::relative_saving(b, p));
  };
  row("bio-signal analysis", base.compute_w, prop.compute_w);
  row("wireless module", base.radio_w, prop.radio_w);
  row("rest of node", base.rest_w, prop.rest_w);
  row("total", base.total_w(), prop.total_w());
  std::printf("\npaper: 63%% analysis, 68%% wireless, ~23%% total "
              "(compute+radio share of node: %.0f%%, paper assumes ~34%%)\n",
              100.0 * base.compute_radio_share());

  // Sensitivity: how the total saving depends on the flagged fraction —
  // the knob alpha_test controls in deployment.
  bench::print_header(
      "Sensitivity — total node saving vs flagged fraction");
  std::printf("%-18s %12s %12s %12s\n", "flagged fraction", "compute",
              "wireless", "total");
  for (double f : {0.1, 0.2, 0.3, 0.5, 0.8}) {
    auto s = scenario;
    s.flagged_fraction = f;
    const auto b = platform::energy_baseline(costs, s, soc, power, payload);
    const auto p = platform::energy_proposed(costs, s, soc, power, payload);
    std::printf("%-18.2f %11.0f%% %11.0f%% %11.0f%%\n", f,
                100.0 * platform::relative_saving(b.compute_w, p.compute_w),
                100.0 * platform::relative_saving(b.radio_w, p.radio_w),
                100.0 * platform::relative_saving(b.total_w(), p.total_w()));
  }

  report.set("flagged_fraction", scenario.flagged_fraction);
  report.set("arr", cm.arr());
  report.set("compute_saving_pct",
             100.0 * platform::relative_saving(base.compute_w, prop.compute_w));
  report.set("radio_saving_pct",
             100.0 * platform::relative_saving(base.radio_w, prop.radio_w));
  report.set("total_saving_pct",
             100.0 * platform::relative_saving(base.total_w(), prop.total_w()));
  report.set("test_beats", splits.test.size());
  report.set("threads", executor.threads());
  report.set("wall_s", timer.seconds());
  report.write(args.json_path);
  return 0;
}
