// Table III reproduction: code size and duty cycle of the sub-systems of
// Fig. 6 on the IcyHeart platform at 6 MHz, using 8 coefficients.
//
// Rows:
//   RP-classifier                     — the projection + integer NFC alone;
//   RP + filtering + peak detection   — sub-system (1);
//   Multi-lead delineation            — sub-system (2), always on;
//   Proposed system                   — system (3), delineation gated by the
//                                       classifier.
//
// Duty cycles come from the analytic cycle model (platform/cycles.hpp) fed
// with the *measured* workload of the test set: the beat rate and the
// fraction of beats the trained classifier actually flags pathological.
// Code sizes come from the calibrated inventory (platform/codesize.hpp).
//
// --deque re-runs the duty-cycle column with this library's O(1) monotonic-
// deque morphology instead of the reference firmware's naive O(L) loops —
// the implementation ablation called out in DESIGN.md.
#include <string>

#include "bench/common.hpp"
#include "platform/codesize.hpp"
#include "platform/energy.hpp"

namespace {

void print_rows(const hbrp::platform::KernelCosts& costs,
                const hbrp::platform::ScenarioParams& scenario,
                hbrp::bench::JsonReport& report, const char* report_prefix) {
  using namespace hbrp::platform;
  const IcyHeartSpec soc;
  const CodeSizeModel code;
  struct Row {
    const char* name;
    double kb;
    double duty;
    double paper_kb;
    double paper_duty;
  };
  const Row rows[] = {
      {"RP-classifier", code.rp_classifier_kb(),
       load_rp_classifier(costs, scenario).duty_cycle(soc), 1.64, 0.01},
      {"RP + filtering + peak detection (1)", code.subsystem1_kb(),
       load_subsystem1(costs, scenario).duty_cycle(soc), 30.29, 0.12},
      {"Multi-lead delineation (2)", code.subsystem2_kb(),
       load_subsystem2(costs, scenario).duty_cycle(soc), 46.39, 0.83},
      {"Proposed system (3)", code.system3_kb(),
       load_system3(costs, scenario).duty_cycle(soc), 76.68, 0.30},
  };
  std::printf("%-38s %10s %10s   %s\n", "sub-system", "code KB", "duty",
              "(paper KB / duty)");
  for (const Row& r : rows)
    std::printf("%-38s %10.2f %10.3f   (%.2f / %.2f)\n", r.name, r.kb, r.duty,
                r.paper_kb, r.paper_duty);

  const double saving = (rows[2].duty - rows[3].duty) / rows[2].duty;
  std::printf("\nrun-time of system (3) vs always-on delineation (2): "
              "%.0f%% lower (paper: 63%%)\n",
              100.0 * saving);

  const std::string p = report_prefix;
  report.set(p + "duty_rp_classifier", rows[0].duty);
  report.set(p + "duty_subsystem1", rows[1].duty);
  report.set(p + "duty_subsystem2", rows[2].duty);
  report.set(p + "duty_system3", rows[3].duty);
  report.set(p + "runtime_saving_pct", 100.0 * saving);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbrp;
  bool deque_ablation = false;
  const bench::BenchFlag extra[] = {
      {"--deque", "re-run duty cycles with O(1) monotonic-deque morphology",
       &deque_ablation}};
  const auto args =
      bench::BenchArgs::parse(argc, argv, "table3_runtime", extra);
  bench::JsonReport report("table3_runtime");
  const bench::WallTimer timer;

  const auto splits = bench::load_splits(args);
  const core::Executor executor(args.threads);

  // Train the k = 8 classifier and measure the workload it induces on the
  // test set: beat rate and flagged fraction at the ARR >= 97% operating
  // point.
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
  scenario.beat_rate_hz = 74.0 / 60.0;  // MIT-BIH average heart rate
  scenario.flagged_fraction = cm.flagged_fraction();
  scenario.coefficients = 8;
  std::printf("# measured on test set: flagged fraction %.3f "
              "(ARR %.3f, NDR %.3f)\n\n",
              cm.flagged_fraction(), cm.arr(), cm.ndr());

  bench::print_header(
      "Table III — code size and duty cycle on IcyHeart @ 6 MHz "
      "(8 coefficients)");
  const platform::KernelCosts naive(platform::CycleModel{}, 360,
                                    platform::MorphologyImpl::NaivePerSample);
  print_rows(naive, scenario, report, "");

  if (deque_ablation) {
    bench::print_header(
        "Ablation — duty cycles with O(1) monotonic-deque morphology");
    const platform::KernelCosts deq(
        platform::CycleModel{}, 360,
        platform::MorphologyImpl::MonotonicDeque);
    print_rows(deq, scenario, report, "deque_");
  }

  std::printf("\nclassifier parameter memory: %zu bytes "
              "(projection %zu + MF tables %zu) — \"less than 2 KB\"\n",
              bundle.memory_bytes(),
              bundle.projector().packed().memory_bytes(),
              bundle.classifier().memory_bytes());

  report.set("flagged_fraction", cm.flagged_fraction());
  report.set("arr", cm.arr());
  report.set("ndr", cm.ndr());
  report.set("classifier_memory_bytes", bundle.memory_bytes());
  report.set("test_beats", splits.test.size());
  report.set("threads", executor.threads());
  report.set("wall_s", timer.seconds());
  report.write(args.json_path);
  return 0;
}
