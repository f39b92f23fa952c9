// Batched evaluation engine benchmark.
//
// Two claims are measured, both against the same trained model:
//   1. Deterministic parallel training — the full two-step GA run with the
//      executor at N threads versus fully serial. The engine's contract is
//      that the two runs are *bit-identical* (same projection matrix, same
//      MF parameters, same alpha, same metrics); this harness asserts it
//      and fails hard on any divergence, so the reported speedup is only
//      ever quoted for equivalent results.
//   2. Evaluation throughput — core::evaluate_embedded over the test
//      split's window arena (projection and integer classification in
//      classify_batch sweeps, reusable scratch, no per-beat allocation),
//      serial and with the executor; the two must agree exactly.
//
// Datasets are synthetic and self-contained (no cached splits), so the
// binary runs anywhere in seconds and the JSON report is reproducible.
#include "bench/common.hpp"

namespace {

hbrp::ecg::BeatDataset build_split(const hbrp::ecg::DatasetSpec& spec,
                                   std::size_t cap, std::uint64_t seed) {
  hbrp::ecg::DatasetBuilderConfig cfg;
  cfg.record_duration_s = 180.0;
  cfg.max_per_record_per_class = cap;
  cfg.seed = seed;
  return hbrp::ecg::build_dataset(spec, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbrp;
  const auto args = bench::BenchArgs::parse(argc, argv, "engine");
  bench::JsonReport report("engine");

  // The parallel arm: --threads if meaningful, else every hardware thread.
  const std::size_t nthreads =
      args.threads > 1 ? args.threads : core::Executor::hardware_threads();

  const double s = args.quick ? 0.4 : 1.0;
  std::printf("# building synthetic splits (scale %.2f)\n", s);
  const auto ts1 = build_split({150, 150, 150}, 20, 701);
  const auto ts2 = build_split({static_cast<std::size_t>(2500 * s),
                                static_cast<std::size_t>(250 * s),
                                static_cast<std::size_t>(300 * s)},
                               100, 702);
  const auto test = build_split({static_cast<std::size_t>(8000 * s),
                                 static_cast<std::size_t>(700 * s),
                                 static_cast<std::size_t>(900 * s)},
                                200, 703);

  core::TwoStepConfig cfg;
  cfg.coefficients = 8;
  cfg.downsample = 4;
  cfg.ga.population = args.quick ? 6 : 10;
  cfg.ga.generations = args.quick ? 3 : 6;
  cfg.seed = 0xDA7E2013;

  // --- 1. GA fitness evaluation: serial vs executor ----------------------
  bench::print_header("Engine — deterministic parallel training");
  core::TwoStepConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  const core::TwoStepTrainer serial_trainer(ts1, ts2, serial_cfg);
  bench::WallTimer timer;
  const auto trained_serial = serial_trainer.run();
  const double t_serial = timer.seconds();
  const auto history_serial = serial_trainer.last_history();

  core::TwoStepConfig parallel_cfg = cfg;
  parallel_cfg.threads = nthreads;
  const core::TwoStepTrainer parallel_trainer(ts1, ts2, parallel_cfg);
  timer.reset();
  const auto trained_parallel = parallel_trainer.run();
  const double t_parallel = timer.seconds();
  const auto history_parallel = parallel_trainer.last_history();

  // Bit-identity gate: every trained artefact must match exactly.
  bool identical =
      trained_serial.projector.matrix() == trained_parallel.projector.matrix() &&
      trained_serial.nfc.to_params() == trained_parallel.nfc.to_params() &&
      trained_serial.alpha_train == trained_parallel.alpha_train &&
      history_serial == history_parallel;
  const auto proj_s = core::project_dataset(test, trained_serial.projector);
  const auto proj_p = core::project_dataset(test, trained_parallel.projector);
  const auto cm_s =
      core::evaluate(trained_serial.nfc, proj_s, trained_serial.alpha_train);
  const auto cm_p = core::evaluate(trained_parallel.nfc, proj_p,
                                   trained_parallel.alpha_train);
  identical = identical && cm_s.ndr() == cm_p.ndr() &&
              cm_s.arr() == cm_p.arr();

  const double speedup = t_parallel > 0.0 ? t_serial / t_parallel : 0.0;
  std::printf("serial (1 thread):    %8.2f s\n", t_serial);
  std::printf("executor (%zu threads): %8.2f s  -> speedup %.2fx\n", nthreads,
              t_parallel, speedup);
  std::printf("bit-identical models and metrics: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");
  if (!identical) {
    std::fprintf(stderr,
                 "bench_engine: parallel training diverged from serial\n");
    return 1;
  }

  // --- 2. Evaluation throughput: serial vs executor ---------------------
  bench::print_header("Engine — evaluation throughput");
  const auto bundle = trained_serial.quantize();
  const core::Executor executor(nthreads);
  const std::size_t reps = args.quick ? 3 : 10;

  timer.reset();
  core::ConfusionMatrix cm_eval;
  for (std::size_t r = 0; r < reps; ++r)
    cm_eval = core::evaluate_embedded(bundle, test);
  const double t_eval = timer.seconds();

  timer.reset();
  core::ConfusionMatrix cm_eval_mt;
  for (std::size_t r = 0; r < reps; ++r)
    cm_eval_mt = core::evaluate_embedded(bundle, test, &executor);
  const double t_eval_mt = timer.seconds();

  if (cm_eval.ndr() != cm_eval_mt.ndr() ||
      cm_eval.arr() != cm_eval_mt.arr()) {
    std::fprintf(stderr,
                 "bench_engine: parallel evaluation diverged from serial\n");
    return 1;
  }

  const double beats = static_cast<double>(test.size() * reps);
  auto rate = [beats](double t) { return t > 0.0 ? beats / t : 0.0; };
  const double mt_speedup = t_eval_mt > 0.0 ? t_eval / t_eval_mt : 0.0;
  std::printf("%zu beats x %zu reps (NDR %.3f, ARR %.3f — both paths agree)\n",
              test.size(), reps, cm_eval.ndr(), cm_eval.arr());
  std::printf("serial:                 %8.0f beats/s\n", rate(t_eval));
  std::printf("%zu threads:             %8.0f beats/s  (%.2fx)\n", nthreads,
              rate(t_eval_mt), mt_speedup);

  report.set("threads", nthreads);
  report.set("hardware_threads", core::Executor::hardware_threads());
  report.set("ga_train_serial_s", t_serial);
  report.set("ga_train_parallel_s", t_parallel);
  report.set("ga_train_speedup", speedup);
  report.set("bit_identical", identical);
  report.set("ndr", cm_s.ndr());
  report.set("arr", cm_s.arr());
  report.set("test_beats", test.size());
  report.set("eval_reps", reps);
  report.set("eval_batched_beats_per_s", rate(t_eval));
  report.set("eval_batched_mt_beats_per_s", rate(t_eval_mt));
  report.set("eval_batched_mt_speedup", mt_speedup);
  report.write(args.json_path);
  return 0;
}
