// Table II reproduction: Normal Discard Rate (NDR) on the test set for a
// fixed Abnormal Recognition Rate (ARR) of 97%, varying the number of
// projection coefficients k in {8, 16, 32}.
//
// Rows:
//   NDR-PC    — float classifier, Gaussian MFs (no approximation);
//   NDR-WBSN  — embedded integer classifier: linearized MFs, 2-bit packed
//               projection, 4x-downsampled (90 Hz) input;
//   PCA-PC    — float classifier on PCA coefficients (Ceylan & Ozbay 2007)
//               instead of random projections.
// For every cell, alpha_test is swept to the smallest value reaching
// ARR >= 97% on the test set, exactly as the paper fixes the ARR column.
//
// Extra ablation (--downsample-sweep): NDR at k = 8 for downsampling
// factors 1, 2 and 4, quantifying the accuracy cost of the paper's
// matrix-shrinking trick.
#include <vector>

#include "bench/common.hpp"
#include "core/pca_baseline.hpp"

namespace {

struct PaperRow {
  double pc, wbsn, pca;
};
// Paper Table II values per k (for side-by-side printing).
const PaperRow kPaper8 = {93.74, 92.31, 93.66};
const PaperRow kPaper16 = {95.16, 92.53, 95.78};
const PaperRow kPaper32 = {93.05, 93.04, 89.75};

}  // namespace

int main(int argc, char** argv) {
  using namespace hbrp;
  bool downsample_sweep = false;
  const bench::BenchFlag extra[] = {
      {"--downsample-sweep", "also sweep the input downsampling factor",
       &downsample_sweep}};
  const auto args =
      bench::BenchArgs::parse(argc, argv, "table2_coefficients", extra);
  bench::JsonReport report("table2_coefficients");
  const bench::WallTimer timer;

  const auto splits = bench::load_splits(args);
  const core::Executor executor(args.threads);
  constexpr double kMinArr = 0.97;

  bench::print_header(
      "Table II — NDR (%) on test set at fixed ARR >= 97%, vs coefficients");
  std::printf("%-10s %10s %10s %10s\n", "row", "k=8", "k=16", "k=32");

  std::vector<double> ndr_pc, ndr_wbsn, ndr_pca;
  for (const std::size_t k : {std::size_t{8}, std::size_t{16},
                              std::size_t{32}}) {
    const auto cfg = bench::trainer_config(args, k);
    const core::TwoStepTrainer trainer(splits.training1, splits.training2,
                                       cfg);
    const core::TrainedClassifier trained = trainer.run();

    // Float path (NDR-PC).
    const core::ProjectedDataset test_proj =
        core::project_dataset(splits.test, trained.projector);
    const auto float_cm = bench::at_min_arr(
        [&](double alpha) {
          return core::evaluate(trained.nfc, test_proj, alpha, &executor);
        },
        kMinArr);
    ndr_pc.push_back(100.0 * float_cm.ndr());

    // Embedded path (NDR-WBSN): alpha_test tuned independently (Sec. III-B).
    auto bundle = trained.quantize();
    const auto int_cm = bench::at_min_arr(
        [&](double alpha) {
          bundle.set_alpha_q16(math::to_q16(alpha));
          return core::evaluate_embedded(bundle, splits.test, &executor);
        },
        kMinArr);
    ndr_wbsn.push_back(100.0 * int_cm.ndr());

    // PCA baseline (PCA-PC).
    core::PcaBaselineConfig pca_cfg;
    pca_cfg.coefficients = k;
    const auto pca_cls =
        core::train_pca_baseline(splits.training1, splits.training2, pca_cfg);
    const auto pca_proj = core::project_dataset(splits.test, pca_cls);
    const auto pca_cm = bench::at_min_arr(
        [&](double alpha) {
          return core::evaluate(pca_cls.nfc, pca_proj, alpha);
        },
        kMinArr);
    ndr_pca.push_back(100.0 * pca_cm.ndr());

    std::printf("# k=%zu done (GA best fitness %.4f)\n", k,
                trainer.last_history().empty()
                    ? 0.0
                    : trainer.last_history().back());
  }

  auto print_row = [](const char* name, const std::vector<double>& v,
                      double p8, double p16, double p32) {
    std::printf("%-10s %10.2f %10.2f %10.2f   (paper: %.2f / %.2f / %.2f)\n",
                name, v[0], v[1], v[2], p8, p16, p32);
  };
  print_row("NDR-PC", ndr_pc, kPaper8.pc, kPaper16.pc, kPaper32.pc);
  print_row("NDR-WBSN", ndr_wbsn, kPaper8.wbsn, kPaper16.wbsn, kPaper32.wbsn);
  print_row("PCA-PC", ndr_pca, kPaper8.pca, kPaper16.pca, kPaper32.pca);

  std::printf("\nShape checks: (a) small k already reaches NDR > 90%%;\n"
              "(b) 8 -> 32 coefficients brings no tangible gain;\n"
              "(c) PC / WBSN / PCA differ by a few points at most.\n");

  const double ks[] = {8.0, 16.0, 32.0};
  report.set("coefficients", std::span<const double>(ks));
  report.set("ndr_pc_pct", std::span<const double>(ndr_pc));
  report.set("ndr_wbsn_pct", std::span<const double>(ndr_wbsn));
  report.set("ndr_pca_pct", std::span<const double>(ndr_pca));
  report.set("test_beats", splits.test.size());

  if (downsample_sweep) {
    bench::print_header(
        "Ablation — NDR at k = 8 vs input downsampling factor");
    std::printf("%-12s %10s %14s %16s\n", "downsample", "NDR (%)",
                "input samples", "P matrix bytes");
    for (const std::size_t ds : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}}) {
      auto cfg = bench::trainer_config(args, 8);
      cfg.downsample = ds;
      const core::TwoStepTrainer trainer(splits.training1, splits.training2,
                                         cfg);
      const auto trained = trainer.run();
      const auto proj = core::project_dataset(splits.test, trained.projector);
      const auto cm = bench::at_min_arr(
          [&](double alpha) {
            return core::evaluate(trained.nfc, proj, alpha);
          },
          kMinArr);
      std::printf("%-12zu %10.2f %14zu %16zu\n", ds, 100.0 * cm.ndr(),
                  200 / ds, trained.projector.packed().memory_bytes());
      report.set("ndr_downsample_" + std::to_string(ds) + "_pct",
                 100.0 * cm.ndr());
    }
  }

  report.set("threads", executor.threads());
  report.set("wall_s", timer.seconds());
  report.write(args.json_path);
  return 0;
}
