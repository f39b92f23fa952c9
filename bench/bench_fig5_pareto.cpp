// Figure 5 reproduction: NDR/ARR Pareto fronts on the test set for the
// Gaussian (float), linearized (integer) and triangular (integer)
// membership functions.
//
// Setup per the paper: 50 samples acquired at 90 Hz (4x downsampling of the
// 200-sample window) projected on 8 coefficients; alpha_train fixed by the
// ARR >= 97% constraint on training set 2; alpha_test swept to trace the
// trade-off.
#include <vector>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace hbrp;
  const auto args = bench::BenchArgs::parse(argc, argv, "fig5_pareto");
  bench::JsonReport report("fig5_pareto");
  const bench::WallTimer timer;
  const auto splits = bench::load_splits(args);
  const core::Executor executor(args.threads);

  const auto cfg = bench::trainer_config(args, 8);
  const core::TwoStepTrainer trainer(splits.training1, splits.training2, cfg);
  const core::TrainedClassifier trained = trainer.run();
  std::printf("# trained: alpha_train = %.4f\n", trained.alpha_train);

  const core::ProjectedDataset test_proj =
      core::project_dataset(splits.test, trained.projector);
  auto bundle_lin = trained.quantize(embedded::MfShape::Linearized);
  auto bundle_tri = trained.quantize(embedded::MfShape::Triangular);

  // Alpha grid: dense near zero (where the interesting trade-offs live).
  std::vector<double> alphas;
  for (double a = 0.0; a < 0.02; a += 0.002) alphas.push_back(a);
  for (double a = 0.02; a < 0.2; a += 0.01) alphas.push_back(a);
  for (double a = 0.2; a < 0.951; a += 0.05) alphas.push_back(a);
  // The extreme-recognition end: margins approach 1 only asymptotically, so
  // sample alpha densely near 1 (and include 1.0 itself: everything
  // Unknown -> ARR 100%).
  for (double a : {0.96, 0.97, 0.98, 0.99, 0.995, 0.999, 1.0})
    alphas.push_back(a);

  std::vector<core::OperatingPoint> gauss_pts, lin_pts, tri_pts;
  for (const double alpha : alphas) {
    const auto g = core::evaluate(trained.nfc, test_proj, alpha, &executor);
    gauss_pts.push_back({alpha, g.ndr(), g.arr()});
    bundle_lin.set_alpha_q16(math::to_q16(alpha));
    const auto l = core::evaluate_embedded(bundle_lin, splits.test, &executor);
    lin_pts.push_back({alpha, l.ndr(), l.arr()});
    bundle_tri.set_alpha_q16(math::to_q16(alpha));
    const auto t = core::evaluate_embedded(bundle_tri, splits.test, &executor);
    tri_pts.push_back({alpha, t.ndr(), t.arr()});
  }

  bench::print_header(
      "Figure 5 — NDR/ARR Pareto fronts (gaussian / linearized / triangular)");
  auto print_front = [](const char* name,
                        std::vector<core::OperatingPoint> pts) {
    const auto front = core::pareto_front(std::move(pts));
    std::printf("%s front (%zu points): ARR%%  NDR%%  alpha\n", name,
                front.size());
    for (const auto& p : front)
      std::printf("  %7.3f %7.3f %8.4f\n", 100.0 * p.arr, 100.0 * p.ndr,
                  p.alpha);
  };
  print_front("gaussian  ", gauss_pts);
  print_front("linearized", lin_pts);
  print_front("triangular", tri_pts);

  // The paper's summary observations at the high-recognition end.
  auto ndr_at = [](std::vector<core::OperatingPoint> pts, double arr) {
    const auto front = core::pareto_front(std::move(pts));
    double best = 0.0;
    for (const auto& p : front)
      if (p.arr >= arr) best = std::max(best, p.ndr);
    return 100.0 * best;
  };
  std::printf("\nNDR at ARR >= 98.5%%: gaussian %.1f%%, linearized %.1f%%, "
              "triangular %.1f%%\n",
              ndr_at(gauss_pts, 0.985), ndr_at(lin_pts, 0.985),
              ndr_at(tri_pts, 0.985));
  std::printf("(paper: gaussian/linearized ~87%%, triangular drops to ~62%%)\n");

  report.set("alpha_train", trained.alpha_train);
  report.set("ndr_at_arr985_gaussian_pct", ndr_at(gauss_pts, 0.985));
  report.set("ndr_at_arr985_linearized_pct", ndr_at(lin_pts, 0.985));
  report.set("ndr_at_arr985_triangular_pct", ndr_at(tri_pts, 0.985));
  report.set("alpha_points", alphas.size());
  report.set("test_beats", splits.test.size());
  report.set("threads", executor.threads());
  report.set("wall_s", timer.seconds());
  report.write(args.json_path);
  return 0;
}
