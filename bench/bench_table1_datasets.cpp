// Table I reproduction: size and composition of the two training sets and
// the test set, plus provenance statistics of the synthetic substitute
// (records generated, peak-detector quality during extraction).
#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace hbrp;
  const auto args = bench::BenchArgs::parse(argc, argv, "table1_datasets");
  bench::JsonReport report("table1_datasets");
  const bench::WallTimer timer;
  const auto splits = bench::load_splits(args);

  bench::print_header(
      "Table I — size and composition of the dataset splits");
  std::printf("%-16s %8s %8s %8s %10s   (paper)\n", "split", "N", "V", "L",
              "total");
  auto row = [&report](const char* name, const std::string& key,
                       const ecg::BeatDataset& ds,
                       const ecg::DatasetSpec& paper) {
    const auto c = ds.counts();
    std::printf("%-16s %8zu %8zu %8zu %10zu   (%zu/%zu/%zu = %zu)\n", name,
                c.n, c.v, c.l, ds.size(), paper.n, paper.v, paper.l,
                paper.total());
    report.set(key + "_n", c.n);
    report.set(key + "_v", c.v);
    report.set(key + "_l", c.l);
  };
  row("training set 1", "ts1", splits.training1, ecg::kTrainingSet1);
  row("training set 2", "ts2", splits.training2, ecg::kTrainingSet2);
  row("test set", "test", splits.test, ecg::kTestSet);

  std::printf("\nwindow: %zu samples before + %zu after the R peak at %d Hz\n",
              splits.test.window_before, splits.test.window_after,
              splits.test.fs_hz);
  if (args.test_scale != 1.0)
    std::printf("note: test set scaled by %.2f (use default for the full "
                "89012 beats)\n",
                args.test_scale);

  report.set("test_scale", args.test_scale);
  report.set("threads", args.threads);
  report.set("wall_s", timer.seconds());
  report.write(args.json_path);
  return 0;
}
