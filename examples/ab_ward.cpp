// ab_ward — fleet A/B rollout report: which nodes land on which arm, and
// what each arm's model does to the ward's AAMI metrics.
//
// Trains two small classifiers from independently evolved projection
// matrices (arm A = incumbent, arm B = candidate), assigns a ward of
// sensor nodes to arms with the same seeded lifecycle::AbSplit the
// gateway uses (splitmix64 of node id — sticky, uniform, reseedable),
// then replays the standard adversarial scenario suite through each
// arm's model and prints per-arm NDR/ARR/miss/false plus the candidate's
// deltas — the table a ward operator reads before promote_candidate().
//
//   usage: ab_ward [nodes] [percent_b] [seed]
//          nodes      ward size               (default 8)
//          percent_b  candidate-arm share     (default 50)
//          seed       A/B assignment seed     (default 42)
//
// A scenario where one arm recognizes abnormals (ARR >= 0.5) while the
// other is essentially blind (ARR <= 0.05) earns a "do not promote blind"
// warning. Exit code 1 only when an arm's mean ARR over the whole suite
// is zero — a rollout report for a completely blind model is garbage.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "lifecycle/ab.hpp"
#include "scenario/episodes.hpp"
#include "scenario/runner.hpp"

namespace {

using namespace hbrp;

embedded::EmbeddedClassifier train_arm(std::uint64_t ga_seed) {
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 120.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 191;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 80;
  dcfg.seed = 192;
  const auto ts2 = ecg::build_dataset({1200, 120, 150}, dcfg);
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 4;
  tcfg.ga.generations = 2;
  tcfg.seed = ga_seed;
  return core::TwoStepTrainer(ts1, ts2, tcfg).run().quantize();
}

struct ArmAgg {
  double ndr = 0, arr = 0, miss = 0, false_rate = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t nodes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8;
  const int percent_b = argc > 2 ? std::atoi(argv[2]) : 50;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;
  if (nodes == 0 || percent_b < 0 || percent_b > 100) {
    std::fprintf(stderr, "usage: ab_ward [nodes] [percent_b 0..100] [seed]\n");
    return 2;
  }

  std::printf("ab_ward: %llu nodes, %d%% on candidate arm B (seed %llu)\n\n",
              static_cast<unsigned long long>(nodes), percent_b,
              static_cast<unsigned long long>(seed));

  const lifecycle::AbSplit split{seed, static_cast<std::uint32_t>(percent_b)};
  std::printf("node assignment (sticky across reconnects):\n  ");
  std::size_t on_b = 0;
  for (std::uint64_t node = 0; node < nodes; ++node) {
    const std::uint8_t arm = split.arm(node);
    on_b += arm;
    std::printf("n%llu:%c ", static_cast<unsigned long long>(node),
                arm == 0 ? 'A' : 'B');
  }
  std::printf("\n  %zu/%llu on arm B\n\n", on_b,
              static_cast<unsigned long long>(nodes));

  std::printf("training arm A (incumbent, GA seed 19)...\n");
  const auto clf_a = train_arm(19);
  std::printf("training arm B (candidate, GA seed 29)...\n\n");
  const auto clf_b = train_arm(29);
  const embedded::EmbeddedClassifier* clfs[2] = {&clf_a, &clf_b};

  const auto specs = scenario::standard_scenarios(40.0, 9000);
  ArmAgg agg[2];
  bool lopsided = false;
  std::printf("%-22s | %6s %6s | %6s %6s | %7s %7s\n", "scenario", "A_ndr",
              "A_arr", "B_ndr", "B_arr", "dNDR", "dARR");
  for (const auto& spec : specs) {
    const auto stream = scenario::build_scenario(spec);
    scenario::ScenarioScore score[2];
    for (int arm = 0; arm < 2; ++arm) {
      const auto verdicts = scenario::run_direct(*clfs[arm], stream);
      score[arm] = scenario::score_verdicts(stream, verdicts);
      agg[arm].ndr += score[arm].ndr;
      agg[arm].arr += score[arm].arr;
      agg[arm].miss += score[arm].miss_rate;
      agg[arm].false_rate += score[arm].false_rate;
    }
    // One arm recognizing abnormals on a scenario the other is blind to
    // is a rollout red flag, not a reporting nuance.
    const auto blind_vs_seeing = [](double blind, double seeing) {
      return blind <= 0.05 && seeing >= 0.5;
    };
    if (blind_vs_seeing(score[0].arr, score[1].arr) ||
        blind_vs_seeing(score[1].arr, score[0].arr))
      lopsided = true;
    std::printf("%-22s | %6.3f %6.3f | %6.3f %6.3f | %+7.3f %+7.3f\n",
                spec.name.c_str(), score[0].ndr, score[0].arr, score[1].ndr,
                score[1].arr, score[1].ndr - score[0].ndr,
                score[1].arr - score[0].arr);
  }

  const double n = static_cast<double>(specs.size());
  std::printf("\n%-10s %8s %8s %10s %11s\n", "arm", "ndr", "arr",
              "miss_rate", "false_rate");
  const char* names[2] = {"A (live)", "B (cand)"};
  for (int arm = 0; arm < 2; ++arm)
    std::printf("%-10s %8.3f %8.3f %10.3f %11.3f\n", names[arm],
                agg[arm].ndr / n, agg[arm].arr / n, agg[arm].miss / n,
                agg[arm].false_rate / n);
  std::printf("\ncandidate delta: ndr %+.3f  arr %+.3f  miss %+.3f  "
              "false %+.3f over %zu scenarios\n",
              (agg[1].ndr - agg[0].ndr) / n, (agg[1].arr - agg[0].arr) / n,
              (agg[1].miss - agg[0].miss) / n,
              (agg[1].false_rate - agg[0].false_rate) / n, specs.size());

  if (lopsided)
    std::fprintf(stderr,
                 "\nab_ward: WARNING — one arm is blind to abnormals on a "
                 "scenario the other handles; do not promote blind\n");
  if (agg[0].arr == 0.0 || agg[1].arr == 0.0) {
    std::fprintf(stderr, "\nab_ward: an arm recognized no abnormal beats "
                         "anywhere — broken rollout\n");
    return 1;
  }
  return 0;
}
