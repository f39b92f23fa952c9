// The paper's complete two-step training framework (Fig. 2, top).
//
// Step 1 (inner): given a candidate projection matrix P, project training
// set 1, fit the NFC's Gaussian MFs by scaled conjugate gradient.
// Step 2 (outer): score P as the NDR the trained NFC achieves on training
// set 2 at the smallest alpha_train reaching the ARR constraint (>= 97% by
// default); a genetic algorithm (population 20, 30 generations) evolves P
// under this fitness.
//
// The calibration of alpha is exact, not searched: for each beat the
// critical alpha at which its decision flips to Unknown is (M1 - M2) / S,
// so the smallest alpha meeting an ARR target is an order statistic of the
// critical alphas of the abnormal beats currently misclassified as N.
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch.hpp"
#include "core/executor.hpp"
#include "core/metrics.hpp"
#include "drift/tracker.hpp"
#include "ecg/dataset.hpp"
#include "embedded/bundle.hpp"
#include "math/mat.hpp"
#include "nfc/classifier.hpp"
#include "nfc/train.hpp"
#include "opt/ga.hpp"
#include "rp/projector.hpp"

namespace hbrp::core {

/// A dataset after projection: one row of coefficients per beat.
struct ProjectedDataset {
  math::Mat u;                           // beats x coefficients
  std::vector<ecg::BeatClass> labels;
};

/// Projects every beat window of `ds` through `projector`: the integer
/// projection the node computes (project_int_into), converted to double
/// for the float NFC. The conversion is exact, so training sees exactly
/// the coefficients the deployed classifier sees.
ProjectedDataset project_dataset(const ecg::BeatDataset& ds,
                                 const rp::BeatProjector& projector);

/// Batch-engine form over a contiguous BeatBatch arena (no per-beat
/// allocation). Identical to the per-beat form.
ProjectedDataset project_dataset(const BeatBatch& batch,
                                 const rp::BeatProjector& projector);

/// Evaluates a float NFC at threshold `alpha` over a projected dataset.
/// With an executor, beats are scored in parallel chunks whose partial
/// confusion matrices merge in chunk order — the result is identical to a
/// serial run for any thread count.
ConfusionMatrix evaluate(const nfc::NeuroFuzzyClassifier& nfc,
                         const ProjectedDataset& data, double alpha,
                         const Executor* executor = nullptr);

/// Evaluates an integer classifier at `alpha_q16` over beat windows
/// (runs the full embedded path: downsample, sparse projection, int NFC).
ConfusionMatrix evaluate_embedded(const embedded::EmbeddedClassifier& cls,
                                  const ecg::BeatDataset& ds);

/// Batch-engine form over a contiguous BeatBatch, optionally parallel.
/// Bit-identical to the per-beat form for any thread count.
ConfusionMatrix evaluate_embedded(const embedded::EmbeddedClassifier& cls,
                                  const BeatBatch& batch,
                                  const Executor* executor = nullptr);

/// Smallest alpha such that ARR >= min_arr on `data` (1.0 if unreachable).
/// Exports the drift tracker's reference frame at model-build time: one
/// centroid per beat class present in `ds`, computed over the classifier's
/// own integer projections (the exact space observe() sees at runtime),
/// plus the within-class RMS sigma that normalizes every tracker
/// threshold. Use the training split (ts1) — the tracker's notion of
/// "looks like training data" should match what the NFC was fit on.
drift::TrainingCentroids compute_training_centroids(
    const embedded::EmbeddedClassifier& cls, const ecg::BeatDataset& ds);

double calibrate_alpha(const nfc::NeuroFuzzyClassifier& nfc,
                       const ProjectedDataset& data, double min_arr);

struct TwoStepConfig {
  std::size_t coefficients = 8;
  std::size_t downsample = 4;
  /// ARR constraint used for alpha_train calibration (paper: 97%).
  double min_arr = 0.97;
  nfc::TrainOptions nfc_train;
  opt::GaOptions ga;  // paper defaults: population 20, 30 generations
  std::uint64_t seed = 1;
  /// Executor threads for the GA's candidate fitness evaluations during
  /// run(). 0 = hardware concurrency, 1 = fully serial. The trained model
  /// and every metric are bit-identical for any value (see core::Executor).
  std::size_t threads = 0;
};

/// The trained artefact of the framework.
struct TrainedClassifier {
  rp::BeatProjector projector;
  nfc::NeuroFuzzyClassifier nfc;
  double alpha_train = 0.0;

  /// Quantizes into the deployable embedded form at threshold alpha_test
  /// (defaults to alpha_train).
  embedded::EmbeddedClassifier quantize(
      embedded::MfShape shape = embedded::MfShape::Linearized,
      double alpha_test = -1.0) const;
};

class TwoStepTrainer {
 public:
  /// ts1/ts2 per Table I; both must use the same window geometry.
  TwoStepTrainer(const ecg::BeatDataset& ts1, const ecg::BeatDataset& ts2,
                 TwoStepConfig cfg);

  /// Trains the NFC for one fixed projection and calibrates alpha on ts2.
  TrainedClassifier train_with_projection(const rp::TernaryMatrix& p) const;

  /// Fitness of a candidate projection (NDR on ts2 at the calibrated alpha).
  double fitness(const rp::TernaryMatrix& p) const;

  /// Full two-step optimization: GA over projections, returns the winner.
  TrainedClassifier run() const;

  /// GA convergence history of the last run() (best fitness per generation).
  const std::vector<double>& last_history() const { return history_; }

 private:
  const ecg::BeatDataset& ts1_;
  const ecg::BeatDataset& ts2_;
  // Both splits copied once into contiguous arenas; every candidate
  // evaluation then runs the batched, allocation-free path over them.
  BeatBatch batch1_;
  BeatBatch batch2_;
  TwoStepConfig cfg_;
  mutable std::vector<double> history_;
};

}  // namespace hbrp::core
