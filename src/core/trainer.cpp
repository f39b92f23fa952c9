#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "math/check.hpp"
#include "math/fixed.hpp"

namespace hbrp::core {

namespace {

// Splits [0, n) into roughly even contiguous ranges, one per chunk; chunk
// boundaries depend only on (n, chunks), never on scheduling, so partial
// results always merge in the same order.
struct ChunkPlan {
  std::size_t n = 0;
  std::size_t chunks = 1;

  ChunkPlan(std::size_t total, const Executor* executor)
      : n(total),
        chunks(executor == nullptr || executor->threads() <= 1
                   ? 1
                   : std::min<std::size_t>(std::max<std::size_t>(total, 1),
                                           executor->threads() * 4)) {}

  std::size_t begin(std::size_t c) const { return c * n / chunks; }
  std::size_t end(std::size_t c) const { return (c + 1) * n / chunks; }
};

// The trainer's double-typed data is the node's integer projection,
// converted here and nowhere else: row i of the result is window_at(i)
// projected by project_int_into. The conversion is exact: a window of
// 12-bit codes projects to |u| <= d * 2^11, far below 2^31, let alone 2^53.
template <typename WindowAt>
math::Mat project_rows(std::size_t n, const rp::BeatProjector& projector,
                       WindowAt window_at) {
  math::Mat out(n, projector.coefficients());
  rp::ProjectionScratch scratch;
  std::vector<std::int32_t> u(projector.coefficients());
  for (std::size_t i = 0; i < n; ++i) {
    projector.project_int_into(window_at(i), u, scratch);
    std::copy(u.begin(), u.end(), out.row(i).begin());
  }
  return out;
}

}  // namespace

ProjectedDataset project_dataset(const ecg::BeatDataset& ds,
                                 const rp::BeatProjector& projector) {
  HBRP_REQUIRE(!ds.beats.empty(), "project_dataset(): empty dataset");
  HBRP_REQUIRE(ds.window_size() == projector.expected_window(),
               "project_dataset(): window/projector size mismatch");
  ProjectedDataset out;
  out.u = project_rows(ds.beats.size(), projector, [&ds](std::size_t i) {
    return std::span<const dsp::Sample>(ds.beats[i].samples);
  });
  out.labels.reserve(ds.beats.size());
  for (const ecg::BeatWindow& b : ds.beats) out.labels.push_back(b.label);
  return out;
}

ProjectedDataset project_dataset(const BeatBatch& batch,
                                 const rp::BeatProjector& projector) {
  HBRP_REQUIRE(!batch.empty(), "project_dataset(): empty batch");
  HBRP_REQUIRE(batch.window_length() == projector.expected_window(),
               "project_dataset(): window/projector size mismatch");
  ProjectedDataset out;
  out.u = project_rows(batch.size(), projector,
                       [&batch](std::size_t i) { return batch.window(i); });
  out.labels.assign(batch.labels().begin(), batch.labels().end());
  return out;
}

ConfusionMatrix evaluate(const nfc::NeuroFuzzyClassifier& nfc,
                         const ProjectedDataset& data, double alpha,
                         const Executor* executor) {
  const std::size_t k = data.u.cols();
  const ChunkPlan plan(data.u.rows(), executor);
  if (plan.chunks == 1) {
    std::vector<ecg::BeatClass> decisions(data.u.rows());
    nfc.classify_batch(data.u.flat(), data.u.rows(), alpha, decisions);
    ConfusionMatrix cm;
    for (std::size_t i = 0; i < data.u.rows(); ++i)
      cm.add(data.labels[i], decisions[i]);
    return cm;
  }
  std::vector<ConfusionMatrix> parts(plan.chunks);
  executor->parallel_for(plan.chunks, [&](std::size_t c) {
    const std::size_t begin = plan.begin(c);
    const std::size_t count = plan.end(c) - begin;
    if (count == 0) return;
    std::vector<ecg::BeatClass> decisions(count);
    nfc.classify_batch(data.u.flat().subspan(begin * k, count * k), count,
                       alpha, decisions);
    for (std::size_t i = 0; i < count; ++i)
      parts[c].add(data.labels[begin + i], decisions[i]);
  });
  ConfusionMatrix cm;
  for (const ConfusionMatrix& part : parts) cm.merge(part);
  return cm;
}

ConfusionMatrix evaluate_embedded(const embedded::EmbeddedClassifier& cls,
                                  const ecg::BeatDataset& ds) {
  ConfusionMatrix cm;
  rp::ProjectionScratch scratch;
  std::vector<std::int32_t> u(cls.projector().coefficients());
  for (const ecg::BeatWindow& b : ds.beats) {
    cls.projector().project_int_into(b.samples, u, scratch);
    cm.add(b.label, cls.classifier().classify(u, cls.alpha_q16()));
  }
  return cm;
}

ConfusionMatrix evaluate_embedded(const embedded::EmbeddedClassifier& cls,
                                  const BeatBatch& batch,
                                  const Executor* executor) {
  const std::size_t w = batch.window_length();
  const ChunkPlan plan(batch.size(), executor);
  if (plan.chunks == 1) {
    embedded::ClassifyScratch scratch;
    std::vector<ecg::BeatClass> decisions(batch.size());
    cls.classify_batch(batch.windows(), batch.size(), decisions, scratch);
    ConfusionMatrix cm;
    for (std::size_t i = 0; i < batch.size(); ++i)
      cm.add(batch.label(i), decisions[i]);
    return cm;
  }
  std::vector<ConfusionMatrix> parts(plan.chunks);
  executor->parallel_for(plan.chunks, [&](std::size_t c) {
    const std::size_t begin = plan.begin(c);
    const std::size_t count = plan.end(c) - begin;
    if (count == 0) return;
    embedded::ClassifyScratch scratch;
    std::vector<ecg::BeatClass> decisions(count);
    cls.classify_batch(batch.windows().subspan(begin * w, count * w), count,
                       decisions, scratch);
    for (std::size_t i = 0; i < count; ++i)
      parts[c].add(batch.label(begin + i), decisions[i]);
  });
  ConfusionMatrix cm;
  for (const ConfusionMatrix& part : parts) cm.merge(part);
  return cm;
}

double calibrate_alpha(const nfc::NeuroFuzzyClassifier& nfc,
                       const ProjectedDataset& data, double min_arr) {
  HBRP_REQUIRE(min_arr > 0.0 && min_arr <= 1.0,
               "calibrate_alpha(): min_arr must be in (0, 1]");
  std::size_t abnormal_total = 0;
  std::size_t recognized_at_zero = 0;
  // Critical alphas of abnormal beats whose argmax is N: the beat flips to
  // Unknown (recognized) once alpha exceeds its margin (M1 - M2) / S.
  std::vector<double> critical;
  for (std::size_t i = 0; i < data.u.rows(); ++i) {
    if (data.labels[i] == ecg::BeatClass::N) continue;
    ++abnormal_total;
    const nfc::FuzzyValues f = nfc.fuzzy(data.u.row(i));
    const ecg::BeatClass at_zero = nfc::defuzzify(f, 0.0);
    if (ecg::is_pathological(at_zero)) {
      ++recognized_at_zero;
      continue;
    }
    double m1 = f[0], m2 = -1.0, sum = 0.0;
    std::size_t best = 0;
    for (std::size_t l = 1; l < f.size(); ++l)
      if (f[l] > f[best]) best = l;
    m1 = f[best];
    for (std::size_t l = 0; l < f.size(); ++l) {
      sum += f[l];
      if (l != best) m2 = std::max(m2, f[l]);
    }
    critical.push_back(sum > 0.0 ? (m1 - m2) / sum : 0.0);
  }
  HBRP_REQUIRE(abnormal_total > 0,
               "calibrate_alpha(): dataset has no abnormal beats");

  const auto needed = static_cast<std::size_t>(
      std::ceil(min_arr * static_cast<double>(abnormal_total)));
  if (recognized_at_zero >= needed) return 0.0;
  const std::size_t flip = needed - recognized_at_zero;
  if (flip > critical.size()) return 1.0;  // unreachable even at alpha = 1

  std::sort(critical.begin(), critical.end());
  // Alpha just above the flip-th smallest margin converts exactly those
  // beats to Unknown.
  const double alpha = std::nextafter(critical[flip - 1], 2.0) + 1e-12;
  return std::min(alpha, 1.0);
}

embedded::EmbeddedClassifier TrainedClassifier::quantize(
    embedded::MfShape shape, double alpha_test) const {
  const double alpha = alpha_test < 0.0 ? alpha_train : alpha_test;
  return embedded::EmbeddedClassifier(
      projector, embedded::IntClassifier::from_float(nfc, shape),
      math::to_q16(alpha));
}

TwoStepTrainer::TwoStepTrainer(const ecg::BeatDataset& ts1,
                               const ecg::BeatDataset& ts2, TwoStepConfig cfg)
    : ts1_(ts1),
      ts2_(ts2),
      batch1_(BeatBatch::from_dataset(ts1)),
      batch2_(BeatBatch::from_dataset(ts2)),
      cfg_(std::move(cfg)) {
  HBRP_REQUIRE(ts1.window_size() == ts2.window_size(),
               "TwoStepTrainer: split window geometry mismatch");
  HBRP_REQUIRE(ts1.window_size() % cfg_.downsample == 0,
               "TwoStepTrainer: window not divisible by downsample factor");
  HBRP_REQUIRE(cfg_.coefficients >= 1, "TwoStepTrainer: coefficients >= 1");
}

TrainedClassifier TwoStepTrainer::train_with_projection(
    const rp::TernaryMatrix& p) const {
  rp::BeatProjector projector(p, cfg_.downsample);
  const ProjectedDataset d1 = project_dataset(batch1_, projector);
  nfc::NeuroFuzzyClassifier classifier(cfg_.coefficients);
  nfc::train(classifier, d1.u, d1.labels, cfg_.nfc_train);
  const ProjectedDataset d2 = project_dataset(batch2_, projector);
  const double alpha = calibrate_alpha(classifier, d2, cfg_.min_arr);
  return TrainedClassifier{std::move(projector), std::move(classifier),
                           alpha};
}

drift::TrainingCentroids compute_training_centroids(
    const embedded::EmbeddedClassifier& cls, const ecg::BeatDataset& ds) {
  HBRP_REQUIRE(!ds.beats.empty(),
               "compute_training_centroids: empty dataset");
  HBRP_REQUIRE(ds.window_size() == cls.projector().expected_window(),
               "compute_training_centroids: window geometry mismatch");
  const std::size_t k = cls.projector().coefficients();

  // One accumulator per BeatClass value; classes absent from the dataset
  // simply export no centroid.
  constexpr std::size_t kClasses = 4;
  std::vector<std::vector<double>> sum(kClasses,
                                       std::vector<double>(k, 0.0));
  std::vector<std::vector<double>> sumsq(kClasses,
                                         std::vector<double>(k, 0.0));
  std::vector<double> count(kClasses, 0.0);

  rp::ProjectionScratch scratch;
  std::vector<std::int32_t> u(k);
  for (const auto& beat : ds.beats) {
    cls.projector().project_int_into(beat.samples, u, scratch);
    const auto c = static_cast<std::size_t>(beat.label);
    count[c] += 1.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double x = static_cast<double>(u[i]);
      sum[c][i] += x;
      sumsq[c][i] += x * x;
    }
  }

  drift::TrainingCentroids out;
  out.coefficients = k;
  double var_acc = 0.0;
  double var_n = 0.0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    if (count[c] == 0.0) continue;
    drift::TrainingCentroids::Centroid centroid;
    centroid.mean.resize(k);
    centroid.mass = count[c];
    double class_var = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double mean = sum[c][i] / count[c];
      centroid.mean[i] = mean;
      const double var = sumsq[c][i] / count[c] - mean * mean;
      class_var += var;
      var_acc += var;
      var_n += 1.0;
    }
    // This class's own RMS sigma across coefficients: the unit the
    // tracker's novelty distance to this centroid is measured in, so a
    // naturally wide class (V spans far more of RP space than N) is not
    // judged by the narrow classes' yardstick. Same degenerate-data floor
    // as the global scale below.
    centroid.sigma = std::max(
        1.0, std::sqrt(std::max(0.0, class_var / static_cast<double>(k))));
    out.centroids.push_back(std::move(centroid));
  }
  // Within-class RMS sigma over every (class, coefficient) pair: the unit
  // the tracker's thresholds are expressed in. Floored at 1 so a
  // degenerate dataset cannot produce a zero/NaN normalizer (integer
  // projections have sigma >> 1 in practice).
  out.scale = std::max(1.0, std::sqrt(std::max(0.0, var_acc / var_n)));
  return out;
}

double TwoStepTrainer::fitness(const rp::TernaryMatrix& p) const {
  const TrainedClassifier trained = train_with_projection(p);
  const ProjectedDataset d2 = project_dataset(batch2_, trained.projector);
  return evaluate(trained.nfc, d2, trained.alpha_train).ndr();
}

TrainedClassifier TwoStepTrainer::run() const {
  const std::size_t d = ts1_.window_size() / cfg_.downsample;
  opt::GaOptions ga = cfg_.ga;
  ga.seed = cfg_.seed;
  // Candidate evaluations fan out across the executor; breeding stays on
  // this thread, so the GA's RNG stream — and therefore the result — is
  // bit-identical for any thread count.
  const Executor executor(cfg_.threads);
  ga.executor = &executor;
  const opt::GaResult result = opt::optimize_projection(
      cfg_.coefficients, d,
      [this](const rp::TernaryMatrix& p) { return fitness(p); }, ga);
  history_ = result.history;
  return train_with_projection(result.best);
}

}  // namespace hbrp::core
