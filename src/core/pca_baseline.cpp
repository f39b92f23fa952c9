#include "core/pca_baseline.hpp"

#include "dsp/resample.hpp"
#include "math/check.hpp"

namespace hbrp::core {

math::Mat dataset_matrix(const ecg::BeatDataset& ds, std::size_t downsample) {
  HBRP_REQUIRE(!ds.empty(), "dataset_matrix(): empty dataset");
  HBRP_REQUIRE(ds.window_size() % downsample == 0,
               "dataset_matrix(): window not divisible by downsample");
  const std::size_t d = ds.window_size() / downsample;
  math::Mat out(ds.size(), d);
  dsp::Signal w(d);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    dsp::downsample_avg_into(ds.window(i), downsample, w);
    for (std::size_t c = 0; c < d; ++c)
      out.at(i, c) = static_cast<double>(w[c]);
  }
  return out;
}

PcaClassifier train_pca_baseline(const ecg::BeatDataset& ts1,
                                 const ecg::BeatDataset& ts2,
                                 const PcaBaselineConfig& cfg) {
  const math::Mat x1 = dataset_matrix(ts1, cfg.downsample);
  PcaClassifier cls{math::Pca::fit(x1, cfg.coefficients),
                    nfc::NeuroFuzzyClassifier(cfg.coefficients), 0.0,
                    cfg.downsample};

  ProjectedDataset d1;
  d1.u = cls.pca.transform(x1);
  d1.labels = ts1.labels;
  nfc::train(cls.nfc, d1.u, d1.labels, cfg.nfc_train);

  const ProjectedDataset d2 = project_dataset(ts2, cls);
  cls.alpha_train = calibrate_alpha(cls.nfc, d2, cfg.min_arr);
  return cls;
}

ProjectedDataset project_dataset(const ecg::BeatDataset& ds,
                                 const PcaClassifier& cls) {
  ProjectedDataset out;
  out.u = cls.pca.transform(dataset_matrix(ds, cls.downsample));
  out.labels = ds.labels;
  return out;
}

}  // namespace hbrp::core
