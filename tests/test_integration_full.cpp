// Full-system integration: the entire lifecycle a downstream user would
// run — build datasets, train the two-step framework, persist the model as
// a bundle, reload it, deploy it into both the batch pipeline and the streaming
// monitor against a WFDB-round-tripped record, and check the figures of
// merit end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/mitdb.hpp"
#include "lifecycle/bundle.hpp"

namespace {

namespace fs = std::filesystem;

TEST(IntegrationFull, TrainPersistDeployClassify) {
  using namespace hbrp;

  // 1. Datasets.
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 120.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 71;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 80;
  dcfg.seed = 72;
  const auto ts2 = ecg::build_dataset({1500, 140, 170}, dcfg);

  // 2. Two-step training.
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 4;
  tcfg.ga.generations = 2;
  tcfg.seed = 73;
  const core::TwoStepTrainer trainer(ts1, ts2, tcfg);
  const auto trained = trainer.run();

  // 3. Persist + reload as a deployment bundle.
  const fs::path model_path =
      fs::temp_directory_path() /
      ("hbrp_integration_" + std::to_string(::getpid()) + ".bundle");
  // Version 1, no drift seeds, deployed at alpha_train.
  lifecycle::save_bundle({1, trained, {}, -1.0}, model_path);
  const auto reloaded = lifecycle::load_bundle(model_path).model;
  fs::remove(model_path);

  // 4. A test record that has been through the WFDB on-disk format.
  ecg::SynthConfig scfg;
  scfg.profile = ecg::RecordProfile::PvcBigeminy;
  scfg.duration_s = 90.0;
  scfg.num_leads = 2;
  scfg.seed = 74;
  ecg::Record rec = ecg::generate_record(scfg);
  rec.name = "int100";
  const fs::path wfdb_dir =
      fs::temp_directory_path() /
      ("hbrp_integration_wfdb_" + std::to_string(::getpid()));
  ecg::mitdb::write_record(rec, wfdb_dir);
  const ecg::Record from_disk = ecg::mitdb::read_record(wfdb_dir, "int100");
  fs::remove_all(wfdb_dir);
  ASSERT_EQ(from_disk.beats.size(), rec.beats.size());

  // 5. Batch pipeline on the reloaded model.
  const core::RealTimePipeline pipeline(reloaded.quantize());
  const auto result = pipeline.process(from_disk);
  EXPECT_GT(result.beats.size(), from_disk.beats.size() * 85 / 100);

  // The reloaded model classifies every beat exactly as the trained one.
  const auto direct =
      core::RealTimePipeline(trained.quantize()).process(from_disk);
  ASSERT_EQ(direct.beats.size(), result.beats.size());
  for (std::size_t i = 0; i < result.beats.size(); ++i)
    EXPECT_EQ(direct.beats[i].predicted, result.beats[i].predicted)
        << "beat " << i;

  // Score against the annotations (they survived the WFDB round trip).
  core::ConfusionMatrix cm;
  std::size_t ai = 0;
  for (const auto& b : result.beats) {
    while (ai < from_disk.beats.size() &&
           from_disk.beats[ai].sample + 20 < b.r_peak)
      ++ai;
    if (ai < from_disk.beats.size() &&
        from_disk.beats[ai].sample <= b.r_peak + 20)
      cm.add(from_disk.beats[ai].cls, b.predicted);
  }
  EXPECT_GT(cm.total(), 80u);
  EXPECT_GT(cm.arr(), 0.7);
  EXPECT_GT(cm.ndr(), 0.6);

  // 6. Streaming monitor agrees with the batch pipeline on this record.
  // The monitor finds the beats; each window is classified here, as a node
  // does.
  const embedded::EmbeddedClassifier node_classifier = reloaded.quantize();
  core::StreamingBeatMonitor monitor(node_classifier);
  std::vector<core::MonitorBeat> streamed;
  embedded::ClassifyScratch scratch;
  const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
    core::MonitorBeat beat = pb.beat;
    if (pb.needs_classification)
      beat.predicted = node_classifier.classify_window(pb.window, scratch);
    streamed.push_back(beat);
  };
  for (const auto x : from_disk.leads[0]) monitor.push(x, sink);
  monitor.flush(sink);

  std::size_t agree = 0, compared = 0;
  for (const auto& b : result.beats) {
    if (b.r_peak < 1000 || b.r_peak + 1000 > from_disk.leads[0].size())
      continue;
    for (const auto& s : streamed) {
      if (s.r_peak + 5 >= b.r_peak && s.r_peak <= b.r_peak + 5) {
        ++compared;
        agree += (s.predicted == b.predicted);
        break;
      }
    }
  }
  ASSERT_GT(compared, 50u);
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(compared), 0.95);
}

}  // namespace
