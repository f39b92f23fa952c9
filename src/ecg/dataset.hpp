// Labeled beat-window datasets (Table I of the paper).
//
// The paper trains and evaluates on beat windows of 100 samples before +
// 100 after each R peak at 360 Hz, extracted from MIT-BIH recordings after
// filtering and peak detection. This module assembles the same three splits
// from synthetic records:
//     training set 1:   150 N /   150 V /   150 L   (NFC training, SCG)
//     training set 2: 10024 N /   892 V /  1084 L   (projection fitness, GA)
//     test set:       74355 N /  6618 V /  8039 L   (all reported results)
// Windows are cut around *detected* peaks (the real pipeline's behaviour):
// each lead is conditioned and lead 0 scanned by the same block kernels
// (src/kernels) the streaming monitor runs, so training data and streaming
// share one DSP chain. Labels come from matching detections to generator
// annotations.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "dsp/peak_detect.hpp"
#include "ecg/synth.hpp"
#include "ecg/types.hpp"

namespace hbrp::ecg {

/// Per-class beat quotas of one split.
struct DatasetSpec {
  std::size_t n = 0;
  std::size_t v = 0;
  std::size_t l = 0;

  std::size_t total() const { return n + v + l; }
};

/// The paper's three splits (Table I).
inline constexpr DatasetSpec kTrainingSet1{150, 150, 150};
inline constexpr DatasetSpec kTrainingSet2{10024, 892, 1084};
inline constexpr DatasetSpec kTestSet{74355, 6618, 8039};

/// One labeled beat window (conditioned samples at the acquisition rate).
/// For multi-lead datasets the per-lead windows are concatenated
/// lead-major: [lead0 window | lead1 window | ...].
struct BeatWindow {
  dsp::Signal samples;
  BeatClass label = BeatClass::N;
};

struct BeatDataset {
  int fs_hz = dsp::kMitBihFs;
  std::size_t window_before = 100;
  std::size_t window_after = 100;
  std::size_t num_leads = 1;
  std::vector<BeatWindow> beats;

  /// Total samples per beat across all leads.
  std::size_t window_size() const {
    return num_leads * (window_before + window_after);
  }
  DatasetSpec counts() const;
};

struct DatasetBuilderConfig {
  std::size_t window_before = 100;
  std::size_t window_after = 100;
  /// Leads per beat window (concatenated). The paper classifies on a single
  /// lead; 3 reproduces the multi-lead random-projection features of its
  /// inspiration work [18] (see bench_extension_multilead).
  std::size_t num_leads = 1;
  /// Synthetic record length; shorter records mean more distinct "patients".
  double record_duration_s = 600.0;
  /// Peak-to-annotation matching tolerance in samples (~42 ms at 360 Hz).
  std::size_t match_tolerance = 15;
  /// When false, windows are cut on annotated peaks (oracle; for ablation).
  bool use_detected_peaks = true;
  /// Cap on beats taken per class from any single record, so small splits
  /// still span many "patients" (morphology templates). Training on beats
  /// of one or two records would underestimate within-class variance and
  /// produce overconfident, quantization-hostile membership functions.
  std::size_t max_per_record_per_class = 400;
  std::uint64_t seed = 20130318;  // DATE'13 session date
};

/// Builds a dataset satisfying `spec` by generating records until all class
/// quotas are filled. Deterministic in cfg.seed.
BeatDataset build_dataset(const DatasetSpec& spec,
                          const DatasetBuilderConfig& cfg = {});

/// Binary (de)serialization, so expensive splits are built once per machine.
void save_dataset(const BeatDataset& ds, const std::filesystem::path& path);
BeatDataset load_dataset(const std::filesystem::path& path);

/// Loads `path` if present, otherwise builds per `spec`/`cfg` and saves.
BeatDataset load_or_build(const std::filesystem::path& path,
                          const DatasetSpec& spec,
                          const DatasetBuilderConfig& cfg = {});

/// Default cache location for the three paper splits, derived from the
/// HBRP_CACHE_DIR environment variable or /tmp/hbrp-cache.
std::filesystem::path default_cache_dir();

/// Convenience: the three paper splits with caching, sharing one seed base.
struct PaperSplits {
  BeatDataset training1;
  BeatDataset training2;
  BeatDataset test;
};
PaperSplits load_paper_splits(double test_scale = 1.0);

}  // namespace hbrp::ecg
