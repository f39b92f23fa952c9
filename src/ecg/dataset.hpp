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
#include <span>
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

/// Labeled beat windows (conditioned samples at the acquisition rate),
/// back to back in one arena: beat i occupies samples [i*W, (i+1)*W) with
/// W = window_size(), and labels[i] is its class. For multi-lead datasets
/// each window concatenates the per-lead windows lead-major:
/// [lead0 window | lead1 window | ...].
struct BeatDataset {
  int fs_hz = dsp::kMitBihFs;
  std::size_t window_before = 100;
  std::size_t window_after = 100;
  std::size_t num_leads = 1;
  std::vector<dsp::Sample> samples;
  std::vector<BeatClass> labels;

  /// Total samples per beat across all leads.
  std::size_t window_size() const {
    return num_leads * (window_before + window_after);
  }
  std::size_t size() const { return labels.size(); }
  bool empty() const { return labels.empty(); }
  /// Window of beat i, a view into the arena.
  std::span<const dsp::Sample> window(std::size_t i) const;
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
