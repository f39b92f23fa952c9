// Tests for dataset assembly (Table I splits) and serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <unistd.h>
#include <filesystem>
#include <fstream>

#include "ecg/dataset.hpp"

namespace {

namespace fs = std::filesystem;
using hbrp::ecg::BeatClass;
using hbrp::ecg::BeatDataset;
using hbrp::ecg::DatasetBuilderConfig;
using hbrp::ecg::DatasetSpec;

DatasetBuilderConfig quick_cfg(std::uint64_t seed = 7) {
  DatasetBuilderConfig cfg;
  cfg.record_duration_s = 90.0;  // short records keep tests fast
  cfg.seed = seed;
  return cfg;
}

TEST(Dataset, FillsExactQuotas) {
  const DatasetSpec spec{40, 25, 30};
  const BeatDataset ds = hbrp::ecg::build_dataset(spec, quick_cfg());
  const DatasetSpec c = ds.counts();
  EXPECT_EQ(c.n, 40u);
  EXPECT_EQ(c.v, 25u);
  EXPECT_EQ(c.l, 30u);
  EXPECT_EQ(ds.beats.size(), spec.total());
}

TEST(Dataset, WindowsHaveRequestedShape) {
  DatasetBuilderConfig cfg = quick_cfg();
  cfg.window_before = 80;
  cfg.window_after = 120;
  const BeatDataset ds = hbrp::ecg::build_dataset({10, 5, 5}, cfg);
  EXPECT_EQ(ds.window_size(), 200u);
  for (const auto& b : ds.beats) EXPECT_EQ(b.samples.size(), 200u);
}

TEST(Dataset, DeterministicInSeed) {
  const DatasetSpec spec{15, 10, 10};
  const BeatDataset a = hbrp::ecg::build_dataset(spec, quick_cfg(9));
  const BeatDataset b = hbrp::ecg::build_dataset(spec, quick_cfg(9));
  ASSERT_EQ(a.beats.size(), b.beats.size());
  for (std::size_t i = 0; i < a.beats.size(); ++i) {
    EXPECT_EQ(a.beats[i].label, b.beats[i].label);
    EXPECT_EQ(a.beats[i].samples, b.beats[i].samples);
  }
}

TEST(Dataset, RPeakCenteredWindows) {
  // The window is cut around the detected peak: the maximum of the
  // conditioned beat should sit near index `window_before` for N beats.
  const BeatDataset ds = hbrp::ecg::build_dataset({30, 1, 1}, quick_cfg(11));
  std::size_t near = 0, total = 0;
  for (const auto& b : ds.beats) {
    if (b.label != BeatClass::N) continue;
    const auto it = std::max_element(b.samples.begin(), b.samples.end());
    const auto pos =
        static_cast<std::size_t>(it - b.samples.begin());
    ++total;
    if (pos >= ds.window_before - 8 && pos <= ds.window_before + 8) ++near;
  }
  EXPECT_GT(static_cast<double>(near) / static_cast<double>(total), 0.9);
}

TEST(Dataset, OracleAndDetectedPeaksBothWork) {
  DatasetBuilderConfig cfg = quick_cfg(13);
  cfg.use_detected_peaks = false;
  const BeatDataset oracle = hbrp::ecg::build_dataset({20, 10, 10}, cfg);
  EXPECT_EQ(oracle.beats.size(), 40u);
}

TEST(Dataset, EmptySpecThrows) {
  EXPECT_THROW(hbrp::ecg::build_dataset({0, 0, 0}, quick_cfg()), hbrp::Error);
}

TEST(Dataset, SaveLoadRoundTrip) {
  const fs::path path =
      fs::temp_directory_path() /
      ("hbrp_ds_" + std::to_string(::getpid()) + ".bin");
  const BeatDataset ds = hbrp::ecg::build_dataset({12, 6, 6}, quick_cfg(17));
  hbrp::ecg::save_dataset(ds, path);
  const BeatDataset back = hbrp::ecg::load_dataset(path);
  EXPECT_EQ(back.fs_hz, ds.fs_hz);
  EXPECT_EQ(back.window_before, ds.window_before);
  EXPECT_EQ(back.window_after, ds.window_after);
  ASSERT_EQ(back.beats.size(), ds.beats.size());
  for (std::size_t i = 0; i < ds.beats.size(); ++i) {
    EXPECT_EQ(back.beats[i].label, ds.beats[i].label);
    EXPECT_EQ(back.beats[i].samples, ds.beats[i].samples);
  }
  fs::remove(path);
}

TEST(Dataset, LoadMissingFileThrows) {
  EXPECT_THROW(hbrp::ecg::load_dataset("/nonexistent/x.bin"), hbrp::Error);
}

TEST(Dataset, LoadRejectsCorruptMagic) {
  const fs::path path =
      fs::temp_directory_path() /
      ("hbrp_bad_" + std::to_string(::getpid()) + ".bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTADATASET";
  }
  EXPECT_THROW(hbrp::ecg::load_dataset(path), hbrp::Error);
  fs::remove(path);
}

TEST(Dataset, LoadOrBuildUsesCache) {
  const fs::path path =
      fs::temp_directory_path() /
      ("hbrp_cache_" + std::to_string(::getpid()) + ".bin");
  fs::remove(path);
  const DatasetSpec spec{8, 4, 4};
  const BeatDataset first = hbrp::ecg::load_or_build(path, spec, quick_cfg(19));
  EXPECT_TRUE(fs::exists(path));
  const BeatDataset second =
      hbrp::ecg::load_or_build(path, spec, quick_cfg(19));
  ASSERT_EQ(second.beats.size(), first.beats.size());
  for (std::size_t i = 0; i < first.beats.size(); ++i)
    EXPECT_EQ(second.beats[i].samples, first.beats[i].samples);
  fs::remove(path);
}

TEST(Dataset, LoadOrBuildRebuildsOnSpecMismatch) {
  const fs::path path =
      fs::temp_directory_path() /
      ("hbrp_stale_" + std::to_string(::getpid()) + ".bin");
  fs::remove(path);
  hbrp::ecg::load_or_build(path, {8, 4, 4}, quick_cfg(21));
  const BeatDataset rebuilt =
      hbrp::ecg::load_or_build(path, {10, 5, 5}, quick_cfg(21));
  const DatasetSpec c = rebuilt.counts();
  EXPECT_EQ(c.n, 10u);
  EXPECT_EQ(c.v, 5u);
  EXPECT_EQ(c.l, 5u);
  fs::remove(path);
}

// FNV-1a over every window's label and samples, in dataset order. Samples
// are mixed as little-endian 32-bit words, so the digest is host-independent.
std::uint64_t dataset_digest(const BeatDataset& ds) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint32_t word, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& b : ds.beats) {
    mix(static_cast<std::uint32_t>(b.label), 1);
    for (const hbrp::dsp::Sample x : b.samples)
      mix(static_cast<std::uint32_t>(x), 4);
  }
  return h;
}

// Golden digests of the training data, committed while build_dataset still
// ran the dsp:: reference chain. Whatever kernels condition and detect, a
// single moved training sample fails here, and with it the Table II/III
// numbers of EXPERIMENTS.md. Also run under HBRP_FORCE_SCALAR=1.
TEST(Dataset, OutputDigestIsPinned) {
  DatasetBuilderConfig cfg = quick_cfg(1515);
  cfg.max_per_record_per_class = 10;
  const DatasetSpec spec{30, 15, 15};
  EXPECT_EQ(dataset_digest(hbrp::ecg::build_dataset(spec, cfg)),
            0x091ca3272124a375ull);
  cfg.num_leads = 3;
  EXPECT_EQ(dataset_digest(hbrp::ecg::build_dataset(spec, cfg)),
            0x37ad9c7432ef78caull);
}

TEST(Dataset, PaperSpecsMatchTableOne) {
  EXPECT_EQ(hbrp::ecg::kTrainingSet1.total(), 450u);
  EXPECT_EQ(hbrp::ecg::kTrainingSet2.total(), 12000u);
  EXPECT_EQ(hbrp::ecg::kTestSet.total(), 89012u);
  EXPECT_EQ(hbrp::ecg::kTestSet.n, 74355u);
  EXPECT_EQ(hbrp::ecg::kTestSet.v, 6618u);
  EXPECT_EQ(hbrp::ecg::kTestSet.l, 8039u);
}

}  // namespace
