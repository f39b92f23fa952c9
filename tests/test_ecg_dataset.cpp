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
  EXPECT_EQ(ds.size(), spec.total());
}

TEST(Dataset, WindowsHaveRequestedShape) {
  DatasetBuilderConfig cfg = quick_cfg();
  cfg.window_before = 80;
  cfg.window_after = 120;
  const BeatDataset ds = hbrp::ecg::build_dataset({10, 5, 5}, cfg);
  EXPECT_EQ(ds.window_size(), 200u);
  EXPECT_EQ(ds.samples.size(), ds.size() * 200u);
  EXPECT_EQ(ds.window(ds.size() - 1).size(), 200u);
  EXPECT_THROW(ds.window(ds.size()), hbrp::Error);
}

TEST(Dataset, DeterministicInSeed) {
  const DatasetSpec spec{15, 10, 10};
  const BeatDataset a = hbrp::ecg::build_dataset(spec, quick_cfg(9));
  const BeatDataset b = hbrp::ecg::build_dataset(spec, quick_cfg(9));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(Dataset, RPeakCenteredWindows) {
  // The window is cut around the detected peak: the maximum of the
  // conditioned beat should sit near index `window_before` for N beats.
  const BeatDataset ds = hbrp::ecg::build_dataset({30, 1, 1}, quick_cfg(11));
  std::size_t near = 0, total = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.labels[i] != BeatClass::N) continue;
    const auto w = ds.window(i);
    const auto pos =
        static_cast<std::size_t>(std::max_element(w.begin(), w.end()) -
                                 w.begin());
    ++total;
    if (pos >= ds.window_before - 8 && pos <= ds.window_before + 8) ++near;
  }
  EXPECT_GT(static_cast<double>(near) / static_cast<double>(total), 0.9);
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
  EXPECT_EQ(back.labels, ds.labels);
  EXPECT_EQ(back.samples, ds.samples);
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

// The beat count in the header is bounded by the bytes that follow it, so
// a corrupt count fails as a truncated file instead of sizing the arena.
TEST(Dataset, LoadRejectsCountBeyondFileSize) {
  const fs::path path =
      fs::temp_directory_path() /
      ("hbrp_count_" + std::to_string(::getpid()) + ".bin");
  hbrp::ecg::save_dataset(hbrp::ecg::build_dataset({4, 2, 2}, quick_cfg(23)),
                          path);
  for (const std::uint64_t count : {std::uint64_t{9}, std::uint64_t{1} << 40}) {
    {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(24);  // magic (8) + fs, before, after, leads (4 each)
      f.write(reinterpret_cast<const char*>(&count), sizeof count);
    }
    EXPECT_THROW(hbrp::ecg::load_dataset(path), hbrp::Error) << count;
  }
  fs::remove(path);
}

// Each stored sample is a 4-byte int32, wider than a dsp::Sample. A value
// outside the conditioned range (|c| <= 4,095) would wrap when narrowed, so
// the loader refuses it; the range's own ends still load.
TEST(Dataset, LoadRejectsSampleOutsideConditionedRange) {
  const fs::path path =
      fs::temp_directory_path() /
      ("hbrp_range_" + std::to_string(::getpid()) + ".bin");
  BeatDataset ds = hbrp::ecg::build_dataset({4, 2, 2}, quick_cfg(29));
  ds.samples.front() = hbrp::dsp::kMaxConditioned;
  ds.samples.back() = -hbrp::dsp::kMaxConditioned;
  hbrp::ecg::save_dataset(ds, path);
  EXPECT_EQ(hbrp::ecg::load_dataset(path).samples, ds.samples);
  for (const std::int32_t bad : {4096, -4096, 40000, -65536}) {
    {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(33);  // header (32) + the first beat's label (1)
      const unsigned char le[4] = {
          static_cast<unsigned char>(bad), static_cast<unsigned char>(bad >> 8),
          static_cast<unsigned char>(bad >> 16),
          static_cast<unsigned char>(bad >> 24)};
      f.write(reinterpret_cast<const char*>(le), sizeof le);
    }
    EXPECT_THROW(hbrp::ecg::load_dataset(path), hbrp::Error) << bad;
  }
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
  EXPECT_EQ(second.labels, first.labels);
  EXPECT_EQ(second.samples, first.samples);
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
  for (std::size_t i = 0; i < ds.size(); ++i) {
    mix(static_cast<std::uint32_t>(ds.labels[i]), 1);
    for (const hbrp::dsp::Sample x : ds.window(i))
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

// FNV-1a of the bytes save_dataset() writes for a 3-lead dataset, pinned
// while each window still lived in its own heap vector: the arena changed
// the in-memory layout only, so caches written before it still load.
TEST(Dataset, SavedFileDigestIsPinned) {
  DatasetBuilderConfig cfg = quick_cfg(1515);
  cfg.max_per_record_per_class = 10;
  cfg.num_leads = 3;
  const BeatDataset ds = hbrp::ecg::build_dataset({30, 15, 15}, cfg);
  const fs::path path =
      fs::temp_directory_path() /
      ("hbrp_pinned_" + std::to_string(::getpid()) + ".bin");
  hbrp::ecg::save_dataset(ds, path);
  std::uint64_t h = 14695981039346656037ull;
  {
    std::ifstream in(path, std::ios::binary);
    for (char c; in.get(c);) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  EXPECT_EQ(fs::file_size(path), 32u + 60u * (1u + 600u * 4u));
  EXPECT_EQ(h, 0x1fe9858abb5e377dull);
  const BeatDataset back = hbrp::ecg::load_dataset(path);
  EXPECT_EQ(back.num_leads, 3u);
  EXPECT_EQ(back.labels, ds.labels);
  EXPECT_EQ(back.samples, ds.samples);
  fs::remove(path);
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
