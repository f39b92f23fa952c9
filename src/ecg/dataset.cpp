#include "ecg/dataset.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"
#include "math/check.hpp"
#include "math/endian.hpp"
#include "math/rng.hpp"

namespace hbrp::ecg {

namespace {

/// Peak-to-annotation matching tolerance in samples (~42 ms at 360 Hz).
constexpr std::size_t kMatchTolerance = 15;

// Matches detected peaks to annotations (both sorted). Returns, per
// annotation, the index of its matched detection or npos.
std::vector<std::size_t> match_annotations(
    const std::vector<std::size_t>& detected,
    const std::vector<BeatAnnotation>& annotations, std::size_t tolerance) {
  constexpr auto npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> match(annotations.size(), npos);
  std::size_t di = 0;
  for (std::size_t ai = 0; ai < annotations.size(); ++ai) {
    const std::size_t ref = annotations[ai].sample;
    while (di < detected.size() && detected[di] + tolerance < ref) ++di;
    // Choose the closest detection within tolerance.
    std::size_t best = npos;
    std::size_t best_dist = tolerance + 1;
    for (std::size_t j = di; j < detected.size(); ++j) {
      if (detected[j] > ref + tolerance) break;
      const std::size_t dist =
          detected[j] > ref ? detected[j] - ref : ref - detected[j];
      if (dist < best_dist) {
        best_dist = dist;
        best = j;
      }
    }
    match[ai] = best;
  }
  return match;
}

RecordProfile pick_profile(const DatasetSpec& remaining, std::size_t round) {
  if (remaining.l > 0) return RecordProfile::Lbbb;
  if (remaining.v > 0)
    // Alternate PVC densities for rhythm variety.
    return round % 2 == 0 ? RecordProfile::PvcBigeminy
                          : RecordProfile::PvcOccasional;
  return RecordProfile::NormalSinus;
}

constexpr char kMagic[8] = {'H', 'B', 'R', 'P', 'D', 'S', '0', '2'};

/// Every stored sample takes a little-endian int32, whatever the width of
/// dsp::Sample: the format predates 16-bit samples, and caches written
/// before them keep loading.
constexpr std::size_t kStoredSampleBytes = 4;

template <typename T>
void put(std::ofstream& out, T value) {
  unsigned char bytes[sizeof(T)];
  math::store_le(bytes, value);
  out.write(reinterpret_cast<const char*>(bytes), sizeof(T));
}

template <typename T>
T get(std::ifstream& in) {
  unsigned char bytes[sizeof(T)];
  in.read(reinterpret_cast<char*>(bytes), sizeof(T));
  HBRP_REQUIRE(in.good(), "dataset: truncated file");
  return math::load_le<T>(bytes);
}

}  // namespace

std::span<const dsp::Sample> BeatDataset::window(std::size_t i) const {
  const std::size_t w = window_size();
  HBRP_REQUIRE(i < size() && (i + 1) * w <= samples.size(),
               "BeatDataset::window(): index out of range");
  return {samples.data() + i * w, w};
}

DatasetSpec BeatDataset::counts() const {
  DatasetSpec c;
  for (const BeatClass label : labels) {
    switch (label) {
      case BeatClass::N: ++c.n; break;
      case BeatClass::V: ++c.v; break;
      case BeatClass::L: ++c.l; break;
      case BeatClass::Unknown: break;
    }
  }
  return c;
}

BeatDataset build_dataset(const DatasetSpec& spec,
                          const DatasetBuilderConfig& cfg) {
  HBRP_REQUIRE(spec.total() > 0, "build_dataset(): empty spec");
  HBRP_REQUIRE(cfg.num_leads >= 1 && cfg.num_leads <= 3,
               "build_dataset(): 1..3 leads supported");
  BeatDataset ds;
  ds.window_before = cfg.window_before;
  ds.window_after = cfg.window_after;
  ds.num_leads = cfg.num_leads;
  ds.samples.reserve(spec.total() * ds.window_size());
  ds.labels.reserve(spec.total());

  DatasetSpec remaining = spec;
  math::Rng rng(cfg.seed);
  const auto filter_cfg = dsp::FilterConfig::for_rate(dsp::kMitBihFs);
  const dsp::PeakDetectorConfig det_cfg;

  // Beats too close to the record edge would have heavily clamped windows.
  const std::size_t edge_guard =
      std::max(cfg.window_before, cfg.window_after) + dsp::kMitBihFs / 2;

  std::size_t round = 0;
  const std::size_t max_records = 4000;
  for (; remaining.total() > 0; ++round) {
    HBRP_REQUIRE(round < max_records,
                 "build_dataset(): could not fill quotas — generator mix "
                 "cannot reach the requested class counts");
    SynthConfig sc;
    sc.profile = pick_profile(remaining, round);
    sc.duration_s = cfg.record_duration_s;
    sc.num_leads = static_cast<int>(cfg.num_leads);
    sc.seed = rng.next();
    const Record rec = generate_record(sc);

    // Lead 0 is the reference for peak detection; all leads contribute
    // window samples. Conditioning and detection run the block kernels the
    // streaming monitor runs, so training and streaming share one DSP chain.
    std::vector<dsp::Signal> conditioned_leads(rec.leads.size());
    std::vector<std::size_t> peaks;
    {
      // Scratch sized to this record only, freed before its windows are
      // cut: one held across records would keep the largest record's
      // intermediates alive for the whole build.
      kernels::ConditionScratch condition_scratch;
      for (std::size_t i = 0; i < rec.leads.size(); ++i)
        kernels::condition_ecg_block(rec.leads[i], filter_cfg,
                                     condition_scratch, conditioned_leads[i]);
      kernels::PeakScratch peak_scratch;
      kernels::detect_r_peaks_block(conditioned_leads[0], det_cfg,
                                    peak_scratch, peaks);
    }
    const dsp::Signal& conditioned = conditioned_leads[0];
    const std::vector<std::size_t> match =
        match_annotations(peaks, rec.beats, kMatchTolerance);

    std::array<std::size_t, kNumClasses> taken_this_record{};
    for (std::size_t ai = 0; ai < rec.beats.size(); ++ai) {
      if (match[ai] == static_cast<std::size_t>(-1)) continue;
      const std::size_t peak = peaks[match[ai]];
      if (peak < edge_guard || peak + edge_guard >= conditioned.size())
        continue;
      std::size_t* quota = nullptr;
      switch (rec.beats[ai].cls) {
        case BeatClass::N: quota = &remaining.n; break;
        case BeatClass::V: quota = &remaining.v; break;
        case BeatClass::L: quota = &remaining.l; break;
        case BeatClass::Unknown: break;
      }
      if (quota == nullptr || *quota == 0) continue;
      auto& taken = taken_this_record[static_cast<std::size_t>(
          rec.beats[ai].cls)];
      if (taken >= cfg.max_per_record_per_class) continue;
      ++taken;
      --*quota;
      // The edge guard keeps [peak - before, peak + after) inside every
      // lead, so each lead's window is a plain slice of it.
      const auto from = static_cast<std::ptrdiff_t>(peak - cfg.window_before);
      const auto to = static_cast<std::ptrdiff_t>(peak + cfg.window_after);
      for (const dsp::Signal& lead : conditioned_leads)
        ds.samples.insert(ds.samples.end(), lead.begin() + from,
                          lead.begin() + to);
      ds.labels.push_back(rec.beats[ai].cls);
    }
  }
  return ds;
}

void save_dataset(const BeatDataset& ds, const std::filesystem::path& path) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  HBRP_REQUIRE(out.good(), "dataset: cannot open for write: " + path.string());
  out.write(kMagic, sizeof(kMagic));
  put<std::int32_t>(out, ds.fs_hz);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(ds.window_before));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(ds.window_after));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(ds.num_leads));
  const std::size_t w = ds.window_size();
  HBRP_REQUIRE(ds.samples.size() == ds.size() * w,
               "dataset: inconsistent window size");
  put<std::uint64_t>(out, ds.size());
  std::vector<unsigned char> bytes(w * kStoredSampleBytes);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    put<std::uint8_t>(out, static_cast<std::uint8_t>(ds.labels[i]));
    const dsp::Sample* x = ds.samples.data() + i * w;
    for (std::size_t j = 0; j < w; ++j)
      math::store_le<std::int32_t>(bytes.data() + j * kStoredSampleBytes,
                                   x[j]);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  HBRP_REQUIRE(out.good(), "dataset: write failure: " + path.string());
}

BeatDataset load_dataset(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  HBRP_REQUIRE(in.good(), "dataset: cannot open: " + path.string());
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  HBRP_REQUIRE(in.good() && std::equal(magic, magic + sizeof(kMagic), kMagic),
               "dataset: bad magic in " + path.string());
  BeatDataset ds;
  ds.fs_hz = get<std::int32_t>(in);
  ds.window_before = get<std::uint32_t>(in);
  ds.window_after = get<std::uint32_t>(in);
  ds.num_leads = get<std::uint32_t>(in);
  HBRP_REQUIRE(ds.num_leads >= 1 && ds.num_leads <= 3,
               "dataset: invalid lead count");
  const auto count = get<std::uint64_t>(in);
  const std::size_t w = ds.window_size();
  // Bound the claimed count by the bytes actually present before sizing
  // the arena, so a corrupt count cannot request a huge allocation.
  const std::uintmax_t beat_bytes = 1 + w * kStoredSampleBytes;
  const auto remaining = std::filesystem::file_size(path) -
                         static_cast<std::uintmax_t>(in.tellg());
  HBRP_REQUIRE(count <= remaining / beat_bytes,
               "dataset: truncated beats in " + path.string());
  ds.samples.resize(count * w);
  ds.labels.resize(count);
  std::vector<unsigned char> bytes(w * kStoredSampleBytes);
  for (std::size_t i = 0; i < count; ++i) {
    const auto label = get<std::uint8_t>(in);
    HBRP_REQUIRE(label <= 2, "dataset: invalid label");
    ds.labels[i] = static_cast<BeatClass>(label);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    HBRP_REQUIRE(in.good(), "dataset: truncated beats in " + path.string());
    // Windows hold conditioned samples: narrowing one outside the range
    // contract would wrap, so a corrupt file fails here instead.
    dsp::Sample* x = ds.samples.data() + i * w;
    for (std::size_t j = 0; j < w; ++j) {
      const auto v = math::load_le<std::int32_t>(bytes.data() +
                                                 j * kStoredSampleBytes);
      HBRP_REQUIRE(v >= -dsp::kMaxConditioned && v <= dsp::kMaxConditioned,
                   "dataset: sample outside the conditioned range in " +
                       path.string());
      x[j] = static_cast<dsp::Sample>(v);
    }
  }
  return ds;
}

BeatDataset load_or_build(const std::filesystem::path& path,
                          const DatasetSpec& spec,
                          const DatasetBuilderConfig& cfg) {
  if (std::filesystem::exists(path)) {
    try {
      BeatDataset ds = load_dataset(path);
      const DatasetSpec c = ds.counts();
      if (c.n == spec.n && c.v == spec.v && c.l == spec.l &&
          ds.num_leads == cfg.num_leads)
        return ds;
      // Stale cache (different spec): rebuild below.
    } catch (const Error&) {
      // Corrupt or old-format cache: rebuild below.
    }
  }
  BeatDataset ds = build_dataset(spec, cfg);
  save_dataset(ds, path);
  return ds;
}

std::filesystem::path default_cache_dir() {
  if (const char* env = std::getenv("HBRP_CACHE_DIR")) return env;
  return "/tmp/hbrp-cache";
}

PaperSplits load_paper_splits(double test_scale) {
  HBRP_REQUIRE(test_scale > 0.0 && test_scale <= 1.0,
               "load_paper_splits(): test_scale must be in (0, 1]");
  auto scaled = [test_scale](const DatasetSpec& s) {
    if (test_scale == 1.0) return s;
    auto f = [test_scale](std::size_t x) {
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(x) * test_scale));
    };
    return DatasetSpec{f(s.n), f(s.v), f(s.l)};
  };
  const auto dir = default_cache_dir();
  auto name = [&dir](const char* tag, const DatasetSpec& s,
                     std::uint64_t seed) {
    return dir / ("ds_" + std::string(tag) + "_" + std::to_string(s.n) + "_" +
                  std::to_string(s.v) + "_" + std::to_string(s.l) + "_" +
                  std::to_string(seed) + ".bin");
  };

  PaperSplits splits;
  DatasetBuilderConfig cfg;
  // Small splits must still span many "patients" (see
  // DatasetBuilderConfig::max_per_record_per_class).
  cfg.seed = 101;
  cfg.max_per_record_per_class = 30;
  splits.training1 =
      load_or_build(name("ts1", kTrainingSet1, cfg.seed), kTrainingSet1, cfg);
  cfg.seed = 202;
  cfg.max_per_record_per_class = 150;
  splits.training2 =
      load_or_build(name("ts2", kTrainingSet2, cfg.seed), kTrainingSet2, cfg);
  cfg.seed = 303;
  cfg.max_per_record_per_class = 400;
  const DatasetSpec test_spec = scaled(kTestSet);
  splits.test = load_or_build(name("test", test_spec, cfg.seed), test_spec, cfg);
  return splits;
}

}  // namespace hbrp::ecg
