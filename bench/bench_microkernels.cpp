// Kernel micro-benchmarks (google-benchmark): throughput of every stage of
// the embedded chain on the host, plus the sparse projection kernel against
// its dense reference and the scalar-vs-SIMD fuzzification kernels. These do not reproduce a paper table; they document
// the computational profile of this implementation and feed the CI perf gate
// (scripts/perf_gate.py) through BENCH_microkernels.json.
//
// Unlike the table/figure benches this binary is driven by google-benchmark,
// so it takes the usual --benchmark_* flags; the one extra flag is
// --json=PATH (default BENCH_microkernels.json), which writes every
// benchmark's per-iteration CPU time as a flat `<name>_ns_per_op` key plus the
// derived block-vs-sample and scalar-vs-SIMD speedup ratios, stamped with
// the machine provenance from bench::JsonReport. A run that times nothing
// (--benchmark_list_tests, a filter that matches nothing) writes no report.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/trainer.hpp"
#include "delineation/mmd.hpp"
#include "dsp/quality.hpp"
#include "dsp/morphology.hpp"
#include "dsp/peak_detect.hpp"
#include "dsp/resample.hpp"
#include "dsp/wavelet.hpp"
#include "ecg/synth.hpp"
#include "embedded/int_classifier.hpp"
#include "kernels/cpu.hpp"
#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"
#include "kernels/dsp_wavelet.hpp"
#include "kernels/fuzzify.hpp"
#include "kernels/sparse_ternary.hpp"
#include "math/crc32.hpp"
#include "net/wire.hpp"
#include "rp/achlioptas.hpp"

namespace {

using namespace hbrp;

ecg::Record bench_record(double seconds) {
  ecg::SynthConfig cfg;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.profile = ecg::RecordProfile::PvcOccasional;
  cfg.seed = 99;
  return ecg::generate_record(cfg);
}

const dsp::Signal& conditioned_30s() {
  static const dsp::Signal sig =
      dsp::condition_ecg(bench_record(30.0).leads[0]);
  return sig;
}

void BM_ConditionEcg(benchmark::State& state) {
  const auto rec = bench_record(30.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(dsp::condition_ecg(rec.leads[0]));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rec.leads[0].size()));
}
BENCHMARK(BM_ConditionEcg)->Unit(benchmark::kMillisecond);

void BM_WaveletDecompose(benchmark::State& state) {
  const auto& sig = conditioned_30s();
  for (auto _ : state)
    benchmark::DoNotOptimize(dsp::wavelet_decompose(sig));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sig.size()));
}
BENCHMARK(BM_WaveletDecompose)->Unit(benchmark::kMillisecond);

void BM_PeakDetect(benchmark::State& state) {
  const auto& sig = conditioned_30s();
  for (auto _ : state) benchmark::DoNotOptimize(dsp::detect_r_peaks(sig));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sig.size()));
}
BENCHMARK(BM_PeakDetect)->Unit(benchmark::kMillisecond);

// --- Block DSP front-end: the SoA kernels the streaming monitor and batch
// pipeline now run (src/kernels/dsp_*), measured through the once-per-process
// scalar/AVX2 dispatch with warm scratch — the steady state of a session.
// Same 30 s input as the per-sample baselines above, so <op>_ns_per_op vs
// <op>Block_ns_per_op is a like-for-like before/after of the refactor.

void BM_ConditionEcgBlock(benchmark::State& state) {
  const auto rec = bench_record(30.0);
  kernels::ConditionScratch scratch;
  dsp::Signal out;
  for (auto _ : state) {
    kernels::condition_ecg_block(rec.leads[0], dsp::FilterConfig{}, scratch,
                                 out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rec.leads[0].size()));
}
BENCHMARK(BM_ConditionEcgBlock)->Unit(benchmark::kMicrosecond);

void BM_WaveletBlock(benchmark::State& state) {
  const auto& sig = conditioned_30s();
  kernels::WaveletScratch scratch;
  dsp::WaveletDecomposition out;
  for (auto _ : state) {
    kernels::wavelet_decompose_block(sig, dsp::kWaveletScales, scratch, out);
    benchmark::DoNotOptimize(out.approx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sig.size()));
}
BENCHMARK(BM_WaveletBlock)->Unit(benchmark::kMicrosecond);

void BM_PeakDetectBlock(benchmark::State& state) {
  const auto& sig = conditioned_30s();
  kernels::PeakScratch scratch;
  std::vector<std::size_t> peaks;
  for (auto _ : state) {
    kernels::detect_r_peaks_block(sig, dsp::PeakDetectorConfig{}, scratch,
                                  peaks);
    benchmark::DoNotOptimize(peaks.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sig.size()));
}
BENCHMARK(BM_PeakDetectBlock)->Unit(benchmark::kMicrosecond);

// --- Projection: the sparse execution kernel (index lists) vs the dense
// reference. Same matrix, same input, same int32 results; apply_into
// isolates the kernel from the allocator.

struct ProjectionFixture {
  rp::TernaryMatrix dense;
  kernels::SparseTernary sparse;
  dsp::Signal v;

  explicit ProjectionFixture(std::size_t k)
      : dense([&] {
          math::Rng rng(1);
          return rp::make_achlioptas(k, 50, rng);
        }()),
        sparse(kernels::SparseTernary::build(
            dense.rows(), dense.cols(),
            [this](std::size_t r, std::size_t c) { return dense.at(r, c); })),
        v(50) {
    math::Rng rng(7);
    for (auto& x : v) x = static_cast<int>(rng.uniform_int(-1024, 1023));
  }
};

void BM_ProjectionSparseInt(benchmark::State& state) {
  const ProjectionFixture fx(static_cast<std::size_t>(state.range(0)));
  std::vector<std::int32_t> out(fx.dense.rows());
  for (auto _ : state) {
    fx.sparse.apply_into(std::span<const dsp::Sample>(fx.v),
                         std::span<std::int32_t>(out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProjectionSparseInt)->Arg(8)->Arg(16)->Arg(32);

void BM_ProjectionDense(benchmark::State& state) {
  const ProjectionFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        fx.dense.apply(std::span<const dsp::Sample>(fx.v)));
}
BENCHMARK(BM_ProjectionDense)->Arg(8)->Arg(16)->Arg(32);

// --- Fuzzification: scalar vs AVX2 batch kernels, bound directly (not via
// the dispatcher) so both sides are measurable on one machine. One op = one
// batch of kFuzzifyBeats beats at k = 16 coefficients.

constexpr std::size_t kFuzzifyBeats = 256;
constexpr std::size_t kFuzzifyK = 16;

struct FuzzifyFloatFixture {
  std::vector<double> u;        // [kFuzzifyBeats][kFuzzifyK]
  std::vector<double> centers;  // [3][kFuzzifyK]
  std::vector<double> nhiv;     // [3][kFuzzifyK]
  std::vector<double> out;      // [kFuzzifyBeats][3]

  FuzzifyFloatFixture()
      : u(kFuzzifyBeats * kFuzzifyK),
        centers(3 * kFuzzifyK),
        nhiv(3 * kFuzzifyK),
        out(kFuzzifyBeats * 3) {
    math::Rng rng(11);
    for (auto& x : u) x = rng.normal(0.0, 300.0);
    for (auto& c : centers) c = rng.normal(0.0, 300.0);
    for (auto& h : nhiv) {
      const double sigma = rng.uniform(20.0, 200.0);
      h = -0.5 / (sigma * sigma);
    }
  }
};

void BM_FuzzifyFloatScalar(benchmark::State& state) {
  FuzzifyFloatFixture fx;
  for (auto _ : state) {
    kernels::log_fuzzy_batch_scalar(fx.u.data(), kFuzzifyBeats, kFuzzifyK,
                                    fx.centers.data(), fx.nhiv.data(),
                                    fx.out.data());
    benchmark::DoNotOptimize(fx.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFuzzifyBeats));
}
BENCHMARK(BM_FuzzifyFloatScalar);

#if HBRP_KERNELS_X86
void BM_FuzzifyFloatSimd(benchmark::State& state) {
  if (!kernels::cpu_supports_avx2()) {
    state.SkipWithError("AVX2 not available on this host");
    return;
  }
  FuzzifyFloatFixture fx;
  for (auto _ : state) {
    kernels::log_fuzzy_batch_avx2(fx.u.data(), kFuzzifyBeats, kFuzzifyK,
                                  fx.centers.data(), fx.nhiv.data(),
                                  fx.out.data());
    benchmark::DoNotOptimize(fx.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFuzzifyBeats));
}
BENCHMARK(BM_FuzzifyFloatSimd);
#endif

// One op = one linearized-MF sweep over a 128-value column (the tile length
// IntClassifier::classify_batch uses).

constexpr std::size_t kMfTile = 128;

struct IntMfFixture {
  std::vector<std::int32_t> x;
  std::vector<std::uint16_t> grades;

  IntMfFixture() : x(kMfTile), grades(kMfTile) {
    math::Rng rng(13);
    for (auto& v : x) v = static_cast<std::int32_t>(rng.normal(0.0, 300.0));
  }
};

void BM_IntMfScalar(benchmark::State& state) {
  IntMfFixture fx;
  for (auto _ : state) {
    kernels::linearized_eval_batch_scalar(42, 100, fx.x.data(), kMfTile,
                                          fx.grades.data());
    benchmark::DoNotOptimize(fx.grades.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMfTile));
}
BENCHMARK(BM_IntMfScalar);

#if HBRP_KERNELS_X86
void BM_IntMfSimd(benchmark::State& state) {
  if (!kernels::cpu_supports_avx2()) {
    state.SkipWithError("AVX2 not available on this host");
    return;
  }
  IntMfFixture fx;
  for (auto _ : state) {
    kernels::linearized_eval_batch_avx2(42, 100, fx.x.data(), kMfTile,
                                        fx.grades.data());
    benchmark::DoNotOptimize(fx.grades.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMfTile));
}
BENCHMARK(BM_IntMfSimd);
#endif

embedded::IntClassifier bench_classifier(std::size_t k,
                                         embedded::MfShape shape) {
  nfc::NeuroFuzzyClassifier nfc(k);
  math::Rng rng(2);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t l = 0; l < 3; ++l)
      nfc.mf(i, l) = {rng.normal(0.0, 300.0), rng.uniform(20.0, 200.0)};
  return embedded::IntClassifier::from_float(nfc, shape);
}

void BM_IntClassify(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto cls = bench_classifier(k, embedded::MfShape::Linearized);
  math::Rng rng(3);
  std::vector<std::int32_t> u(k);
  for (auto& x : u) x = static_cast<std::int32_t>(rng.normal(0.0, 300.0));
  for (auto _ : state) benchmark::DoNotOptimize(cls.classify(u, 6554));
}
BENCHMARK(BM_IntClassify)->Arg(8)->Arg(16)->Arg(32);

// One op = one 256-beat classify_batch call with warm scratch (the steady
// state of the engine/fleet batched paths).
void BM_IntClassifyBatch(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto cls = bench_classifier(k, embedded::MfShape::Linearized);
  constexpr std::size_t kBeats = 256;
  math::Rng rng(3);
  std::vector<std::int32_t> u(kBeats * k);
  for (auto& x : u) x = static_cast<std::int32_t>(rng.normal(0.0, 300.0));
  std::vector<ecg::BeatClass> out(kBeats);
  embedded::FuzzifyScratch scratch;
  for (auto _ : state) {
    cls.classify_batch(u, kBeats, 6554, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBeats));
}
BENCHMARK(BM_IntClassifyBatch)->Arg(8)->Arg(16)->Arg(32);

void BM_MorphologyDeque(benchmark::State& state) {
  const auto& sig = conditioned_30s();
  const auto len = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(dsp::erode(sig, len));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sig.size()));
}
BENCHMARK(BM_MorphologyDeque)->Arg(71)->Arg(151)->Unit(benchmark::kMillisecond);

void BM_DelineateBeat(benchmark::State& state) {
  const auto rec = bench_record(30.0);
  std::vector<dsp::Signal> leads;
  for (const auto& lead : rec.leads) leads.push_back(dsp::condition_ecg(lead));
  const std::size_t peak = rec.beats[rec.beats.size() / 2].sample;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        delineation::delineate_beat_multilead(leads, peak));
}
BENCHMARK(BM_DelineateBeat)->Unit(benchmark::kMicrosecond);

void BM_DownsampleWindow(benchmark::State& state) {
  dsp::Signal window(200);
  math::Rng rng(4);
  for (auto& x : window) x = static_cast<int>(rng.uniform_int(-1024, 1023));
  for (auto _ : state)
    benchmark::DoNotOptimize(dsp::downsample_avg(window, 4));
}
BENCHMARK(BM_DownsampleWindow);

void BM_SynthRecord(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ecg::SynthConfig cfg;
    cfg.duration_s = 10.0;
    cfg.num_leads = 1;
    cfg.seed = seed++;
    benchmark::DoNotOptimize(ecg::generate_record(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          3600);
}
BENCHMARK(BM_SynthRecord)->Unit(benchmark::kMillisecond);

/// One SAMPLE_CHUNK frame of 512 uniformly random codes: 807 B, the
/// block-delta layout's worst case for 512 codes.
std::vector<unsigned char> chunk_frame() {
  std::vector<dsp::Sample> codes(512);
  math::Rng rng(5);
  for (auto& c : codes) c = static_cast<dsp::Sample>(rng.uniform_int(0, 2047));
  std::vector<unsigned char> frame;
  net::append_frame(frame, net::FrameType::SampleChunk, 0,
                    net::encode_sample_chunk(codes));
  return frame;
}

// The frame checksum both ends of the link compute over every byte; the
// JSON report adds crc32_ns_per_byte.
void BM_Crc32(benchmark::State& state) {
  const std::vector<unsigned char> frame = chunk_frame();
  for (auto _ : state)
    benchmark::DoNotOptimize(math::crc32(frame.data(), frame.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_Crc32);

/// 512 codes of a seeded synthetic ECG, clamped to the default rails: the
/// chunk a StreamEverything node sends (uniform codes are the codec's worst
/// case, not the link's traffic).
std::vector<dsp::Sample> ecg_chunk() {
  const dsp::Signal lead = bench_record(10.0).leads[0];
  const dsp::QualityConfig rails;
  std::vector<dsp::Sample> codes(lead.begin() + 1800, lead.begin() + 2312);
  for (auto& c : codes) c = std::clamp(c, rails.rail_low, rails.rail_high);
  return codes;
}

// The sample codec at either end of a stream link, per chunk.
void BM_ChunkEncode(benchmark::State& state) {
  const std::vector<dsp::Sample> codes = ecg_chunk();
  for (auto _ : state)
    benchmark::DoNotOptimize(net::encode_sample_chunk(codes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size()));
}
BENCHMARK(BM_ChunkEncode);

void BM_ChunkDecode(benchmark::State& state) {
  const std::vector<unsigned char> payload =
      net::encode_sample_chunk(ecg_chunk());
  std::vector<dsp::Sample> out;
  out.reserve(512);
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(net::decode_sample_chunk(payload, out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_ChunkDecode);

/// "BM_ProjectionSparseInt/16" -> "ProjectionSparseInt_16": the stable key
/// stem used in BENCH_microkernels.json (and matched by perf_gate.py).
std::string json_key_stem(const std::string& name) {
  std::string stem = name;
  if (stem.rfind("BM_", 0) == 0) stem.erase(0, 3);
  for (char& c : stem)
    if (c == '/') c = '_';
  return stem;
}

/// Prints the normal console table AND collects every per-iteration time so
/// main() can emit the flat JSON report the perf gate consumes.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations <= 0)
        continue;
      // CPU time, not wall time: the perf gate compares these across runs,
      // and on a shared/virtualized host wall time absorbs scheduler noise
      // that CPU time does not.
      const double ns_per_op = run.cpu_accumulated_time /
                               static_cast<double>(run.iterations) * 1e9;
      results_.emplace_back(json_key_stem(run.benchmark_name()), ns_per_op);
    }
  }

  const std::vector<std::pair<std::string, double>>& results() const {
    return results_;
  }

  double find(const std::string& stem) const {
    for (const auto& [k, v] : results_)
      if (k == stem) return v;
    return 0.0;
  }

 private:
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json=PATH (ours) before handing the rest to google-benchmark,
  // whose own parser rejects flags it does not know.
  std::string json_path = "BENCH_microkernels.json";
  std::vector<char*> bench_argv;
  bench_argv.reserve(static_cast<std::size_t>(argc));
  if (argc > 0) bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      if (argv[i][7] == '\0') {
        std::fprintf(stderr, "%s: empty path in '%s'\n", argv[0], argv[i]);
        return 2;
      }
      json_path = argv[i] + 7;
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data()))
    return 1;

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // A list-only run, a filter that matched nothing or an aggregates-only
  // run timed nothing per iteration: an empty report would overwrite a
  // baseline with one that has no keys.
  if (reporter.results().empty()) {
    std::fprintf(stderr, "%s: no benchmark was timed; %s not written\n",
                 argv[0], json_path.c_str());
    return 0;
  }

  hbrp::bench::JsonReport report("microkernels");
  for (const auto& [stem, ns] : reporter.results())
    report.set(stem + "_ns_per_op", ns);

  // Derived headline ratios.
  const double fz_scalar = reporter.find("FuzzifyFloatScalar");
  const double fz_simd = reporter.find("FuzzifyFloatSimd");
  if (fz_scalar > 0.0 && fz_simd > 0.0)
    report.set("fuzzify_simd_speedup", fz_scalar / fz_simd);
  // Block-DSP refactor headline: per-sample operator vs SoA block kernel on
  // the same 30 s signal.
  const struct {
    const char* sample;
    const char* block;
    const char* key;
  } dsp_pairs[] = {
      {"ConditionEcg", "ConditionEcgBlock", "condition_block_speedup"},
      {"WaveletDecompose", "WaveletBlock", "wavelet_block_speedup"},
      {"PeakDetect", "PeakDetectBlock", "peak_block_speedup"},
  };
  for (const auto& p : dsp_pairs) {
    const double sample = reporter.find(p.sample);
    const double block = reporter.find(p.block);
    if (sample > 0.0 && block > 0.0) report.set(p.key, sample / block);
  }
  const double mf_scalar = reporter.find("IntMfScalar");
  const double mf_simd = reporter.find("IntMfSimd");
  if (mf_scalar > 0.0 && mf_simd > 0.0)
    report.set("intmf_simd_speedup", mf_scalar / mf_simd);
  const double crc = reporter.find("Crc32");
  if (crc > 0.0)
    report.set("crc32_ns_per_byte",
               crc / static_cast<double>(chunk_frame().size()));

  return report.write(json_path) ? 0 : 1;
}
