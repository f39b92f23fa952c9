// Mini WFDB record tool: generate synthetic MIT-BIH-format records and
// inspect existing ones. Demonstrates that the library's ingestion path is
// the genuine on-disk PhysioBank format — point `info` at any supported
// WFDB record (.hea + .dat + .atr in format 212 or 16).
//
// Usage:
//   wfdb_tools generate <dir> <name> [seconds] [profile] [seed]
//       profile in {normal, pvc, bigeminy, lbbb} (default pvc)
//   wfdb_tools info <dir> <name>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dsp/peak_detect.hpp"
#include "ecg/mitdb.hpp"
#include "ecg/synth.hpp"
#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"
#include "math/check.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wfdb_tools generate <dir> <name> [seconds] [profile] "
               "[seed]\n"
               "  wfdb_tools info <dir> <name>\n");
  return 2;
}

hbrp::ecg::RecordProfile parse_profile(const std::string& s) {
  using hbrp::ecg::RecordProfile;
  if (s == "normal") return RecordProfile::NormalSinus;
  if (s == "bigeminy") return RecordProfile::PvcBigeminy;
  if (s == "lbbb") return RecordProfile::Lbbb;
  return RecordProfile::PvcOccasional;
}

}  // namespace

int run(int argc, char** argv) {
  using namespace hbrp;
  if (argc < 4) return usage();
  const std::string command = argv[1];
  const std::string dir = argv[2];
  const std::string name = argv[3];

  if (command == "generate") {
    ecg::SynthConfig cfg;
    cfg.duration_s = argc > 4 ? std::atof(argv[4]) : 60.0;
    cfg.profile = parse_profile(argc > 5 ? argv[5] : "pvc");
    cfg.seed = argc > 6 ? std::strtoull(argv[6], nullptr, 10) : 1;
    cfg.num_leads = 2;  // format 212, like the Arrhythmia DB itself
    ecg::Record rec = ecg::generate_record(cfg);
    rec.name = name;
    ecg::mitdb::write_record(rec, dir);
    std::printf("wrote %s/%s.{hea,dat,atr}: %zu leads, %zu samples, "
                "%zu annotated beats\n",
                dir.c_str(), name.c_str(), rec.leads.size(),
                rec.duration_samples(), rec.beats.size());
    return 0;
  }

  if (command == "info") {
    const ecg::Record rec = ecg::mitdb::read_record(dir, name);
    std::printf("record %s: %zu leads, %d Hz, %zu samples (%.1f s)\n",
                rec.name.c_str(), rec.leads.size(), rec.fs_hz,
                rec.duration_samples(), rec.duration_s());
    std::size_t n = 0, v = 0, l = 0;
    for (const auto& b : rec.beats) {
      n += b.cls == ecg::BeatClass::N;
      v += b.cls == ecg::BeatClass::V;
      l += b.cls == ecg::BeatClass::L;
    }
    std::printf("annotations: %zu beats (N %zu, V %zu, L %zu)\n",
                rec.beats.size(), n, v, l);

    // Run the acquisition chain (the block kernels the monitor runs) and
    // report detector quality against the stored annotations.
    kernels::ConditionScratch condition_scratch;
    dsp::Signal conditioned;
    kernels::condition_ecg_block(rec.leads[0], dsp::FilterConfig{},
                                 condition_scratch, conditioned);
    kernels::PeakScratch peak_scratch;
    std::vector<std::size_t> peaks;
    kernels::detect_r_peaks_block(conditioned, dsp::PeakDetectorConfig{},
                                  peak_scratch, peaks);
    std::vector<std::size_t> ref;
    for (const auto& b : rec.beats) ref.push_back(b.sample);
    const auto stats = dsp::match_peaks(peaks, ref, 54);
    std::printf("peak detector: %zu detections, sensitivity %.3f, "
                "precision %.3f\n",
                peaks.size(), stats.sensitivity(),
                stats.positive_predictivity());
    return 0;
  }
  return usage();
}

int main(int argc, char** argv) {
  // Malformed or truncated records are an expected input class, not a
  // programming error: report and exit instead of aborting.
  try {
    return run(argc, argv);
  } catch (const hbrp::Error& e) {
    std::fprintf(stderr, "wfdb_tools: %s\n", e.what());
    return 1;
  }
}
