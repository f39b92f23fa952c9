// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench binary accepts:
//   --quick        scale the GA and test set down for a fast smoke run
//   --scale=X      test-set scale factor in (0, 1] (overrides --quick's)
//   --threads=N    executor threads for training/evaluation (0 = hardware
//                  concurrency, 1 = serial; results are bit-identical
//                  for any value — see core/executor.hpp)
//   --json=PATH    machine-readable report path (default BENCH_<name>.json)
// plus any per-binary flags registered via BenchFlag. Parsing is strict:
// an unknown or malformed flag prints the usage and exits non-zero, so a
// typo can never silently fall back to a default configuration.
//
// Each binary prints the paper's reported numbers next to the measured ones
// (see EXPERIMENTS.md for the recorded runs) and writes the measured
// numbers, wall time and throughput to its JSON report.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "kernels/cpu.hpp"

// Defines HBRP_GIT_COMMIT, stamped at build time (bench/git_stamp.cmake);
// a build that does not generate it reports the commit as "unknown".
#if __has_include("hbrp_git_commit.hpp")
#include "hbrp_git_commit.hpp"
#endif

namespace hbrp::bench {

/// A per-binary boolean flag (e.g. bench_table2's --downsample-sweep),
/// registered with BenchArgs::parse so strict parsing knows about it.
struct BenchFlag {
  const char* name;  ///< full spelling, including the leading "--"
  const char* help;
  bool* value;  ///< set to true when the flag is present
};

struct BenchArgs {
  bool quick = false;
  double test_scale = 1.0;
  std::size_t ga_population = 20;  // paper defaults (Section III-A)
  std::size_t ga_generations = 30;
  /// Executor threads (0 = hardware concurrency, 1 = fully serial).
  std::size_t threads = 1;
  /// Where the machine-readable report goes (BENCH_<name>.json by default).
  std::string json_path;

  /// Strict parser: exits with usage on any unknown or malformed argument.
  static BenchArgs parse(int argc, char** argv, const char* bench_name,
                         std::span<const BenchFlag> extra = {});
};

[[noreturn]] inline void usage_and_exit(const char* prog,
                                        std::span<const BenchFlag> extra) {
  std::fprintf(stderr, "usage: %s [flags]\n", prog);
  std::fprintf(stderr,
               "  --quick        fast smoke run (small GA, 10%% test set)\n"
               "  --scale=X      test-set scale factor in (0, 1]\n"
               "  --threads=N    executor threads (0 = hardware, 1 = serial;"
               " default 1)\n"
               "  --json=PATH    JSON report path (default BENCH_<name>.json)"
               "\n");
  for (const BenchFlag& f : extra)
    std::fprintf(stderr, "  %-14s %s\n", f.name, f.help);
  std::exit(2);
}

inline BenchArgs BenchArgs::parse(int argc, char** argv,
                                  const char* bench_name,
                                  std::span<const BenchFlag> extra) {
  BenchArgs args;
  args.json_path = std::string("BENCH_") + bench_name + ".json";
  const char* prog = argc > 0 ? argv[0] : bench_name;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      args.quick = true;
      args.test_scale = 0.1;
      args.ga_population = 6;
      args.ga_generations = 4;
      continue;
    }
    if (std::strncmp(a, "--scale=", 8) == 0) {
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(a + 8, &end);
      if (errno != 0 || end == a + 8 || *end != '\0' || !(v > 0.0) ||
          v > 1.0) {
        std::fprintf(stderr, "%s: bad value in '%s' (want 0 < X <= 1)\n",
                     prog, a);
        usage_and_exit(prog, extra);
      }
      args.test_scale = v;
      continue;
    }
    if (std::strncmp(a, "--threads=", 10) == 0) {
      char* end = nullptr;
      errno = 0;
      const unsigned long v = std::strtoul(a + 10, &end, 10);
      if (errno != 0 || end == a + 10 || *end != '\0' || a[10] == '-') {
        std::fprintf(stderr, "%s: bad value in '%s' (want N >= 0)\n", prog,
                     a);
        usage_and_exit(prog, extra);
      }
      args.threads = static_cast<std::size_t>(v);
      continue;
    }
    if (std::strncmp(a, "--json=", 7) == 0) {
      if (a[7] == '\0') {
        std::fprintf(stderr, "%s: empty path in '%s'\n", prog, a);
        usage_and_exit(prog, extra);
      }
      args.json_path = a + 7;
      continue;
    }
    bool matched = false;
    for (const BenchFlag& f : extra) {
      if (std::strcmp(a, f.name) == 0) {
        *f.value = true;
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", prog, a);
      usage_and_exit(prog, extra);
    }
  }
  return args;
}

/// Wall-clock stopwatch for the per-bench timing figures.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal ordered JSON object writer for the BENCH_<name>.json reports.
/// Keys are emitted in insertion order; setting an existing key overwrites
/// its value in place.
class JsonReport {
 public:
  /// Every report opens with its provenance: which bench, which commit the
  /// binary was built from ("-dirty" when its tracked files differed from
  /// that commit), when the run started (UTC), and the machine
  /// context a perf number is meaningless without — CPU model, the SIMD
  /// level the kernel dispatcher actually selected at startup (so a report
  /// produced under HBRP_FORCE_SCALAR=1 is self-describing), whether the
  /// host looks virtualized, and the compiler flags the binary was built
  /// with. scripts/perf_gate.py keys off cpu_model/virtualized to decide
  /// whether two reports are comparable. The per-run thread count is stamped
  /// by each bench main next to its own figures.
  explicit JsonReport(const std::string& bench_name) {
    set("bench", bench_name);
    // Report-format version, mirrored by the gate scripts: a gate reading
    // a report with a NEWER schema warns and skips unknown keys instead of
    // failing, so adding keys here never breaks an older checkout's CI.
    set("schema_version", 2);
#ifdef HBRP_GIT_COMMIT
    set("git_commit", HBRP_GIT_COMMIT);
#else
    set("git_commit", "unknown");
#endif
    const std::time_t now = std::time(nullptr);
    char stamp[32] = "unknown";
    if (std::tm tm{}; gmtime_r(&now, &tm) != nullptr)
      std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm);
    set("started_utc", stamp);
    set("cpu_model", kernels::cpu_model_name());
    set("simd_level", kernels::to_string(kernels::active_level()));
    set("virtualized", kernels::cpu_is_virtualized());
#ifdef HBRP_CXX_FLAGS
    set("cxx_flags", HBRP_CXX_FLAGS);
#else
    set("cxx_flags", "unknown");
#endif
  }

  void set(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    put(key, buf);
  }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  void set(const std::string& key, T v) {
    put(key, std::to_string(v));
  }
  void set(const std::string& key, bool v) { put(key, v ? "true" : "false"); }
  void set(const std::string& key, const char* v) {
    put(key, quote(v));
  }
  void set(const std::string& key, const std::string& v) {
    put(key, quote(v));
  }
  void set(const std::string& key, std::span<const double> v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v[i]);
      if (i != 0) out += ", ";
      out += buf;
    }
    out += "]";
    put(key, std::move(out));
  }

  /// Writes the report and prints where it went; false (with a message) on
  /// I/O failure so a bench never dies on an unwritable path.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "# failed to open %s for writing\n", path.c_str());
      return false;
    }
    std::fputs("{\n", f);
    for (std::size_t i = 0; i < entries_.size(); ++i)
      std::fprintf(f, "  %s: %s%s\n", quote(entries_[i].first).c_str(),
                   entries_[i].second.c_str(),
                   i + 1 == entries_.size() ? "" : ",");
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  void put(const std::string& key, std::string encoded) {
    for (auto& [k, v] : entries_) {
      if (k == key) {
        v = std::move(encoded);
        return;
      }
    }
    entries_.emplace_back(key, std::move(encoded));
  }

  std::vector<std::pair<std::string, std::string>> entries_;
};

/// The three Table-I splits, built once and cached on disk.
inline ecg::PaperSplits load_splits(const BenchArgs& args) {
  std::printf("# loading datasets (test scale %.2f; cached in %s)\n",
              args.test_scale,
              ecg::default_cache_dir().string().c_str());
  return ecg::load_paper_splits(args.test_scale);
}

inline core::TwoStepConfig trainer_config(const BenchArgs& args,
                                          std::size_t coefficients) {
  core::TwoStepConfig cfg;
  cfg.coefficients = coefficients;
  cfg.downsample = 4;
  cfg.min_arr = 0.97;
  cfg.ga.population = args.ga_population;
  cfg.ga.generations = args.ga_generations;
  cfg.seed = 0xDA7E2013;
  cfg.threads = args.threads;
  return cfg;
}

/// Smallest alpha_test at which `eval(alpha)` reaches `min_arr` on its
/// dataset, by bisection over the (monotone) ARR-vs-alpha curve; returns the
/// confusion matrix at that operating point. `Eval` maps alpha -> matrix.
template <typename Eval>
core::ConfusionMatrix at_min_arr(const Eval& eval, double min_arr,
                                 double* alpha_out = nullptr) {
  double lo = 0.0, hi = 1.0;
  core::ConfusionMatrix at_lo = eval(0.0);
  if (at_lo.arr() >= min_arr) {
    if (alpha_out != nullptr) *alpha_out = 0.0;
    return at_lo;
  }
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (eval(mid).arr() >= min_arr)
      hi = mid;
    else
      lo = mid;
  }
  if (alpha_out != nullptr) *alpha_out = hi;
  return eval(hi);
}

inline void print_header(const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("==============================================================\n");
}

}  // namespace hbrp::bench
