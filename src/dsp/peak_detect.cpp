#include "dsp/peak_detect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "math/check.hpp"
#include "math/stats.hpp"

namespace hbrp::dsp {

namespace {

struct Extremum {
  std::size_t index = 0;
  Sample value = 0;
};

// Local extrema of w (strict against the previous differing sample, so
// plateaus yield a single extremum at their first sample).
std::vector<Extremum> local_extrema(const Signal& w) {
  std::vector<Extremum> out;
  if (w.size() < 3) return out;
  int prev_dir = 0;
  std::size_t last_change = 0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    const int dir = w[i] > w[i - 1] ? 1 : (w[i] < w[i - 1] ? -1 : 0);
    if (dir == 0) continue;
    if (prev_dir == 1 && dir == -1) out.push_back({last_change, w[last_change]});
    if (prev_dir == -1 && dir == 1) out.push_back({last_change, w[last_change]});
    if (dir != 0) {
      prev_dir = dir;
      last_change = i;
    }
  }
  return out;
}

// Per-sample detection threshold: fraction of an amplitude envelope built
// from per-block maxima of |w|, clamped around the record-wide median so
// silent blocks do not collapse the threshold.
std::vector<double> threshold_envelope(const Signal& w,
                                       const PeakDetectorConfig& cfg) {
  const auto block = std::max<std::size_t>(
      1, static_cast<std::size_t>(kBlockS * cfg.fs_hz));
  std::vector<double> block_max;
  for (std::size_t start = 0; start < w.size(); start += block) {
    const std::size_t end = std::min(w.size(), start + block);
    Sample m = 0;
    for (std::size_t i = start; i < end; ++i)
      m = std::max(m, static_cast<Sample>(std::abs(w[i])));
    block_max.push_back(static_cast<double>(m));
  }
  if (block_max.empty()) return {};
  const double med = hbrp::math::median(block_max);
  std::vector<double> thr(w.size());
  for (std::size_t start = 0, b = 0; start < w.size(); start += block, ++b) {
    const double env =
        std::clamp(block_max[b], 0.5 * med, 2.0 * med);
    const std::size_t end = std::min(w.size(), start + block);
    for (std::size_t i = start; i < end; ++i)
      thr[i] = kThresholdFrac * env;
  }
  return thr;
}

// Zero crossing of w between two opposite-sign extrema; returns the sample
// index nearest to the crossing.
std::size_t zero_crossing(const Signal& w, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    const bool crosses = (w[i] >= 0 && w[i + 1] < 0) ||
                         (w[i] <= 0 && w[i + 1] > 0);
    if (crosses)
      return std::abs(w[i]) <= std::abs(w[i + 1]) ? i : i + 1;
  }
  return (lo + hi) / 2;
}

struct Candidate {
  std::size_t peak = 0;
  double strength = 0.0;  // |w| sum of the generating pair
};

// Scans the extremum list for opposite-sign pairs above `scale` * threshold
// inside [lo, hi) and emits their zero-crossing candidates. Candidates must
// also be confirmed on the next finer wavelet scale (`fine` with its own
// threshold envelope `fine_thr`): QRS complexes have energy across scales,
// while T waves and motion artifacts live only at the coarse one — the
// cross-scale rule of Li et al.
std::vector<Candidate> scan_pairs(const Signal& w,
                                  const std::vector<Extremum>& ext,
                                  const std::vector<double>& thr,
                                  const Signal& fine,
                                  const std::vector<double>& fine_thr,
                                  double scale, double confirm_frac,
                                  std::size_t lo, std::size_t hi,
                                  std::size_t pair_window) {
  std::vector<Candidate> out;
  for (std::size_t e = 0; e + 1 < ext.size(); ++e) {
    const Extremum& a = ext[e];
    const Extremum& b = ext[e + 1];
    if (a.index < lo || b.index >= hi) continue;
    if (b.index - a.index > pair_window) continue;
    if ((a.value > 0) == (b.value > 0)) continue;
    const double ta = scale * thr[a.index];
    const double tb = scale * thr[b.index];
    if (std::abs(a.value) < ta || std::abs(b.value) < tb) continue;

    // Cross-scale confirmation on the finer detail signal.
    double fine_max = 0.0;
    for (std::size_t i = a.index; i <= b.index; ++i)
      fine_max = std::max(fine_max,
                          std::abs(static_cast<double>(fine[i])));
    if (fine_max < confirm_frac * fine_thr[(a.index + b.index) / 2])
      continue;

    Candidate c;
    c.peak = zero_crossing(w, a.index, b.index);
    c.strength = std::abs(static_cast<double>(a.value)) +
                 std::abs(static_cast<double>(b.value));
    out.push_back(c);
  }
  return out;
}

// Applies the refractory rule: candidates closer than `refractory` collapse
// onto the strongest one.
std::vector<Candidate> apply_refractory(std::vector<Candidate> cands,
                                        std::size_t refractory) {
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.peak < b.peak;
            });
  std::vector<Candidate> out;
  for (const Candidate& c : cands) {
    if (!out.empty() && c.peak - out.back().peak < refractory) {
      if (c.strength > out.back().strength) out.back() = c;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::vector<std::size_t> detect_r_peaks(const Signal& conditioned,
                                        const PeakDetectorConfig& cfg) {
  HBRP_REQUIRE(cfg.fs_hz > 0, "detect_r_peaks(): fs must be positive");
  HBRP_REQUIRE(cfg.detect_scale < kWaveletScales,
               "detect_r_peaks(): detect_scale out of range");
  if (conditioned.size() < 8) return {};

  const WaveletDecomposition dec = wavelet_decompose(conditioned);
  const Signal& w = dec.detail[cfg.detect_scale];
  const Signal& fine =
      dec.detail[cfg.detect_scale > 0 ? cfg.detect_scale - 1
                                      : cfg.detect_scale];
  const std::vector<Extremum> ext = local_extrema(w);
  const std::vector<double> thr = threshold_envelope(w, cfg);
  const std::vector<double> fine_thr = threshold_envelope(fine, cfg);
  const auto pair_window =
      static_cast<std::size_t>(kPairWindowS * cfg.fs_hz);
  const auto refractory = static_cast<std::size_t>(kRefractoryS * cfg.fs_hz);

  std::vector<Candidate> cands = scan_pairs(w, ext, thr, fine, fine_thr, 1.0,
                                            0.5, 0, w.size(), pair_window);

  // Second pass one scale up: wide ectopic complexes (PVCs) concentrate
  // their energy at the next dyadic scale and can sit below the detection
  // threshold at the primary one. The primary scale serves as the
  // cross-scale confirmation signal here.
  if (cfg.detect_scale + 1 < kWaveletScales) {
    const Signal& coarse = dec.detail[cfg.detect_scale + 1];
    const std::vector<Extremum> coarse_ext = local_extrema(coarse);
    const std::vector<double> coarse_thr = threshold_envelope(coarse, cfg);
    // Wide complexes spread their maxima pair further apart. Demand a
    // full-strength confirmation at the primary scale: T waves pass the
    // coarse threshold but have little primary-scale energy.
    auto coarse_found =
        scan_pairs(coarse, coarse_ext, coarse_thr, w, thr, 1.0, 1.3, 0,
                   coarse.size(), 2 * pair_window);
    cands.insert(cands.end(), coarse_found.begin(), coarse_found.end());
  }
  cands = apply_refractory(std::move(cands), refractory);

  // Search-back: revisit abnormally long RR gaps with a lowered threshold.
  if (cands.size() >= 3) {
    std::vector<Candidate> extra;
    const std::size_t window = 8;
    double mean_rr = 0.0;
    std::size_t rr_count = 0;
    for (std::size_t i = 1; i < cands.size(); ++i) {
      const double rr = static_cast<double>(cands[i].peak - cands[i - 1].peak);
      if (rr_count < window) {
        mean_rr = (mean_rr * static_cast<double>(rr_count) + rr) /
                  static_cast<double>(rr_count + 1);
        ++rr_count;
      } else {
        mean_rr = 0.875 * mean_rr + 0.125 * rr;
      }
      if (rr > kSearchbackRrFactor * mean_rr) {
        const std::size_t lo = cands[i - 1].peak + refractory;
        const std::size_t hi = cands[i].peak > refractory
                                   ? cands[i].peak - refractory
                                   : 0;
        if (lo < hi) {
          auto found =
              scan_pairs(w, ext, thr, fine, fine_thr, kSearchbackFrac,
                         0.5 * kSearchbackFrac, lo, hi, pair_window);
          extra.insert(extra.end(), found.begin(), found.end());
        }
      }
    }
    if (!extra.empty()) {
      cands.insert(cands.end(), extra.begin(), extra.end());
      cands = apply_refractory(std::move(cands), refractory);
    }
  }

  // Refine each candidate to the R apex of the conditioned signal: the
  // wavelet zero crossing drifts by tens of milliseconds on wide (ectopic)
  // complexes, and downstream beat windows must be cut on the actual apex.
  // The apex is the *signed* extremum in the record's dominant R polarity —
  // refining to max |x| would lock onto the S wave of beats whose S runs
  // deeper than their R and desynchronize the beat windows across records.
  const auto refine_radius =
      static_cast<std::size_t>(0.08 * cfg.fs_hz);
  // Dominant polarity: sum of (max + min) around every candidate — positive
  // when R waves run taller than S waves run deep, record-wide.
  std::int64_t polarity_acc = 0;
  for (const Candidate& c : cands) {
    const std::size_t lo = c.peak > refine_radius ? c.peak - refine_radius : 0;
    const std::size_t hi =
        std::min(conditioned.size() - 1, c.peak + refine_radius);
    Sample mx = conditioned[c.peak], mn = conditioned[c.peak];
    for (std::size_t i = lo; i <= hi; ++i) {
      mx = std::max(mx, conditioned[i]);
      mn = std::min(mn, conditioned[i]);
    }
    polarity_acc += static_cast<std::int64_t>(mx) + mn;
  }
  const bool positive = polarity_acc >= 0;
  std::vector<std::size_t> peaks;
  peaks.reserve(cands.size());
  for (const Candidate& c : cands) {
    const std::size_t lo = c.peak > refine_radius ? c.peak - refine_radius : 0;
    const std::size_t hi =
        std::min(conditioned.size() - 1, c.peak + refine_radius);
    std::size_t best = c.peak;
    for (std::size_t i = lo; i <= hi; ++i) {
      if (positive ? conditioned[i] > conditioned[best]
                   : conditioned[i] < conditioned[best])
        best = i;
    }
    peaks.push_back(best);
  }
  // Refinement can merge neighbours; keep the list sorted and unique.
  std::sort(peaks.begin(), peaks.end());
  peaks.erase(std::unique(peaks.begin(), peaks.end()), peaks.end());
  return peaks;
}

double PeakMatchStats::sensitivity() const {
  const std::size_t denom = true_positive + false_negative;
  return denom ? static_cast<double>(true_positive) /
                     static_cast<double>(denom)
               : 0.0;
}

double PeakMatchStats::positive_predictivity() const {
  const std::size_t denom = true_positive + false_positive;
  return denom ? static_cast<double>(true_positive) /
                     static_cast<double>(denom)
               : 0.0;
}

PeakMatchStats match_peaks(const std::vector<std::size_t>& detected,
                           const std::vector<std::size_t>& reference,
                           std::size_t tolerance) {
  PeakMatchStats stats;
  std::size_t di = 0;
  std::vector<bool> used(detected.size(), false);
  for (const std::size_t ref : reference) {
    // Advance to the first detection that could still match.
    while (di < detected.size() &&
           detected[di] + tolerance < ref)
      ++di;
    bool matched = false;
    for (std::size_t j = di; j < detected.size(); ++j) {
      if (detected[j] > ref + tolerance) break;
      if (!used[j]) {
        used[j] = true;
        matched = true;
        break;
      }
    }
    if (matched)
      ++stats.true_positive;
    else
      ++stats.false_negative;
  }
  for (std::size_t j = 0; j < detected.size(); ++j)
    if (!used[j]) ++stats.false_positive;
  return stats;
}

}  // namespace hbrp::dsp
