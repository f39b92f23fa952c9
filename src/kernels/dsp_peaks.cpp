#include "kernels/dsp_peaks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "math/check.hpp"
#include "math/stats.hpp"

namespace hbrp::kernels {

namespace {

using dsp::PeakDetectorConfig;
using dsp::Sample;
using dsp::Signal;
using Extremum = PeakScratch::Extremum;
using Candidate = PeakScratch::Candidate;

// The helpers below are the same algorithm steps as dsp/peak_detect.cpp,
// writing into caller-owned vectors instead of returning fresh ones. Keep
// the arithmetic in lockstep with the reference: detect_r_peaks_block is
// contractually bit-identical to dsp::detect_r_peaks.

void local_extrema(const Signal& w, std::vector<Extremum>& out) {
  out.clear();
  const std::size_t n = w.size();
  if (n < 3) return;
  const Sample* x = w.data();
  int prev_dir = 0;
  std::size_t last_change = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const int dir = x[i] > x[i - 1] ? 1 : (x[i] < x[i - 1] ? -1 : 0);
    if (dir == 0) continue;
    // A turn from rising to falling or back marks an extremum.
    if (prev_dir == -dir) out.push_back({last_change, x[last_change]});
    prev_dir = dir;
    last_change = i;
  }
}

// One threshold per block of `block` samples: sample i's threshold is
// thr[i / block]. The reference stores the same value at every sample.
void threshold_envelope(const Signal& w, std::size_t block,
                        std::vector<double>& block_max,
                        std::vector<double>& thr) {
  block_max.clear();
  for (std::size_t start = 0; start < w.size(); start += block) {
    const std::size_t end = std::min(w.size(), start + block);
    int m = 0;  // |w| in int: exact even for a detail of -2^15
    for (std::size_t i = start; i < end; ++i) m = std::max(m, std::abs(w[i]));
    block_max.push_back(static_cast<double>(m));
  }
  thr.clear();
  if (block_max.empty()) return;
  const double med = hbrp::math::median(block_max);
  for (const double m : block_max)
    thr.push_back(dsp::kThresholdFrac *
                  std::clamp(m, 0.5 * med, 2.0 * med));
}

std::size_t zero_crossing(const Signal& w, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    const bool crosses =
        (w[i] >= 0 && w[i + 1] < 0) || (w[i] <= 0 && w[i + 1] > 0);
    if (crosses) return std::abs(w[i]) <= std::abs(w[i + 1]) ? i : i + 1;
  }
  return (lo + hi) / 2;
}

void scan_pairs(const Signal& w, const std::vector<Extremum>& ext,
                const std::vector<double>& thr, const Signal& fine,
                const std::vector<double>& fine_thr, std::size_t block,
                double scale, double confirm_frac, std::size_t lo,
                std::size_t hi, std::size_t pair_window,
                std::vector<Candidate>& out) {
  for (std::size_t e = 0; e + 1 < ext.size(); ++e) {
    const Extremum& a = ext[e];
    const Extremum& b = ext[e + 1];
    if (a.index < lo || b.index >= hi) continue;
    if (b.index - a.index > pair_window) continue;
    if ((a.value > 0) == (b.value > 0)) continue;
    const double ta = scale * thr[a.index / block];
    const double tb = scale * thr[b.index / block];
    if (std::abs(a.value) < ta || std::abs(b.value) < tb) continue;

    double fine_max = 0.0;
    for (std::size_t i = a.index; i <= b.index; ++i)
      fine_max = std::max(fine_max, std::abs(static_cast<double>(fine[i])));
    if (fine_max < confirm_frac * fine_thr[(a.index + b.index) / 2 / block])
      continue;

    Candidate c;
    c.peak = zero_crossing(w, a.index, b.index);
    c.strength = std::abs(static_cast<double>(a.value)) +
                 std::abs(static_cast<double>(b.value));
    out.push_back(c);
  }
}

void apply_refractory(std::vector<Candidate>& cands, std::size_t refractory,
                      std::vector<Candidate>& merged) {
  std::sort(
      cands.begin(), cands.end(),
      [](const Candidate& a, const Candidate& b) { return a.peak < b.peak; });
  merged.clear();
  for (const Candidate& c : cands) {
    if (!merged.empty() && c.peak - merged.back().peak < refractory) {
      if (c.strength > merged.back().strength) merged.back() = c;
    } else {
      merged.push_back(c);
    }
  }
  cands.swap(merged);
}

// Signed-polarity apex refinement (see the long comment in
// dsp/peak_detect.cpp): pick the record's dominant R polarity, then move
// each candidate to the signed extremum within +-radius.
void refine_apexes(const Signal& conditioned,
                   const std::vector<Candidate>& cands,
                   std::size_t refine_radius, std::vector<std::size_t>& peaks) {
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
  peaks.clear();
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
  std::sort(peaks.begin(), peaks.end());
  peaks.erase(std::unique(peaks.begin(), peaks.end()), peaks.end());
}

}  // namespace

void detect_r_peaks_block(const Signal& conditioned,
                          const PeakDetectorConfig& cfg, PeakScratch& scr,
                          std::vector<std::size_t>& peaks) {
  HBRP_REQUIRE(cfg.fs_hz > 0, "detect_r_peaks_block(): fs must be positive");
  peaks.clear();
  if (conditioned.size() < 8) return;

  wavelet_decompose_block(conditioned, dsp::kWaveletScales, scr.wavelet,
                          scr.dec);
  const Signal& w = scr.dec.detail[dsp::kDetectScale];
  const Signal& fine = scr.dec.detail[dsp::kDetectScale - 1];
  local_extrema(w, scr.ext);
  const auto block = std::max<std::size_t>(
      1, static_cast<std::size_t>(dsp::kBlockS * cfg.fs_hz));
  threshold_envelope(w, block, scr.block_max, scr.thr);
  threshold_envelope(fine, block, scr.block_max, scr.fine_thr);
  const auto pair_window =
      static_cast<std::size_t>(dsp::kPairWindowS * cfg.fs_hz);
  const auto refractory =
      static_cast<std::size_t>(dsp::kRefractoryS * cfg.fs_hz);

  scr.cands.clear();
  scan_pairs(w, scr.ext, scr.thr, fine, scr.fine_thr, block, 1.0, 0.5, 0,
             w.size(), pair_window, scr.cands);

  const Signal& coarse = scr.dec.detail[dsp::kDetectScale + 1];
  local_extrema(coarse, scr.coarse_ext);
  threshold_envelope(coarse, block, scr.block_max, scr.coarse_thr);
  scan_pairs(coarse, scr.coarse_ext, scr.coarse_thr, w, scr.thr, block, 1.0,
             1.3, 0, coarse.size(), 2 * pair_window, scr.cands);
  apply_refractory(scr.cands, refractory, scr.merged);

  if (scr.cands.size() >= 3) {
    scr.extra.clear();
    const std::size_t window = 8;
    double mean_rr = 0.0;
    std::size_t rr_count = 0;
    for (std::size_t i = 1; i < scr.cands.size(); ++i) {
      const double rr =
          static_cast<double>(scr.cands[i].peak - scr.cands[i - 1].peak);
      if (rr_count < window) {
        mean_rr = (mean_rr * static_cast<double>(rr_count) + rr) /
                  static_cast<double>(rr_count + 1);
        ++rr_count;
      } else {
        mean_rr = 0.875 * mean_rr + 0.125 * rr;
      }
      if (rr > dsp::kSearchbackRrFactor * mean_rr) {
        const std::size_t lo = scr.cands[i - 1].peak + refractory;
        const std::size_t hi =
            scr.cands[i].peak > refractory ? scr.cands[i].peak - refractory : 0;
        if (lo < hi)
          scan_pairs(w, scr.ext, scr.thr, fine, scr.fine_thr, block,
                     dsp::kSearchbackFrac, 0.5 * dsp::kSearchbackFrac, lo, hi,
                     pair_window, scr.extra);
      }
    }
    if (!scr.extra.empty()) {
      scr.cands.insert(scr.cands.end(), scr.extra.begin(), scr.extra.end());
      apply_refractory(scr.cands, refractory, scr.merged);
    }
  }

  const auto refine_radius = static_cast<std::size_t>(0.08 * cfg.fs_hz);
  refine_apexes(conditioned, scr.cands, refine_radius, peaks);
}

}  // namespace hbrp::kernels
