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
  if (w.size() < 3) return;
  int prev_dir = 0;
  std::size_t last_change = 0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    const int dir = w[i] > w[i - 1] ? 1 : (w[i] < w[i - 1] ? -1 : 0);
    if (dir == 0) continue;
    if (prev_dir == 1 && dir == -1) out.push_back({last_change, w[last_change]});
    if (prev_dir == -1 && dir == 1) out.push_back({last_change, w[last_change]});
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
    Sample m = 0;
    for (std::size_t i = start; i < end; ++i)
      m = std::max(m, static_cast<Sample>(std::abs(w[i])));
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

// Signed-polarity apex refinement shared by both detectors (see the long
// comment in dsp/peak_detect.cpp): pick the record's dominant R polarity,
// then move each candidate to the signed extremum within +-radius.
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
  HBRP_REQUIRE(cfg.detect_scale < dsp::kWaveletScales,
               "detect_r_peaks_block(): detect_scale out of range");
  peaks.clear();
  if (conditioned.size() < 8) return;

  wavelet_decompose_block(conditioned, dsp::kWaveletScales, scr.wavelet,
                          scr.dec);
  const Signal& w = scr.dec.detail[cfg.detect_scale];
  const Signal& fine = scr.dec.detail[cfg.detect_scale > 0
                                          ? cfg.detect_scale - 1
                                          : cfg.detect_scale];
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

  if (cfg.detect_scale + 1 < dsp::kWaveletScales) {
    const Signal& coarse = scr.dec.detail[cfg.detect_scale + 1];
    local_extrema(coarse, scr.coarse_ext);
    threshold_envelope(coarse, block, scr.block_max, scr.coarse_thr);
    scan_pairs(coarse, scr.coarse_ext, scr.coarse_thr, w, scr.thr, block, 1.0,
               1.3, 0, coarse.size(), 2 * pair_window, scr.cands);
  }
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

void detect_r_peaks_adaptive(const Signal& conditioned,
                             const PeakDetectorConfig& cfg, PeakScratch& scr,
                             std::vector<std::size_t>& peaks) {
  HBRP_REQUIRE(cfg.fs_hz > 0,
               "detect_r_peaks_adaptive(): fs must be positive");
  peaks.clear();
  const std::size_t n = conditioned.size();
  if (n < 8) return;

  // Slope energy (the Pan–Tompkins derivative/square/integrate idiom).
  // The central difference before squaring attenuates T waves quadratically
  // in their frequency ratio to the QRS — tall-T records double-fire a pure
  // amplitude threshold at ~300 ms after every beat, but the T-wave upslope
  // is a tenth of the QRS upslope. The trailing ~80 ms integration window
  // then suppresses single-sample noise spikes (which otherwise reach the
  // threshold on noisy leads) while the QRS, coherent across the window,
  // keeps its energy.
  scr.thr.resize(n);
  scr.thr[0] = 0.0;
  scr.thr[n - 1] = 0.0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double d = static_cast<double>(conditioned[i + 1]) -
                     static_cast<double>(conditioned[i - 1]);
    scr.thr[i] = d * d;
  }
  const auto integrate = std::max<std::size_t>(
      1, static_cast<std::size_t>(0.08 * cfg.fs_hz));
  scr.energy.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += scr.thr[i];
    if (i >= integrate) acc -= scr.thr[i - integrate];
    scr.energy[i] = acc;
  }

  // Seed and floor from the median per-block energy maximum, like the
  // wavelet detector's envelope: blocks nearly always contain a beat, so the
  // median tracks typical QRS energy and the floor keeps long pauses from
  // decaying the estimate into the noise.
  const auto block = std::max<std::size_t>(
      1, static_cast<std::size_t>(dsp::kBlockS * cfg.fs_hz));
  scr.block_max.clear();
  for (std::size_t start = 0; start < n; start += block) {
    const std::size_t end = std::min(n, start + block);
    double m = 0.0;
    for (std::size_t i = start; i < end; ++i)
      m = std::max(m, scr.energy[i]);
    scr.block_max.push_back(m);
  }
  const double med = hbrp::math::median(scr.block_max);
  if (med <= 0.0) return;  // flat record: nothing to detect
  const double floor_amp = dsp::kAdaptiveFloorFrac * med;
  const double decay = std::clamp(
      1.0 - dsp::kAdaptiveDecayPerS / static_cast<double>(cfg.fs_hz), 0.0,
      1.0);
  const auto refractory =
      static_cast<std::size_t>(dsp::kRefractoryS * cfg.fs_hz);
  const auto search = std::max<std::size_t>(
      1, static_cast<std::size_t>(dsp::kAdaptiveSearchS * cfg.fs_hz));

  double amp = med;
  std::size_t next_ok = 0;
  scr.cands.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= next_ok && scr.energy[i] >= dsp::kAdaptiveFrac * amp) {
      // Threshold crossing on the QRS upslope: the apex is the energy
      // maximum within the short forward window.
      const std::size_t hi = std::min(n - 1, i + search);
      std::size_t apex = i;
      for (std::size_t j = i + 1; j <= hi; ++j)
        if (scr.energy[j] > scr.energy[apex]) apex = j;
      scr.cands.push_back({apex, scr.energy[apex]});
      next_ok = apex + refractory;
    }
    amp = std::max(amp * decay, std::max(scr.energy[i], floor_amp));
  }

  // Same signed-polarity apex convention as the wavelet detector, so the
  // two detectors cut beat windows at the same samples on agreement.
  const auto refine_radius = static_cast<std::size_t>(0.08 * cfg.fs_hz);
  refine_apexes(conditioned, scr.cands, refine_radius, peaks);
}

void detect_r_peaks_kind(const Signal& conditioned,
                         const PeakDetectorConfig& cfg, PeakScratch& scratch,
                         std::vector<std::size_t>& peaks) {
  if (cfg.kind == dsp::PeakDetectorKind::AdaptiveThreshold)
    detect_r_peaks_adaptive(conditioned, cfg, scratch, peaks);
  else
    detect_r_peaks_block(conditioned, cfg, scratch, peaks);
}

}  // namespace hbrp::kernels
