#include "delineation/mmd.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "math/check.hpp"

namespace hbrp::delineation {

namespace {

/// MMD response of `x` into scratch.response. The conditioner's van Herk
/// dilate/erode kernels, bit-identical to dsp::dilate/dsp::erode.
void mmd_into(std::span<const dsp::Sample> x, std::size_t length,
              DelineationScratch& s) {
  kernels::dilate_block(x, length, s.morphology, s.dilated);
  kernels::erode_block(x, length, s.morphology, s.eroded);
  s.response.resize(x.size());
  // (d - x) - (x - e), each in [0, max - min] of the window, so
  // |mmd| <= 2 * 4,095 on conditioned input: a Sample.
  for (std::size_t i = 0; i < x.size(); ++i)
    s.response[i] =
        static_cast<dsp::Sample>(s.dilated[i] + s.eroded[i] - 2 * x[i]);
}

/// Only this much signal on either side of the R peak is read.
constexpr int kCropMs = 750;
/// MMD structuring-element length for QRS-scale analysis.
constexpr int kQrsScaleMs = 60;
/// Search windows relative to the R peak.
constexpr int kQrsOnsetSearchMs = 180;
constexpr int kQrsEndSearchMs = 200;
constexpr int kPSearchMs = 320;
constexpr int kTSearchMs = 480;
/// The QRS boundary scans start this far from the R peak and stop at the
/// first quiet run of kQuietRunMs.
constexpr int kQrsScanStartMs = 8;
constexpr int kQuietRunMs = 14;
/// The P window ends kPGapMs before the QRS onset, the T window starts
/// kTGapMs after the QRS end; each must span more than its minimum width.
constexpr int kPGapMs = 12;
constexpr int kPMinWidthMs = 30;
constexpr int kTGapMs = 16;
constexpr int kTMinWidthMs = 50;
/// A P/T wave is present when its peak amplitude reaches kMinWaveAmp codes
/// and 2/25 (8%) of the R amplitude.
constexpr int kMinWaveAmp = 4;
constexpr int kPresenceNum = 2;
constexpr int kPresenceDen = 25;
/// A wave ends where the amplitude falls below 1/20 (5%) of its peak,
/// matching the generator's +-2.5 sigma ground-truth extent, or below a
/// noise floor of kBoundaryFloor codes.
constexpr int kBoundaryDen = 20;
constexpr int kBoundaryFloor = 3;

/// Whole samples in `ms` milliseconds at `fs` Hz, rounded down.
std::size_t samples(int ms, int fs) {
  return static_cast<std::size_t>(ms) * static_cast<std::size_t>(fs) / 1000;
}

std::size_t odd_samples(int ms, int fs) {
  std::size_t n = samples(ms, fs);
  if (n % 2 == 0) ++n;
  return std::max<std::size_t>(n, 3);
}

// Scans from `from` in `step` direction (+1/-1) until |resp| stays below
// `thr` for `run` consecutive samples or `limit` is reached; returns the
// first sample of that quiet run (the wave boundary).
std::size_t scan_boundary(std::span<const dsp::Sample> resp, std::size_t from,
                          int step, int thr, std::size_t run,
                          std::size_t limit) {
  std::size_t quiet = 0;
  std::size_t i = from;
  std::size_t boundary = limit;
  for (;;) {
    if (std::abs(resp[i]) < thr) {
      if (quiet == 0) boundary = i;
      if (++quiet >= run) return boundary;
    } else {
      quiet = 0;
    }
    if (i == limit) break;
    i = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(i) + step);
  }
  return limit;
}

// Scans outward from a wave peak until the signal amplitude decays below
// the boundary threshold: |x| < max(kBoundaryFloor, |peak| / kBoundaryDen),
// compared without a division.
std::size_t amplitude_boundary(std::span<const dsp::Sample> x,
                               std::size_t peak, int step, std::size_t limit) {
  const int peak_amp = std::abs(x[peak]);
  std::size_t i = peak;
  while (i != limit) {
    const auto next =
        static_cast<std::size_t>(static_cast<std::ptrdiff_t>(i) + step);
    const int amp = std::abs(x[next]);
    if (amp < kBoundaryFloor || kBoundaryDen * amp < peak_amp) return next;
    i = next;
  }
  return limit;
}

// Largest-|amplitude| sample in [lo, hi].
std::size_t abs_argmax(std::span<const dsp::Sample> x, std::size_t lo,
                       std::size_t hi) {
  std::size_t best = lo;
  for (std::size_t i = lo; i <= hi; ++i)
    if (std::abs(x[i]) > std::abs(x[best])) best = i;
  return best;
}

/// Whether a wave peaking at amplitude `wave` counts as present next to an
/// R amplitude of `r`: |wave| >= max(kMinWaveAmp, 2/25 |r|).
bool wave_present(dsp::Sample wave, dsp::Sample r) {
  const int amp = std::abs(wave);
  return amp >= kMinWaveAmp && kPresenceDen * amp >= kPresenceNum * std::abs(r);
}

}  // namespace

dsp::Signal mmd(const dsp::Signal& x, std::size_t length) {
  DelineationScratch s;
  mmd_into(x, length, s);
  return std::move(s.response);
}

Reach reach(const DelineatorConfig& cfg) {
  HBRP_REQUIRE(cfg.fs_hz > 0, "delineation::reach(): fs must be positive");
  return {samples(kPSearchMs, cfg.fs_hz), samples(kTSearchMs, cfg.fs_hz)};
}

ecg::Fiducials delineate_beat(std::span<const dsp::Sample> conditioned,
                              std::size_t r_peak, const DelineatorConfig& cfg,
                              DelineationScratch& scratch) {
  HBRP_REQUIRE(cfg.fs_hz > 0, "delineate_beat(): fs must be positive");
  HBRP_REQUIRE(r_peak < conditioned.size(),
               "delineate_beat(): r_peak out of range");

  const int fs = cfg.fs_hz;
  const auto ms = [fs](int v) { return samples(v, fs); };

  // Work on a crop around the beat so per-beat cost is O(beat), not O(record).
  const std::size_t margin = ms(kCropMs);
  const std::size_t crop_lo = r_peak > margin ? r_peak - margin : 0;
  const std::size_t crop_hi =
      std::min(conditioned.size() - 1, r_peak + margin);
  const std::span<const dsp::Sample> crop =
      conditioned.subspan(crop_lo, crop_hi - crop_lo + 1);
  const std::size_t r = r_peak - crop_lo;
  const std::size_t last = crop.size() - 1;

  mmd_into(crop, odd_samples(kQrsScaleMs, fs), scratch);
  const std::span<const dsp::Sample> q_resp(scratch.response);

  ecg::Fiducials f;
  f.r_peak = r_peak;

  // --- QRS boundaries ------------------------------------------------------
  const std::size_t qrs_lo =
      r > ms(kQrsOnsetSearchMs) ? r - ms(kQrsOnsetSearchMs) : 0;
  const std::size_t qrs_hi = std::min(last, r + ms(kQrsEndSearchMs));
  int qrs_max = 0;  // |mmd| in int: exact even for a response of -2^15
  for (std::size_t i = qrs_lo; i <= qrs_hi; ++i)
    qrs_max = std::max(qrs_max, std::abs(q_resp[i]));
  const int thr = std::max(1, qrs_max / 10);
  const std::size_t run = std::max<std::size_t>(2, ms(kQuietRunMs));

  const std::size_t start_l =
      r > ms(kQrsScanStartMs) ? r - ms(kQrsScanStartMs) : 0;
  const std::size_t start_r = std::min(last, r + ms(kQrsScanStartMs));
  const std::size_t onset =
      scan_boundary(q_resp, start_l, -1, thr, run, qrs_lo);
  const std::size_t end = scan_boundary(q_resp, start_r, +1, thr, run, qrs_hi);
  f.qrs_onset = crop_lo + onset;
  f.qrs_end = crop_lo + end;

  // --- P wave --------------------------------------------------------------
  const std::size_t p_lo = r > ms(kPSearchMs) ? r - ms(kPSearchMs) : 0;
  const std::size_t p_hi = onset > ms(kPGapMs) ? onset - ms(kPGapMs) : 0;
  if (p_hi > p_lo + ms(kPMinWidthMs)) {
    const std::size_t p_peak = abs_argmax(crop, p_lo, p_hi);
    if (wave_present(crop[p_peak], crop[r]) && p_peak > p_lo &&
        p_peak < p_hi) {
      f.p_peak = crop_lo + p_peak;
      f.p_onset = crop_lo + amplitude_boundary(crop, p_peak, -1, p_lo);
      f.p_end = crop_lo + amplitude_boundary(crop, p_peak, +1, p_hi);
    }
  }

  // --- T wave --------------------------------------------------------------
  const std::size_t t_lo = std::min(last, end + ms(kTGapMs));
  const std::size_t t_hi = std::min(last, r + ms(kTSearchMs));
  if (t_hi > t_lo + ms(kTMinWidthMs)) {
    const std::size_t t_peak = abs_argmax(crop, t_lo, t_hi);
    if (wave_present(crop[t_peak], crop[r]) && t_peak > t_lo &&
        t_peak < t_hi) {
      f.t_peak = crop_lo + t_peak;
      f.t_onset = crop_lo + amplitude_boundary(crop, t_peak, -1, t_lo);
      f.t_end = crop_lo + amplitude_boundary(crop, t_peak, +1, t_hi);
    }
  }
  return f;
}

ecg::Fiducials delineate_beat(const dsp::Signal& conditioned,
                              std::size_t r_peak,
                              const DelineatorConfig& cfg) {
  DelineationScratch scratch;
  return delineate_beat(std::span<const dsp::Sample>(conditioned), r_peak,
                        cfg, scratch);
}

namespace {

constexpr std::size_t kNone = ecg::Fiducials::kNoFiducial;

// Median fuse of one fiducial across leads: present if detected on a
// majority of leads; value is the median of the detections.
std::size_t fuse(std::vector<std::size_t> values, std::size_t num_leads) {
  std::erase(values, kNone);
  const std::size_t majority = num_leads / 2 + 1;
  if (values.size() < std::min(majority, num_leads)) return kNone;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

ecg::Fiducials delineate_beat_multilead(
    const std::vector<dsp::Signal>& conditioned_leads, std::size_t r_peak,
    const DelineatorConfig& cfg) {
  HBRP_REQUIRE(!conditioned_leads.empty(),
               "delineate_beat_multilead(): no leads");
  std::vector<ecg::Fiducials> per_lead;
  per_lead.reserve(conditioned_leads.size());
  for (const dsp::Signal& lead : conditioned_leads)
    per_lead.push_back(delineate_beat(lead, r_peak, cfg));

  const std::size_t n = per_lead.size();
  auto collect = [&per_lead](std::size_t ecg::Fiducials::* field) {
    std::vector<std::size_t> vals;
    for (const auto& f : per_lead) vals.push_back(f.*field);
    return vals;
  };

  ecg::Fiducials fused;
  fused.r_peak = r_peak;
  fused.p_onset = fuse(collect(&ecg::Fiducials::p_onset), n);
  fused.p_peak = fuse(collect(&ecg::Fiducials::p_peak), n);
  fused.p_end = fuse(collect(&ecg::Fiducials::p_end), n);
  fused.qrs_onset = fuse(collect(&ecg::Fiducials::qrs_onset), n);
  fused.qrs_end = fuse(collect(&ecg::Fiducials::qrs_end), n);
  fused.t_onset = fuse(collect(&ecg::Fiducials::t_onset), n);
  fused.t_peak = fuse(collect(&ecg::Fiducials::t_peak), n);
  fused.t_end = fuse(collect(&ecg::Fiducials::t_end), n);
  return fused;
}

DelineationError compare_fiducials(const ecg::Fiducials& detected,
                                   const ecg::Fiducials& reference) {
  const std::array<std::pair<std::size_t, std::size_t>, 9> pairs = {{
      {detected.p_onset, reference.p_onset},
      {detected.p_peak, reference.p_peak},
      {detected.p_end, reference.p_end},
      {detected.qrs_onset, reference.qrs_onset},
      {detected.r_peak, reference.r_peak},
      {detected.qrs_end, reference.qrs_end},
      {detected.t_onset, reference.t_onset},
      {detected.t_peak, reference.t_peak},
      {detected.t_end, reference.t_end},
  }};
  DelineationError err;
  double acc = 0.0;
  for (const auto& [det, ref] : pairs) {
    if (ref == kNone) continue;
    if (det == kNone) {
      ++err.points_missed;
      continue;
    }
    acc += std::abs(static_cast<double>(det) - static_cast<double>(ref));
    ++err.points_compared;
  }
  if (err.points_compared > 0)
    err.mean_abs_error_samples = acc / static_cast<double>(err.points_compared);
  return err;
}

}  // namespace hbrp::delineation
