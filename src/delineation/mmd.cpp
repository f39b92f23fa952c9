#include "delineation/mmd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "kernels/dsp_condition.hpp"
#include "math/check.hpp"

namespace hbrp::delineation {

dsp::Signal mmd(const dsp::Signal& x, std::size_t length) {
  // The conditioner's van Herk dilate/erode kernels, bit-identical to
  // dsp::dilate/dsp::erode.
  kernels::ConditionScratch scratch;
  dsp::Signal d, e;
  kernels::dilate_block(x, length, scratch, d);
  kernels::erode_block(x, length, scratch, e);
  dsp::Signal out(x.size());
  // (d - x) - (x - e), each in [0, max - min] of the window, so
  // |mmd| <= 2 * 4,095 on conditioned input: a Sample.
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = static_cast<dsp::Sample>(d[i] + e[i] - 2 * x[i]);
  return out;
}

namespace {

/// MMD structuring-element length, in seconds, for QRS-scale analysis.
constexpr double kQrsScaleS = 0.06;
/// Search windows relative to the R peak (seconds).
constexpr double kQrsOnsetSearchS = 0.18;
constexpr double kQrsEndSearchS = 0.20;
constexpr double kPSearchS = 0.32;
constexpr double kTSearchS = 0.48;
/// Amplitude threshold (fraction of wave peak MMD response) used to
/// accept a P/T wave as present.
constexpr double kWavePresenceFrac = 0.08;

std::size_t odd_samples(double seconds, int fs) {
  auto n = static_cast<std::size_t>(seconds * fs);
  if (n % 2 == 0) ++n;
  return std::max<std::size_t>(n, 3);
}

// Scans from `from` in `step` direction (+1/-1) until |resp| stays below
// `thr` for `run` consecutive samples or `limit` is reached; returns the
// first sample of that quiet run (the wave boundary).
std::size_t scan_boundary(const dsp::Signal& resp, std::size_t from, int step,
                          dsp::Sample thr, std::size_t run,
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
// 5% of the peak (matching the generator's +-2.5 sigma ground-truth extent)
// plus a small noise floor.
std::size_t amplitude_boundary(const dsp::Signal& x, std::size_t peak,
                               int step, std::size_t limit) {
  const auto peak_amp = static_cast<double>(std::abs(x[peak]));
  const double thr = std::max(3.0, 0.05 * peak_amp);
  std::size_t i = peak;
  while (i != limit) {
    const auto next =
        static_cast<std::size_t>(static_cast<std::ptrdiff_t>(i) + step);
    if (std::abs(x[next]) < thr) return next;
    i = next;
  }
  return limit;
}

// Largest-|amplitude| sample in [lo, hi].
std::size_t abs_argmax(const dsp::Signal& x, std::size_t lo, std::size_t hi) {
  std::size_t best = lo;
  for (std::size_t i = lo; i <= hi; ++i)
    if (std::abs(x[i]) > std::abs(x[best])) best = i;
  return best;
}

}  // namespace

ecg::Fiducials delineate_beat(const dsp::Signal& conditioned,
                              std::size_t r_peak,
                              const DelineatorConfig& cfg) {
  HBRP_REQUIRE(cfg.fs_hz > 0, "delineate_beat(): fs must be positive");
  HBRP_REQUIRE(r_peak < conditioned.size(),
               "delineate_beat(): r_peak out of range");

  const int fs = cfg.fs_hz;
  auto samples = [fs](double s) {
    return static_cast<std::size_t>(s * fs);
  };

  // Work on a crop around the beat so per-beat cost is O(beat), not O(record).
  const std::size_t margin = samples(0.75);
  const std::size_t crop_lo = r_peak > margin ? r_peak - margin : 0;
  const std::size_t crop_hi =
      std::min(conditioned.size() - 1, r_peak + margin);
  dsp::Signal crop(conditioned.begin() + static_cast<std::ptrdiff_t>(crop_lo),
                   conditioned.begin() + static_cast<std::ptrdiff_t>(crop_hi) +
                       1);
  const std::size_t r = r_peak - crop_lo;
  const std::size_t last = crop.size() - 1;

  const dsp::Signal q_resp = mmd(crop, odd_samples(kQrsScaleS, fs));

  ecg::Fiducials f;
  f.r_peak = r_peak;

  // --- QRS boundaries ------------------------------------------------------
  const std::size_t qrs_lo =
      r > samples(kQrsOnsetSearchS) ? r - samples(kQrsOnsetSearchS) : 0;
  const std::size_t qrs_hi = std::min(last, r + samples(kQrsEndSearchS));
  int qrs_max = 0;  // |mmd| in int: exact even for a response of -2^15
  for (std::size_t i = qrs_lo; i <= qrs_hi; ++i)
    qrs_max = std::max(qrs_max, std::abs(q_resp[i]));
  const auto thr = static_cast<dsp::Sample>(std::max(1, qrs_max / 10));
  const std::size_t run = std::max<std::size_t>(2, samples(0.014));

  const std::size_t start_l = r > samples(0.008) ? r - samples(0.008) : 0;
  const std::size_t start_r = std::min(last, r + samples(0.008));
  const std::size_t onset =
      scan_boundary(q_resp, start_l, -1, thr, run, qrs_lo);
  const std::size_t end = scan_boundary(q_resp, start_r, +1, thr, run, qrs_hi);
  f.qrs_onset = crop_lo + onset;
  f.qrs_end = crop_lo + end;

  // --- P wave --------------------------------------------------------------
  const std::size_t p_lo =
      r > samples(kPSearchS) ? r - samples(kPSearchS) : 0;
  const std::size_t p_hi = onset > samples(0.012) ? onset - samples(0.012) : 0;
  if (p_hi > p_lo + samples(0.03)) {
    const std::size_t p_peak = abs_argmax(crop, p_lo, p_hi);
    const double r_amp = std::abs(static_cast<double>(crop[r]));
    if (std::abs(static_cast<double>(crop[p_peak])) >=
            std::max(4.0, kWavePresenceFrac * r_amp) &&
        p_peak > p_lo && p_peak < p_hi) {
      f.p_peak = crop_lo + p_peak;
      f.p_onset = crop_lo + amplitude_boundary(crop, p_peak, -1, p_lo);
      f.p_end = crop_lo + amplitude_boundary(crop, p_peak, +1, p_hi);
    }
  }

  // --- T wave --------------------------------------------------------------
  const std::size_t t_lo = std::min(last, end + samples(0.016));
  const std::size_t t_hi = std::min(last, r + samples(kTSearchS));
  if (t_hi > t_lo + samples(0.05)) {
    const std::size_t t_peak = abs_argmax(crop, t_lo, t_hi);
    const double r_amp = std::abs(static_cast<double>(crop[r]));
    if (std::abs(static_cast<double>(crop[t_peak])) >=
            std::max(4.0, kWavePresenceFrac * r_amp) &&
        t_peak > t_lo && t_peak < t_hi) {
      f.t_peak = crop_lo + t_peak;
      f.t_onset = crop_lo + amplitude_boundary(crop, t_peak, -1, t_lo);
      f.t_end = crop_lo + amplitude_boundary(crop, t_peak, +1, t_hi);
    }
  }
  return f;
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
