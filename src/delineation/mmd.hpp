// Multi-scale Morphological Derivative (MMD) wave delineation.
//
// The paper's "detailed analysis" stage — the expensive workload its RP
// classifier gates — is the multi-lead delineation of Rincon et al. (IEEE
// TITB 2011), which locates the onset, peak and end of the P wave, QRS
// complex and T wave using morphological derivatives.
//
// The MMD operator at scale s is
//     MMD_s(x)[n] = dilate_s(x)[n] + erode_s(x)[n] - 2 x[n]
// (a second-derivative analogue that is immune to impulse noise): it is
// strongly positive at valley-shaped points and strongly negative at
// peak-shaped ones, with wave boundaries appearing as extrema of the
// response at a scale matched to the wave's width.
//
// The delineator computes in integers only, like the rest of the node: its
// search windows are whole milliseconds turned into samples as
// ms * fs / 1000, and its amplitude tests are integer cross-multiplications.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/signal.hpp"
#include "ecg/types.hpp"
#include "kernels/dsp_condition.hpp"

namespace hbrp::delineation {

/// MMD response of `x` at structuring-element scale `length` (odd samples).
dsp::Signal mmd(const dsp::Signal& x, std::size_t length);

struct DelineatorConfig {
  int fs_hz = dsp::kMitBihFs;
};

/// How far from its R peak delineate_beat can place a fiducial: no point
/// lies more than `before` samples before the peak (the P-wave search
/// window) or `after` samples after it (the T-wave search window).
struct Reach {
  std::size_t before = 0;
  std::size_t after = 0;
};
Reach reach(const DelineatorConfig& cfg = {});

/// Reusable buffers of delineate_beat: once warm, a call allocates nothing.
struct DelineationScratch {
  kernels::ConditionScratch morphology;
  dsp::Signal dilated;
  dsp::Signal eroded;
  dsp::Signal response;
};

/// Delineates one beat on conditioned single-lead data. Fiducials are
/// indices into `conditioned`; absent waves are flagged with
/// Fiducials::kNoFiducial. Only the samples within 750 ms of `r_peak` are
/// read, so a view of a rolling buffer that holds them delineates exactly
/// like the whole record does.
ecg::Fiducials delineate_beat(std::span<const dsp::Sample> conditioned,
                              std::size_t r_peak, const DelineatorConfig& cfg,
                              DelineationScratch& scratch);

/// The same over a whole signal, with a scratch of its own.
ecg::Fiducials delineate_beat(const dsp::Signal& conditioned,
                              std::size_t r_peak,
                              const DelineatorConfig& cfg = {});

/// Multi-lead delineation: each lead is delineated independently and the
/// per-lead fiducials are fused by median (the multi-lead rule of [1],
/// which rejects a single noisy lead).
ecg::Fiducials delineate_beat_multilead(
    const std::vector<dsp::Signal>& conditioned_leads, std::size_t r_peak,
    const DelineatorConfig& cfg = {});

/// Mean absolute error (in samples) between detected and reference
/// fiducials, over the points present in both.
struct DelineationError {
  double mean_abs_error_samples = 0.0;
  std::size_t points_compared = 0;
  std::size_t points_missed = 0;  ///< present in reference, not detected
};
DelineationError compare_fiducials(const ecg::Fiducials& detected,
                                   const ecg::Fiducials& reference);

}  // namespace hbrp::delineation
