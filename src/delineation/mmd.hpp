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
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/signal.hpp"
#include "ecg/types.hpp"

namespace hbrp::delineation {

/// MMD response of `x` at structuring-element scale `length` (odd samples).
dsp::Signal mmd(const dsp::Signal& x, std::size_t length);

struct DelineatorConfig {
  int fs_hz = dsp::kMitBihFs;
};

/// Delineates one beat on conditioned single-lead data.
/// Returns fiducial sample indices (absolute); absent waves are flagged
/// with Fiducials::kNoFiducial.
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
