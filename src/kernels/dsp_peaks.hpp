// Block-mode R-peak detectors with reusable scratch.
//
// Two detectors behind one scratch object:
//
//  - detect_r_peaks_block: the paper's cross-scale wavelet modulus-maxima
//    detector, identical in output to dsp::detect_r_peaks, restated over the
//    block wavelet kernel (kernels/dsp_wavelet.hpp) with every intermediate
//    (decomposition, extrema, threshold envelopes, candidate lists) living in
//    caller-provided scratch so repeated streaming scans allocate nothing in
//    steady state.
//
//  - detect_r_peaks_adaptive: an O(1)-per-sample fast path — slope energy
//    (derivative, square, short integration: the Pan–Tompkins front end)
//    against a running amplitude estimate that decays exponentially
//    between beats (the classic wearable-HRV detector idiom). No wavelet
//    transform at all; candidates are refined to the same signed-polarity
//    apex convention as the wavelet detector, so downstream beat windows cut
//    identically. Accuracy is gated against the wavelet detector by
//    tests/test_detector_equivalence.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/peak_detect.hpp"
#include "dsp/signal.hpp"
#include "kernels/dsp_wavelet.hpp"

namespace hbrp::kernels {

/// Reusable workspace for both detectors: once it has grown to the input
/// size, further scans allocate nothing. Nothing in it outlives one call,
/// so streaming monitors share one per thread (kernels::DspWorkspace,
/// dsp_workspace.hpp) rather than one per stream.
struct PeakScratch {
  struct Extremum {
    std::size_t index = 0;
    dsp::Sample value = 0;
  };
  struct Candidate {
    std::size_t peak = 0;
    double strength = 0.0;  // |w| sum of the generating pair
  };

  dsp::WaveletDecomposition dec;
  WaveletScratch wavelet;
  std::vector<Extremum> ext;
  std::vector<Extremum> coarse_ext;
  /// Wavelet detector: one threshold per dsp::kBlockS block at each scale. The
  /// adaptive detector reuses `thr` as its per-sample slope buffer.
  std::vector<double> thr;
  std::vector<double> fine_thr;
  std::vector<double> coarse_thr;
  std::vector<double> block_max;
  std::vector<Candidate> cands;
  std::vector<Candidate> merged;
  std::vector<Candidate> extra;
  std::vector<double> energy;
};

/// Wavelet detector: bit-identical peak list to dsp::detect_r_peaks for the
/// same input and config (gated by tests/test_kernels_dsp.cpp).
void detect_r_peaks_block(const dsp::Signal& conditioned,
                          const dsp::PeakDetectorConfig& cfg,
                          PeakScratch& scratch,
                          std::vector<std::size_t>& peaks);

/// Adaptive-threshold detector: running-amplitude decay over the squared
/// conditioned signal; tuned by the dsp::kAdaptive* constants.
void detect_r_peaks_adaptive(const dsp::Signal& conditioned,
                             const dsp::PeakDetectorConfig& cfg,
                             PeakScratch& scratch,
                             std::vector<std::size_t>& peaks);

/// Runs the detector selected by cfg.kind.
void detect_r_peaks_kind(const dsp::Signal& conditioned,
                         const dsp::PeakDetectorConfig& cfg,
                         PeakScratch& scratch, std::vector<std::size_t>& peaks);

}  // namespace hbrp::kernels
