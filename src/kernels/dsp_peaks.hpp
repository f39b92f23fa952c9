// Block-mode R-peak detector with reusable scratch.
//
// detect_r_peaks_block is the paper's cross-scale wavelet modulus-maxima
// detector (Rincon et al. 2011), identical in output to dsp::detect_r_peaks,
// restated over the block wavelet kernel (kernels/dsp_wavelet.hpp) with
// every intermediate (decomposition, extrema, threshold envelopes,
// candidate lists) living in caller-provided scratch, so repeated streaming
// scans allocate nothing in steady state. It is the one detector the node,
// the gateway's sessions, the offline pipeline and the dataset builder run.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/peak_detect.hpp"
#include "dsp/signal.hpp"
#include "kernels/dsp_wavelet.hpp"

namespace hbrp::kernels {

/// Reusable workspace for the detector: once it has grown to the input
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
  /// One threshold per dsp::kBlockS block at each scale.
  std::vector<double> thr;
  std::vector<double> fine_thr;
  std::vector<double> coarse_thr;
  std::vector<double> block_max;
  std::vector<Candidate> cands;
  std::vector<Candidate> merged;
  std::vector<Candidate> extra;
};

/// Bit-identical peak list to dsp::detect_r_peaks for the same input and
/// config (gated by tests/test_kernels_dsp.cpp).
void detect_r_peaks_block(const dsp::Signal& conditioned,
                          const dsp::PeakDetectorConfig& cfg,
                          PeakScratch& scratch,
                          std::vector<std::size_t>& peaks);

/// Forwards to detect_r_peaks_block. Its one caller is the frozen
/// bench/e2e/ledger.cpp; delete it when that file next changes.
inline void detect_r_peaks_kind(const dsp::Signal& conditioned,
                                const dsp::PeakDetectorConfig& cfg,
                                PeakScratch& scratch,
                                std::vector<std::size_t>& peaks) {
  detect_r_peaks_block(conditioned, cfg, scratch, peaks);
}

}  // namespace hbrp::kernels
