// Cycle-cost model of the embedded kernels on an IcyHeart-class MCU.
//
// The paper measures duty cycles on the IcyHeart SoC (icyflex core, 6 MHz).
// Without that silicon, this module models per-stage cycle consumption
// analytically from the *operation structure of the kernels in this
// library*: every formula below is the literal count of ALU ops, multiplies,
// loads/stores, shifts and branches in the corresponding inner loop,
// weighted by a per-operation cycle table typical of a small in-order
// 32-bit RISC core. Stage-to-stage duty-cycle *ratios* — what Table III and
// the Section IV energy study actually report — therefore follow from the
// real arithmetic workload rather than from tuned constants.
//
// The morphological filters can be modelled in two variants:
//   - NaivePerSample: the textbook O(L)-per-sample structuring-element scan,
//     which matches the firmware of [1] that the paper profiles;
//   - MonotonicDeque: this library's O(1) amortized implementation, exposed
//     as an ablation (bench_table3_runtime --deque) showing how much of the
//     filtering duty cycle is an implementation artefact.
#pragma once

#include <cstddef>

#include "dsp/morphology.hpp"

namespace hbrp::platform {

/// Cycles per primitive operation (in-order 32-bit RISC, single-issue,
/// 2-cycle SRAM access, 3-cycle multiplier, no divider — division is a
/// ~35-cycle software routine).
struct CycleModel {
  double alu = 1.0;
  double mul = 3.0;
  double div = 35.0;
  double load = 2.0;
  double store = 2.0;
  double branch = 2.0;
  double shift = 1.0;
};

enum class MorphologyImpl { NaivePerSample, MonotonicDeque };

/// Per-stage cycle costs for the processing chain of Fig. 6.
class KernelCosts {
 public:
  KernelCosts(CycleModel ops, int fs_hz,
              MorphologyImpl morph = MorphologyImpl::NaivePerSample);

  const CycleModel& ops() const { return ops_; }
  int fs_hz() const { return fs_hz_; }
  MorphologyImpl morphology() const { return morph_; }

  /// One erosion or dilation pass, per input sample, for a structuring
  /// element of `length` samples.
  double morphology_pass_per_sample(std::size_t length) const;

  /// Full single-lead conditioning chain (baseline removal + noise
  /// suppression, 12 erosion/dilation passes plus combining arithmetic),
  /// per input sample.
  double conditioning_per_sample() const;

  /// Four-scale a-trous decomposition, per input sample.
  double wavelet_per_sample() const;

  /// Peak detector bookkeeping (extrema scan, thresholds, pairing),
  /// per input sample.
  double peak_logic_per_sample() const;

  /// Downsampling + packed ternary projection, per beat.
  double rp_projection_per_beat(std::size_t coefficients, std::size_t window,
                                std::size_t downsample) const;

  /// Integer MF evaluation + shift-normalized fuzzification +
  /// division-free defuzzification, per beat.
  double nfc_per_beat(std::size_t coefficients) const;

  /// Online drift tracking (src/drift) per classified beat: the
  /// nearest-seed scan over `seeds` training centroids of `coefficients`
  /// dims, then the novelty compare and the score-window ring-buffer
  /// bookkeeping. The projection itself is NOT charged here — the tracker
  /// reuses the classifier's coefficients.
  double drift_update_per_beat(std::size_t coefficients,
                               std::size_t seeds) const;

  /// Complete RP classifier (projection + NFC), per beat.
  double rp_classifier_per_beat(std::size_t coefficients, std::size_t window,
                                std::size_t downsample) const;

  /// Multi-lead MMD delineation of one beat (crop, two MMD scales, boundary
  /// scans and wave searches on each of `num_leads` leads, plus fusion).
  double delineation_per_beat(std::size_t num_leads) const;

 private:
  CycleModel ops_;
  int fs_hz_;
  MorphologyImpl morph_;
  dsp::FilterConfig filter_;
};

}  // namespace hbrp::platform
