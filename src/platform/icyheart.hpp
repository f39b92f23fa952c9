// IcyHeart platform specification and system-level duty-cycle accounting.
//
// Composes the per-stage kernel costs into the three (sub)systems of the
// paper's Fig. 6 and Table III:
//   - RP classifier alone;
//   - sub-system (1): single-lead filtering + peak detection + RP classifier;
//   - sub-system (2): three-lead filtering + peak detection + always-on
//     multi-lead MMD delineation;
//   - system (3): sub-system (1) gating, with the remaining two leads
//     filtered and the delineation executed only for beats the classifier
//     flags pathological.
#pragma once

#include <cstddef>

#include "platform/cycles.hpp"

namespace hbrp::platform {

struct IcyHeartSpec {
  double clock_hz = 6.0e6;          ///< the paper runs the core at 6 MHz
  std::size_t ram_bytes = 96 * 1024;  ///< embedded RAM of the SoC
};

/// Workload parameters of a monitoring scenario.
struct ScenarioParams {
  /// Average heart rate of the input, beats per second (test set: ~1.2).
  double beat_rate_hz = 1.2;
  /// Fraction of beats the classifier flags pathological (true abnormals
  /// plus false alarms); drives the gated delineation duty.
  double flagged_fraction = 0.2;
  std::size_t num_leads = 3;
  std::size_t coefficients = 8;
  std::size_t window = 200;
  std::size_t downsample = 4;
  /// Training centroids the drift tracker (src/drift) scans per
  /// classified beat; 0 = tracking disabled, which leaves every legacy
  /// load unchanged.
  std::size_t drift_seeds = 0;
};

/// Cycle consumption of one (sub)system.
struct SystemLoad {
  double cycles_per_second = 0.0;

  double duty_cycle(const IcyHeartSpec& spec) const {
    return cycles_per_second / spec.clock_hz;
  }
};

SystemLoad load_rp_classifier(const KernelCosts& k, const ScenarioParams& p);
SystemLoad load_subsystem1(const KernelCosts& k, const ScenarioParams& p);
SystemLoad load_subsystem2(const KernelCosts& k, const ScenarioParams& p);
SystemLoad load_system3(const KernelCosts& k, const ScenarioParams& p);

}  // namespace hbrp::platform
