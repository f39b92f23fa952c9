#include "platform/icyheart.hpp"

#include "math/check.hpp"

namespace hbrp::platform {

namespace {
void validate(const ScenarioParams& p) {
  HBRP_REQUIRE(p.beat_rate_hz > 0.0, "ScenarioParams: beat rate > 0");
  HBRP_REQUIRE(p.flagged_fraction >= 0.0 && p.flagged_fraction <= 1.0,
               "ScenarioParams: flagged fraction in [0, 1]");
  HBRP_REQUIRE(p.num_leads >= 1, "ScenarioParams: at least one lead");
  HBRP_REQUIRE(p.downsample >= 1 && p.window % p.downsample == 0,
               "ScenarioParams: window must be divisible by downsample");
}
}  // namespace

namespace {

// The drift tracker rides the classifier's projection, so its only cost
// is the per-beat seed scan and score window — zero when tracking is off.
double drift_cycles_per_second(const KernelCosts& k,
                               const ScenarioParams& p) {
  if (p.drift_seeds == 0) return 0.0;
  return p.beat_rate_hz *
         k.drift_update_per_beat(p.coefficients, p.drift_seeds);
}

}  // namespace

SystemLoad load_rp_classifier(const KernelCosts& k, const ScenarioParams& p) {
  validate(p);
  return {p.beat_rate_hz * k.rp_classifier_per_beat(p.coefficients, p.window,
                                                    p.downsample) +
          drift_cycles_per_second(k, p)};
}

SystemLoad load_subsystem1(const KernelCosts& k, const ScenarioParams& p) {
  validate(p);
  const double fs = static_cast<double>(k.fs_hz());
  const double per_second =
      fs * (k.conditioning_per_sample() + k.wavelet_per_sample() +
            k.peak_logic_per_sample()) +
      p.beat_rate_hz *
          k.rp_classifier_per_beat(p.coefficients, p.window, p.downsample) +
      drift_cycles_per_second(k, p);
  return {per_second};
}

SystemLoad load_subsystem2(const KernelCosts& k, const ScenarioParams& p) {
  validate(p);
  const double fs = static_cast<double>(k.fs_hz());
  // All leads filtered continuously; peak detection on the reference lead;
  // every beat delineated.
  const double per_second =
      fs * (static_cast<double>(p.num_leads) * k.conditioning_per_sample() +
            k.wavelet_per_sample() + k.peak_logic_per_sample()) +
      p.beat_rate_hz * k.delineation_per_beat(p.num_leads);
  return {per_second};
}

SystemLoad load_system3(const KernelCosts& k, const ScenarioParams& p) {
  validate(p);
  const double fs = static_cast<double>(k.fs_hz());
  // Sub-system (1) runs continuously. For flagged beats only, the remaining
  // leads are conditioned over the beat's analysis crop (~1.5 s of signal)
  // and the multi-lead delineation executes.
  const double crop_samples = 1.5 * fs;
  const double extra_leads = static_cast<double>(p.num_leads - 1);
  const double gated_per_beat =
      extra_leads * crop_samples * k.conditioning_per_sample() +
      k.delineation_per_beat(p.num_leads);
  const double per_second =
      load_subsystem1(k, p).cycles_per_second +
      p.beat_rate_hz * p.flagged_fraction * gated_per_beat;
  return {per_second};
}

}  // namespace hbrp::platform
