// Shared inputs of the golden-digest tests (KernelsDspGolden in
// test_kernels_dsp.cpp, DelineationGolden in test_delineation.cpp,
// FleetGolden in test_drift_integration.cpp, WireGolden.EcgBytesArePinned
// in test_net_wire.cpp): one synthetic record per profile, with a saturated
// stretch and a lead-off stretch, turned into codes at the edge by
// dsp::sanitize_lead — and the FNV-1a digest that pins what the kernels,
// the delineator and the fleet make of them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/quality.hpp"
#include "dsp/signal.hpp"
#include "ecg/synth.hpp"
#include "testing/fault_inject.hpp"

namespace hbrp::golden {

/// FNV-1a 64. Samples and indices are mixed as little-endian 32-bit words,
/// as in Dataset.OutputDigestIsPinned, so a digest depends neither on the
/// width of dsp::Sample nor on the host's byte order.
class Digest {
 public:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  void word(std::uint32_t w) {
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  template <typename Range>
  void samples(const Range& xs) {
    word(static_cast<std::uint32_t>(xs.size()));
    for (const dsp::Sample x : xs) word(static_cast<std::uint32_t>(x));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

inline constexpr ecg::RecordProfile kProfiles[] = {
    ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
    ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};

/// The whole code range as rails, so the stretches below reach both ends of
/// it: a conditioned sample and a wavelet detail then span their full range.
inline dsp::QualityConfig full_scale_rails() {
  dsp::QualityConfig rails;
  rails.rail_low = dsp::kMinCode;
  rails.rail_high = dsp::kMaxCode;
  return rails;
}

/// 120 s of `profile` at 360 Hz, one lead. The front end saturates above
/// the top code for 3 s at 30 s, long enough for the SQI to grade it Bad.
/// At 70 s the lead falls off below the bottom code for 100 ms, shorter
/// than the baseline's opening element, so the baseline cannot follow it
/// and the conditioned signal swings ~3,000 codes. sanitize_lead clamps
/// both stretches to the rails.
inline dsp::Signal record(ecg::RecordProfile profile) {
  ecg::SynthConfig cfg;
  cfg.profile = profile;
  cfg.duration_s = 120.0;
  cfg.num_leads = 1;
  cfg.seed = 4100 + static_cast<std::uint64_t>(profile);
  const auto fs = static_cast<std::size_t>(cfg.fs_hz);
  testing::FaultInjectorConfig faults;
  faults.seed = cfg.seed;
  faults.rail_high = 4000;
  faults.events.push_back({testing::FaultKind::Saturation, 30 * fs, 3 * fs});
  faults.events.push_back(
      {testing::FaultKind::LeadOff, 70 * fs, fs / 10, -4000.0});
  return dsp::sanitize_lead(
      testing::FaultInjector::apply(ecg::generate_record(cfg).leads[0],
                                    faults),
      full_scale_rails());
}

}  // namespace hbrp::golden
