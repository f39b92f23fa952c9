#include "platform/cycles.hpp"

#include "math/check.hpp"

namespace hbrp::platform {

KernelCosts::KernelCosts(CycleModel ops, int fs_hz, MorphologyImpl morph)
    : ops_(ops), fs_hz_(fs_hz), morph_(morph),
      filter_(dsp::FilterConfig::for_rate(fs_hz)) {
  HBRP_REQUIRE(fs_hz > 0, "KernelCosts: fs must be positive");
}

double KernelCosts::morphology_pass_per_sample(std::size_t length) const {
  if (morph_ == MorphologyImpl::NaivePerSample) {
    // For each output sample: scan the L-sample window keeping a running
    // min/max — per element one load, one compare, one conditional move,
    // plus loop branch; plus one store per sample.
    const auto len = static_cast<double>(length);
    return len * (ops_.load + 2.0 * ops_.alu + ops_.branch) + ops_.store;
  }
  // Monotonic deque: every element is pushed once and popped at most once;
  // per sample ~1 push (store + index alu), ~1 amortized pop (load +
  // compare + branch), window-eviction check, and the output store.
  return 2.0 * ops_.load + 2.0 * ops_.store + 3.0 * ops_.alu +
         2.0 * ops_.branch;
}

double KernelCosts::conditioning_per_sample() const {
  // Baseline estimate: open (erode+dilate at open_len) then close
  // (dilate+erode at close_len) -> 4 passes; subtraction -> 1 alu + ld/st.
  const double baseline =
      2.0 * morphology_pass_per_sample(filter_.baseline_open_len) +
      2.0 * morphology_pass_per_sample(filter_.baseline_close_len) +
      ops_.alu + ops_.load + ops_.store;
  // Noise suppression: open-close and close-open with the short element
  // (4 + 4 = 8 passes) plus the rounding average (2 alu + shift + ld/st).
  const double noise =
      8.0 * morphology_pass_per_sample(filter_.noise_len) + 2.0 * ops_.alu +
      ops_.shift + 2.0 * ops_.load + ops_.store;
  return baseline + noise;
}

double KernelCosts::wavelet_per_sample() const {
  // Per scale: lowpass = 3 adds + scaling shift + 4 loads + 1 store;
  // highpass = 1 subtract + 1 shift + 2 loads + 1 store.
  const double lowpass =
      3.0 * ops_.alu + ops_.shift + 4.0 * ops_.load + ops_.store;
  const double highpass =
      ops_.alu + ops_.shift + 2.0 * ops_.load + ops_.store;
  return 4.0 * (lowpass + highpass);
}

double KernelCosts::peak_logic_per_sample() const {
  // Extrema tracking (compare + direction state), adaptive threshold
  // bookkeeping and the amortized pair/zero-crossing scans.
  return 4.0 * ops_.alu + 2.0 * ops_.branch + 2.0 * ops_.load + ops_.store;
}

double KernelCosts::rp_projection_per_beat(std::size_t coefficients,
                                           std::size_t window,
                                           std::size_t downsample) const {
  HBRP_REQUIRE(downsample >= 1, "rp_projection_per_beat(): downsample >= 1");
  const auto d = static_cast<double>(window / downsample);
  // Downsampling: accumulate `window` samples, one shift+store per output.
  const double ds_cost =
      static_cast<double>(window) * (ops_.load + ops_.alu) +
      d * (ops_.shift + ops_.store);
  // Packed projection: per element 2-bit extract (shift + mask), branch on
  // the code, conditional add/sub, amortized quarter byte-load per element.
  const double per_element = 2.0 * ops_.shift + ops_.branch + ops_.alu +
                             0.25 * ops_.load;
  return ds_cost + static_cast<double>(coefficients) * d * per_element +
         static_cast<double>(coefficients) * ops_.store;
}

double KernelCosts::nfc_per_beat(std::size_t coefficients) const {
  // MF eval per (coefficient, class): |x - c| (subtract + abs), three
  // breakpoint compares/branches, one slope multiply + shift, table loads.
  const double mf_eval = 2.0 * ops_.alu + 3.0 * ops_.branch + ops_.mul +
                         ops_.shift + 2.0 * ops_.load;
  // Fuzzification per coefficient: 3-way max (2 cmp), CLZ (1), 3 x
  // (shift-left, shift-right-16, multiply).
  const double fuzz_step = 2.0 * ops_.alu + ops_.shift +
                           3.0 * (2.0 * ops_.shift + ops_.mul);
  // Defuzzification: max/2nd-max scan, 64-bit widening multiply (2 muls),
  // compare.
  const double defuzz = 6.0 * ops_.alu + 2.0 * ops_.mul + 2.0 * ops_.branch;
  const auto k = static_cast<double>(coefficients);
  return k * 3.0 * mf_eval + k * fuzz_step + defuzz;
}

double KernelCosts::drift_update_per_beat(std::size_t coefficients,
                                          std::size_t seeds) const {
  // Seed scan, per (seed, coefficient): centroid load, subtract, square
  // (multiply), accumulate. Per seed: load the seed's squared norm and
  // scale the squared distance by it, then compare + branch for the
  // nearest seed (no sqrt on the embedded path — thresholds compare
  // squared).
  const double dist_elem = ops_.load + 2.0 * ops_.alu + ops_.mul;
  const double per_seed = static_cast<double>(coefficients) * dist_elem +
                          ops_.load + ops_.mul + ops_.alu + ops_.branch;
  // Novelty ring buffer + windowed-score compare + alarm latch.
  const double window =
      2.0 * ops_.load + ops_.store + 3.0 * ops_.alu + 2.0 * ops_.branch;
  return static_cast<double>(seeds) * per_seed + window;
}

double KernelCosts::rp_classifier_per_beat(std::size_t coefficients,
                                           std::size_t window,
                                           std::size_t downsample) const {
  return rp_projection_per_beat(coefficients, window, downsample) +
         nfc_per_beat(coefficients);
}

double KernelCosts::delineation_per_beat(std::size_t num_leads) const {
  // Per lead: a ~1.5 s crop is analyzed.
  const double crop_samples = 1.5 * fs_hz_;
  // Two MMD responses (QRS scale ~0.06 s, wave scale ~0.14 s): each is an
  // erosion + a dilation + the combine (2 alu + ld/st) over the crop.
  const double mmd_qrs =
      crop_samples * (2.0 * morphology_pass_per_sample(
                                static_cast<std::size_t>(0.06 * fs_hz_) | 1) +
                      2.0 * ops_.alu + ops_.load + ops_.store);
  const double mmd_wave =
      crop_samples * (2.0 * morphology_pass_per_sample(
                                static_cast<std::size_t>(0.14 * fs_hz_) | 1) +
                      2.0 * ops_.alu + ops_.load + ops_.store);
  // Boundary scans and P/T searches: a few linear passes over the crop.
  const double scans =
      3.0 * crop_samples * (ops_.load + 2.0 * ops_.alu + ops_.branch);
  const double per_lead = mmd_qrs + mmd_wave + scans;
  // Median fusion across leads: negligible but non-zero.
  const double fusion = 9.0 * 8.0 * ops_.alu;
  return static_cast<double>(num_leads) * per_lead + fusion;
}

}  // namespace hbrp::platform
