#include "dsp/quality.hpp"

#include <algorithm>
#include <cmath>

#include "math/check.hpp"

namespace hbrp::dsp {

namespace {

/// A sample within this distance of a rail counts as clipped.
constexpr Sample kRailMargin = 8;

/// |x[n] - x[n-1]| <= kFlatDelta counts toward the flat-line fraction.
/// Zero means exact repeats only: a detached electrode is *exactly*
/// constant, whereas clean quantized ECG dithers by ±1 adu even in quiet
/// diastole, so this separates the two without false alarms.
constexpr Sample kFlatDelta = 0;
/// |x[n] - x[n-1]| >= kImpulseDelta counts toward the impulse fraction.
constexpr Sample kImpulseDelta = 700;

/// Chunk fractions that demote to Bad.
constexpr double kClipBadFrac = 0.10;
constexpr double kFlatBadFrac = 0.80;
/// Chunk variance (adu^2) at or below which the chunk is a flat-line /
/// lead-off chunk regardless of the run-length check.
constexpr double kBadVariance = 2.0;

/// Chunk fractions that demote to (at least) Suspect.
constexpr double kClipSuspectFrac = 0.02;
constexpr double kFlatSuspectFrac = 0.50;
constexpr double kImpulseSuspectFrac = 0.02;

std::size_t frac_count(double frac, std::size_t chunk) {
  // Threshold count for "fraction of the chunk"; ceil so a zero fraction
  // still requires at least one sample and frac==1 requires the full chunk.
  return static_cast<std::size_t>(
      std::ceil(frac * static_cast<double>(chunk)));
}

}  // namespace

Sample sanitize_sample(double x, const QualityConfig& rails, Sample& hold,
                       SampleFix& fix) {
  if (!std::isfinite(x)) {
    fix = SampleFix::Held;
    return hold;
  }
  const auto lo = static_cast<double>(rails.rail_low);
  const auto hi = static_cast<double>(rails.rail_high);
  fix = x < lo || x > hi ? SampleFix::Clamped : SampleFix::None;
  hold = static_cast<Sample>(std::lround(std::clamp(x, lo, hi)));
  return hold;
}

std::vector<Sample> sanitize_lead(std::span<const double> xs,
                                  const QualityConfig& rails) {
  std::vector<Sample> codes;
  codes.reserve(xs.size());
  Sample hold = mid_rail(rails);
  SampleFix fix = SampleFix::None;
  for (const double x : xs)
    codes.push_back(sanitize_sample(x, rails, hold, fix));
  return codes;
}

SignalQualityEstimator::SignalQualityEstimator(const QualityConfig& cfg)
    : cfg_(cfg) {
  HBRP_REQUIRE(cfg.fs_hz > 0, "SignalQualityEstimator: fs_hz must be > 0");
  HBRP_REQUIRE(cfg.chunk_s > 0.0,
               "SignalQualityEstimator: chunk_s must be > 0");
  HBRP_REQUIRE(cfg.rail_low < cfg.rail_high,
               "SignalQualityEstimator: rail_low must be below rail_high");
  HBRP_REQUIRE(cfg.recover_chunks >= 1,
               "SignalQualityEstimator: recover_chunks must be >= 1");
  chunk_samples_ = static_cast<std::size_t>(cfg.chunk_s * cfg.fs_hz);
  HBRP_REQUIRE(chunk_samples_ >= 8,
               "SignalQualityEstimator: chunk must span at least 8 samples");
  clip_bad_count_ = std::max<std::size_t>(
      1, frac_count(kClipBadFrac, chunk_samples_));
  flat_bad_count_ = std::max<std::size_t>(
      1, frac_count(kFlatBadFrac, chunk_samples_));
  clip_suspect_count_ = std::max<std::size_t>(
      1, frac_count(kClipSuspectFrac, chunk_samples_));
  flat_suspect_count_ = std::max<std::size_t>(
      1, frac_count(kFlatSuspectFrac, chunk_samples_));
  impulse_suspect_count_ = std::max<std::size_t>(
      1, frac_count(kImpulseSuspectFrac, chunk_samples_));
}

void SignalQualityEstimator::reset() {
  n_ = clipped_ = flat_ = impulses_ = 0;
  sum_ = sum_sq_ = 0;
  has_prev_ = false;
  state_ = SignalQuality::Good;
  clean_streak_ = 0;
  last_ = QualityMetrics{};
}

std::optional<SignalQuality> SignalQualityEstimator::push(Sample x) {
  // Clamp first: corrupt samples far outside the ADC range must degrade
  // into countable clipping, not overflow the accumulators.
  const Sample clamped = std::clamp(x, cfg_.rail_low, cfg_.rail_high);
  if (clamped - cfg_.rail_low <= kRailMargin ||
      cfg_.rail_high - clamped <= kRailMargin)
    ++clipped_;
  if (has_prev_) {
    const std::int64_t jump = std::abs(static_cast<std::int64_t>(clamped) -
                                       static_cast<std::int64_t>(prev_));
    if (jump <= kFlatDelta) ++flat_;
    if (jump >= kImpulseDelta) ++impulses_;
  }
  prev_ = clamped;
  has_prev_ = true;
  sum_ += clamped;
  sum_sq_ += static_cast<std::int64_t>(clamped) * clamped;
  if (++n_ < chunk_samples_) return std::nullopt;

  const SignalQuality grade = grade_chunk();
  n_ = clipped_ = flat_ = impulses_ = 0;
  sum_ = sum_sq_ = 0;
  // prev_ is kept across the boundary so the first delta of the next chunk
  // is still meaningful.

  if (grade == SignalQuality::Good) {
    if (state_ != SignalQuality::Good &&
        ++clean_streak_ >= cfg_.recover_chunks) {
      state_ = state_ == SignalQuality::Bad ? SignalQuality::Suspect
                                            : SignalQuality::Good;
      clean_streak_ = 0;
    }
  } else {
    // Demotion is immediate and resets any progress toward recovery.
    clean_streak_ = 0;
    state_ = std::max(state_, grade);
  }
  return state_;
}

SignalQuality SignalQualityEstimator::grade_chunk() {
  const auto n = static_cast<std::int64_t>(n_);
  // variance * n^2 == n * sum_sq - sum^2, exact in int64 for 11-bit chunks.
  const std::int64_t var_num = n * sum_sq_ - sum_ * sum_;
  const double variance =
      static_cast<double>(var_num) / (static_cast<double>(n) * n);

  last_.samples = n_;
  last_.clipped = clipped_;
  last_.flat = flat_;
  last_.impulses = impulses_;
  last_.variance = variance;

  if (clipped_ >= clip_bad_count_ || flat_ >= flat_bad_count_ ||
      variance <= kBadVariance)
    last_.grade = SignalQuality::Bad;
  else if (clipped_ >= clip_suspect_count_ || flat_ >= flat_suspect_count_ ||
           impulses_ >= impulse_suspect_count_)
    last_.grade = SignalQuality::Suspect;
  else
    last_.grade = SignalQuality::Good;
  return last_.grade;
}

}  // namespace hbrp::dsp
