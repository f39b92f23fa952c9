#include "dsp/morphology.hpp"

#include <algorithm>
#include <deque>

#include "math/check.hpp"

namespace hbrp::dsp {

namespace {

enum class Extremum { Min, Max };

// Sliding-window extremum with a centred window of `length` samples using a
// monotonic deque of indices; edge samples are replicated beyond the borders.
Signal sliding_extremum(const Signal& x, std::size_t length, Extremum kind) {
  HBRP_REQUIRE(length >= 1, "structuring element must be non-empty");
  HBRP_REQUIRE(length % 2 == 1, "structuring element length must be odd");
  if (x.empty() || length == 1) return x;

  const auto n = static_cast<std::ptrdiff_t>(x.size());
  const auto half = static_cast<std::ptrdiff_t>(length / 2);
  Signal out(x.size());

  auto at = [&x, n](std::ptrdiff_t i) {
    // Replicated borders.
    return x[static_cast<std::size_t>(std::clamp(i, std::ptrdiff_t{0}, n - 1))];
  };
  auto better = [kind](Sample candidate, Sample incumbent) {
    return kind == Extremum::Min ? candidate <= incumbent
                                 : candidate >= incumbent;
  };

  std::deque<std::ptrdiff_t> q;  // indices into the virtual padded signal
  for (std::ptrdiff_t i = -half; i < n + half; ++i) {
    while (!q.empty() && better(at(i), at(q.back()))) q.pop_back();
    q.push_back(i);
    const std::ptrdiff_t center = i - half;     // window [center-half, i]
    if (center < 0) continue;
    while (q.front() < center - half) q.pop_front();
    out[static_cast<std::size_t>(center)] = at(q.front());
  }
  return out;
}

}  // namespace

Signal erode(const Signal& x, std::size_t length) {
  return sliding_extremum(x, length, Extremum::Min);
}

Signal dilate(const Signal& x, std::size_t length) {
  return sliding_extremum(x, length, Extremum::Max);
}

Signal open(const Signal& x, std::size_t length) {
  return dilate(erode(x, length), length);
}

Signal close(const Signal& x, std::size_t length) {
  return erode(dilate(x, length), length);
}

FilterConfig FilterConfig::for_rate(int fs_hz) {
  HBRP_REQUIRE(fs_hz > 0, "sampling rate must be positive");
  auto odd = [](double samples) {
    auto v = static_cast<std::size_t>(samples);
    if (v % 2 == 0) ++v;
    return std::max<std::size_t>(v, 1);
  };
  FilterConfig cfg;
  cfg.baseline_open_len = odd(0.2 * fs_hz);
  cfg.baseline_close_len = odd(0.42 * fs_hz);
  cfg.noise_len = odd(0.008 * fs_hz);
  return cfg;
}

Signal baseline_estimate(const Signal& x, const FilterConfig& cfg) {
  HBRP_REQUIRE(cfg.baseline_open_len < cfg.baseline_close_len,
               "baseline opening element must be shorter than closing one");
  return close(open(x, cfg.baseline_open_len), cfg.baseline_close_len);
}

Signal remove_baseline(const Signal& x, const FilterConfig& cfg) {
  const Signal base = baseline_estimate(x, cfg);
  Signal out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = static_cast<Sample>(x[i] - base[i]);
  return out;
}

Signal suppress_noise(const Signal& x, const FilterConfig& cfg) {
  const Signal oc = open(close(x, cfg.noise_len), cfg.noise_len);
  const Signal co = close(open(x, cfg.noise_len), cfg.noise_len);
  Signal out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Round-to-nearest average, summed in int: no overflow, and the
    // average of two Samples is a Sample.
    out[i] = static_cast<Sample>((oc[i] + co[i] + 1) >> 1);
  }
  return out;
}

Signal condition_ecg(const Signal& x, const FilterConfig& cfg) {
  return suppress_noise(remove_baseline(x, cfg), cfg);
}

}  // namespace hbrp::dsp
