#include "dsp/resample.hpp"

#include <algorithm>

#include "math/check.hpp"

namespace hbrp::dsp {

std::size_t downsample_avg_into(std::span<const Sample> x, std::size_t factor,
                                std::span<Sample> out) {
  HBRP_REQUIRE(factor >= 1, "downsample_avg_into(): factor must be >= 1");
  const std::size_t n = downsampled_size(x.size(), factor);
  HBRP_REQUIRE(out.size() >= n, "downsample_avg_into(): output too small");
  std::size_t o = 0;
  for (std::size_t start = 0; start < x.size(); start += factor) {
    const std::size_t end = std::min(x.size(), start + factor);
    std::int64_t acc = 0;
    for (std::size_t i = start; i < end; ++i) acc += x[i];
    const auto len = static_cast<std::int64_t>(end - start);
    // Round-to-nearest signed division. The rounded mean of Samples lies
    // between their min and max, so it narrows exactly.
    const std::int64_t rounded =
        acc >= 0 ? (acc + len / 2) / len : -((-acc + len / 2) / len);
    out[o++] = static_cast<Sample>(rounded);
  }
  return n;
}

Signal downsample_avg(const Signal& x, std::size_t factor) {
  HBRP_REQUIRE(factor >= 1, "downsample_avg(): factor must be >= 1");
  if (factor == 1) return x;
  Signal out(downsampled_size(x.size(), factor));
  downsample_avg_into(x, factor, out);
  return out;
}

Signal extract_window(const Signal& x, std::size_t peak, std::size_t before,
                      std::size_t after) {
  HBRP_REQUIRE(!x.empty(), "extract_window(): empty signal");
  HBRP_REQUIRE(peak < x.size(), "extract_window(): peak out of range");
  Signal out(before + after);
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  const auto p = static_cast<std::ptrdiff_t>(peak);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::ptrdiff_t src =
        p - static_cast<std::ptrdiff_t>(before) +
        static_cast<std::ptrdiff_t>(i);
    out[i] = x[static_cast<std::size_t>(
        std::clamp(src, std::ptrdiff_t{0}, n - 1))];
  }
  return out;
}

}  // namespace hbrp::dsp
