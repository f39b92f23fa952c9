#include "rp/projector.hpp"

#include "math/check.hpp"

namespace hbrp::rp {

BeatProjector::BeatProjector(TernaryMatrix p, std::size_t downsample_factor)
    : dense_(std::move(p)),
      packed_(dense_),
      sparse_(kernels::SparseTernary::build(
          dense_.rows(), dense_.cols(),
          [this](std::size_t r, std::size_t c) { return dense_.at(r, c); })),
      downsample_(downsample_factor) {
  HBRP_REQUIRE(downsample_ >= 1, "BeatProjector: downsample factor >= 1");
  HBRP_REQUIRE(dense_.rows() >= 1 && dense_.cols() >= 1,
               "BeatProjector: empty projection matrix");
}

void BeatProjector::project_int_into(std::span<const dsp::Sample> window,
                                     std::span<std::int32_t> out,
                                     ProjectionScratch& scratch) const {
  HBRP_REQUIRE(window.size() == expected_window(),
               "BeatProjector::project_int_into(): window size mismatch");
  scratch.downsampled.resize(dense_.cols());
  dsp::downsample_avg_into(window, downsample_, scratch.downsampled);
  project_downsampled_into(scratch.downsampled, out);
}

void BeatProjector::project_downsampled_into(
    std::span<const dsp::Sample> downsampled,
    std::span<std::int32_t> out) const {
  HBRP_REQUIRE(downsampled.size() == dense_.cols(),
               "BeatProjector::project_downsampled_into(): size mismatch");
  sparse_.apply_into(downsampled, out);
}

void BeatProjector::project_int_batch(std::span<const dsp::Sample> windows,
                                      std::size_t count,
                                      std::span<std::int32_t> out,
                                      ProjectionScratch& scratch) const {
  const std::size_t w = expected_window();
  const std::size_t k = coefficients();
  HBRP_REQUIRE(windows.size() == count * w,
               "BeatProjector::project_int_batch(): windows size mismatch");
  HBRP_REQUIRE(out.size() >= count * k,
               "BeatProjector::project_int_batch(): output too small");
  for (std::size_t i = 0; i < count; ++i)
    project_int_into(windows.subspan(i * w, w), out.subspan(i * k, k),
                     scratch);
}

}  // namespace hbrp::rp
