#include "rp/achlioptas.hpp"

#include <algorithm>
#include <cmath>

namespace hbrp::rp {

math::Vec TernaryMatrix::apply(std::span<const double> v) const {
  HBRP_REQUIRE(v.size() == cols_, "TernaryMatrix::apply(): size mismatch");
  math::Vec out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const std::int8_t* row_ptr = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::int8_t e = row_ptr[c];
      if (e == 1)
        acc += v[c];
      else if (e == -1)
        acc -= v[c];
    }
    out[r] = acc;
  }
  return out;
}

std::vector<std::int32_t> TernaryMatrix::apply(
    std::span<const dsp::Sample> v) const {
  HBRP_REQUIRE(v.size() == cols_, "TernaryMatrix::apply(): size mismatch");
  std::vector<std::int32_t> out(rows_, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    // Exact for cols < 2^32: |sum| <= cols * 2^31 < 2^63.
    std::int64_t acc = 0;
    const std::int8_t* row_ptr = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::int8_t e = row_ptr[c];
      if (e == 1)
        acc += v[c];
      else if (e == -1)
        acc -= v[c];
    }
    out[r] = static_cast<std::int32_t>(acc);
  }
  return out;
}

double TernaryMatrix::density() const {
  if (data_.empty()) return 0.0;
  const auto nz = static_cast<double>(
      std::count_if(data_.begin(), data_.end(),
                    [](std::int8_t v) { return v != 0; }));
  return nz / static_cast<double>(data_.size());
}

math::Mat TernaryMatrix::to_mat() const {
  math::Mat m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      m.at(r, c) = static_cast<double>(at(r, c));
  return m;
}

std::int8_t sample_achlioptas_element(math::Rng& rng) {
  // One draw in [0, 6): 0 -> +1, 1 -> -1, 2..5 -> 0.
  const std::uint64_t u = rng.uniform_index(6);
  if (u == 0) return 1;
  if (u == 1) return -1;
  return 0;
}

TernaryMatrix make_achlioptas(std::size_t k, std::size_t d, math::Rng& rng) {
  HBRP_REQUIRE(k >= 1 && d >= 1, "make_achlioptas(): empty shape");
  TernaryMatrix p(k, d);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < d; ++c)
      p.set(r, c, sample_achlioptas_element(rng));
  return p;
}

DistortionStats jl_distortion(const TernaryMatrix& p,
                              const math::Mat& points) {
  HBRP_REQUIRE(points.cols() == p.cols(),
               "jl_distortion(): point dimension mismatch");
  HBRP_REQUIRE(points.rows() >= 2, "jl_distortion(): need at least 2 points");
  // E[(P v)_r^2] = (1/3)||v||^2 per row, so sqrt(3/k) P is the unbiased
  // JL estimator for Achlioptas matrices.
  const double scale = std::sqrt(3.0 / static_cast<double>(p.rows()));
  DistortionStats stats;
  stats.min = 1e300;
  stats.max = 0.0;
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < points.rows(); ++i) {
    for (std::size_t j = i + 1; j < points.rows(); ++j) {
      const math::Vec diff = math::sub(points.row(i), points.row(j));
      const double orig = math::norm2(diff);
      if (orig == 0.0) continue;
      const math::Vec proj = p.apply(diff);
      const double ratio = scale * math::norm2(proj) / orig;
      stats.min = std::min(stats.min, ratio);
      stats.max = std::max(stats.max, ratio);
      sum += ratio;
      ++count;
    }
  }
  HBRP_REQUIRE(count > 0, "jl_distortion(): all points identical");
  stats.mean = sum / static_cast<double>(count);
  return stats;
}

}  // namespace hbrp::rp
