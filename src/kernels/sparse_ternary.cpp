#include "kernels/sparse_ternary.hpp"

#include <cassert>
#include <cstdint>
#include <limits>

#include "math/check.hpp"

namespace hbrp::kernels {

SparseTernary SparseTernary::build(
    std::size_t rows, std::size_t cols,
    const std::function<std::int8_t(std::size_t, std::size_t)>& at) {
  HBRP_REQUIRE(cols <= std::numeric_limits<std::uint16_t>::max() + std::size_t{1},
               "SparseTernary::build(): column indices must fit uint16");
  SparseTernary s;
  s.rows_ = rows;
  s.cols_ = cols;
  s.pos_.reserve(2 * rows + 1);
  s.pos_.push_back(0);
  // Expected fill for Achlioptas is 1/3; reserve to avoid regrowth churn.
  s.idx_.reserve(rows * cols / 3 + rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c)
      if (at(r, c) > 0) s.idx_.push_back(static_cast<std::uint16_t>(c));
    s.pos_.push_back(static_cast<std::uint32_t>(s.idx_.size()));
    for (std::size_t c = 0; c < cols; ++c)
      if (at(r, c) < 0) s.idx_.push_back(static_cast<std::uint16_t>(c));
    s.pos_.push_back(static_cast<std::uint32_t>(s.idx_.size()));
  }
  return s;
}

namespace {

// Gather core: plus-sum minus minus-sum. Each partial sum has at most 2^16
// terms (build() caps the columns) of int16 samples, so every prefix of it
// lies in [-2^31, 2^31 - 2^16]: exact in int32, which lets the compiler
// widen the gathered samples once instead of twice. The difference, which
// can reach 2^31, is taken in int64.
inline std::int64_t row_sum(const std::uint16_t* idx, std::uint32_t plus_begin,
                            std::uint32_t plus_end, std::uint32_t minus_end,
                            const dsp::Sample* v) {
  std::int32_t plus = 0;
  for (std::uint32_t i = plus_begin; i < plus_end; ++i) plus += v[idx[i]];
  std::int32_t minus = 0;
  for (std::uint32_t i = plus_end; i < minus_end; ++i) minus += v[idx[i]];
  return std::int64_t{plus} - minus;
}

}  // namespace

void SparseTernary::apply_into(std::span<const dsp::Sample> v,
                               std::span<std::int32_t> out) const {
  assert(v.size() == cols_);
  assert(out.size() == rows_);
  const std::uint16_t* idx = idx_.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::int64_t acc =
        row_sum(idx, pos_[2 * r], pos_[2 * r + 1], pos_[2 * r + 2], v.data());
    out[r] = static_cast<std::int32_t>(acc);
  }
}

}  // namespace hbrp::kernels
