// Achlioptas sparse random projections.
//
// The dimensionality reduction at the heart of the paper: a k x d matrix P
// whose entries are +1 with probability 1/6, -1 with probability 1/6 and 0
// with probability 2/3 (Achlioptas, JCSS 2003). Such projections satisfy the
// Johnson-Lindenstrauss distance-preservation bound while needing only
// additions/subtractions to apply — exactly what a WBSN without hardware
// multiplier wants — and only two bits of storage per element.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/signal.hpp"
#include "math/mat.hpp"
#include "math/rng.hpp"
#include "math/vec.hpp"

namespace hbrp::rp {

/// Dense ternary matrix with elements in {-1, 0, +1}, one int8 each.
/// This is the train-time representation (mutated by the genetic algorithm);
/// the stored 2-bit form is rp::PackedTernaryMatrix, and projections execute
/// from kernels::SparseTernary.
class TernaryMatrix {
 public:
  TernaryMatrix() = default;
  TernaryMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::int8_t at(std::size_t r, std::size_t c) const {
    HBRP_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  void set(std::size_t r, std::size_t c, std::int8_t v) {
    HBRP_REQUIRE(v == -1 || v == 0 || v == 1,
                 "TernaryMatrix: values must be -1, 0 or +1");
    HBRP_REQUIRE(r < rows_ && c < cols_, "TernaryMatrix: index out of range");
    data_[r * cols_ + c] = v;
  }

  std::span<const std::int8_t> row(std::size_t r) const {
    HBRP_REQUIRE(r < rows_, "TernaryMatrix::row(): out of range");
    return {data_.data() + r * cols_, cols_};
  }

  /// u = P v over doubles: the reference the trainer's projected data is
  /// checked against.
  math::Vec apply(std::span<const double> v) const;

  /// u = P v over integer samples: the reference kernels::SparseTernary is
  /// checked against. Each row accumulates in 64 bits and converts to
  /// int32, which wraps modulo 2^32 only if the exact sum does not fit.
  std::vector<std::int32_t> apply(std::span<const dsp::Sample> v) const;

  /// Fraction of non-zero entries.
  double density() const;

  /// Dense double copy (for diagnostics / linear-algebra interop).
  math::Mat to_mat() const;

  bool operator==(const TernaryMatrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int8_t> data_;
};

/// Samples a k x d Achlioptas matrix: P(+1) = P(-1) = 1/6, P(0) = 2/3.
TernaryMatrix make_achlioptas(std::size_t k, std::size_t d, math::Rng& rng);

/// Resamples a single element from the Achlioptas distribution
/// (the genetic algorithm's mutation primitive).
std::int8_t sample_achlioptas_element(math::Rng& rng);

/// Johnson-Lindenstrauss distortion diagnostics: distribution of
/// ||sqrt(3/k) P (x_i - x_j)|| / ||x_i - x_j|| over all point pairs.
struct DistortionStats {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};
DistortionStats jl_distortion(const TernaryMatrix& p,
                              const math::Mat& points);

}  // namespace hbrp::rp
