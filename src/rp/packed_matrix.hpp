// 2-bit packed representation of ternary projection matrices.
//
// Section III-B of the paper: because P only takes values {+1, -1, 0}, each
// element is coded on two bits, using a quarter of the memory of an 8-bit
// representation — the difference between fitting and not fitting alongside
// everything else in a 96 KB WBSN. Encoding: 00 -> 0, 01 -> +1, 10 -> -1
// (11 is invalid), four elements per byte, row-major.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/signal.hpp"
#include "rp/achlioptas.hpp"

namespace hbrp::rp {

class PackedTernaryMatrix {
 public:
  PackedTernaryMatrix() = default;

  /// Packs a dense ternary matrix.
  explicit PackedTernaryMatrix(const TernaryMatrix& m);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::int8_t at(std::size_t r, std::size_t c) const;

  /// Storage actually used by the packed element array.
  std::size_t memory_bytes() const { return data_.size(); }

  /// The stored 2-bit code itself, row-major, each row padded to whole
  /// bytes (padding elements are 00) — the table a firmware image ships.
  std::span<const std::uint8_t> bytes() const { return data_; }

  /// u = P v in integer arithmetic (the embedded projection kernel).
  std::vector<std::int32_t> apply(std::span<const dsp::Sample> v) const;

  /// Allocation-free form: writes rows() coefficients into `out`.
  void apply_into(std::span<const dsp::Sample> v,
                  std::span<std::int32_t> out) const;

  /// Unpacks back to the dense form (exact round trip).
  TernaryMatrix unpack() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> data_;  // 4 elements per byte, rows padded
  std::size_t bytes_per_row_ = 0;
};

}  // namespace hbrp::rp
