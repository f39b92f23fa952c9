#include "rp/packed_matrix.hpp"

#include "math/check.hpp"

namespace hbrp::rp {

namespace {
constexpr std::uint8_t encode(std::int8_t v) {
  // 00 -> 0, 01 -> +1, 10 -> -1.
  return v == 0 ? 0u : (v == 1 ? 1u : 2u);
}
constexpr std::int8_t decode(std::uint8_t bits) {
  return bits == 0 ? 0 : (bits == 1 ? 1 : -1);
}
}  // namespace

PackedTernaryMatrix::PackedTernaryMatrix(const TernaryMatrix& m)
    : rows_(m.rows()),
      cols_(m.cols()),
      bytes_per_row_((m.cols() + 3) / 4) {
  data_.assign(rows_ * bytes_per_row_, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::uint8_t bits = encode(m.at(r, c));
      data_[r * bytes_per_row_ + c / 4] |=
          static_cast<std::uint8_t>(bits << (2 * (c % 4)));
    }
  }
}

std::int8_t PackedTernaryMatrix::at(std::size_t r, std::size_t c) const {
  HBRP_REQUIRE(r < rows_ && c < cols_,
               "PackedTernaryMatrix::at(): index out of range");
  const std::uint8_t byte = data_[r * bytes_per_row_ + c / 4];
  return decode((byte >> (2 * (c % 4))) & 0x3u);
}

TernaryMatrix PackedTernaryMatrix::unpack() const {
  TernaryMatrix m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) m.set(r, c, at(r, c));
  return m;
}

}  // namespace hbrp::rp
