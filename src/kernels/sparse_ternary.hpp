// Sparse-index execution format for ternary projection matrices.
//
// Storage and execution are different problems. The 2-bit packed form
// (rp::PackedTernaryMatrix) is the paper's *storage* answer — Section III-B
// packs {+1, -1, 0} into two bits so the matrix fits a 96 KB WBSN — and
// stays the serialization format. But executing from it decodes every
// element of every row per beat, zeros included, even though an Achlioptas
// matrix is 2/3 structural zeros (P(0) = 2/3, Achlioptas JCSS 2003 — and
// the JL guarantee is a property of the sampled matrix, independent of how
// it is stored). This is the *execution* answer: per-row lists of the +1
// and -1 column indices, turning each output coefficient into two
// index-gather sums with zero multiplies and zero decode work — on average
// d/3 additions per row instead of d decode-and-branch steps.
//
// This is the one kernel that computes u = P v: every projection the
// system runs (node, gateway, fleet, trainer) goes through apply_into.
//
// Equivalence contract (gated by tests/test_kernels.cpp and
// tests/test_properties.cpp): bit-identical to the dense reference
// rp::TernaryMatrix::apply(span<const dsp::Sample>) for any input. Both
// accumulate each row exactly in int64 and convert to int32 (modulo 2^32
// when the exact sum does not fit), so regrouping the +1 terms before the
// -1 terms cannot change a result. The accumulation order within a row is
// fixed, so results are deterministic for any thread count. The trainer's
// double-typed data is this kernel's output converted to double
// (core::project_dataset), exact because a window of 12-bit codes sums to
// |u| <= d * 2^11, far below 2^31.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dsp/signal.hpp"

namespace hbrp::kernels {

class SparseTernary {
 public:
  SparseTernary() = default;

  /// Builds the index lists from any ternary source. `at(r, c)` must
  /// return -1, 0 or +1. Construction is one-time (model load / train
  /// step); the hot path only ever reads the finished lists.
  static SparseTernary build(
      std::size_t rows, std::size_t cols,
      const std::function<std::int8_t(std::size_t, std::size_t)>& at);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  /// Non-zero entries (diagnostic; the execution cost per output row).
  std::size_t nonzeros() const { return idx_.size(); }

  /// u = P v: writes rows() int32 coefficients into `out`. Bit-identical
  /// to rp::TernaryMatrix::apply(span<const dsp::Sample>).
  void apply_into(std::span<const dsp::Sample> v,
                  std::span<std::int32_t> out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Column indices, row-major: row r's +1 columns occupy
  // [pos_[2r], pos_[2r+1]) and its -1 columns [pos_[2r+1], pos_[2r+2]).
  // uint16 halves the cache footprint of the hot lists; window lengths are
  // far below 65536 (enforced in build()).
  std::vector<std::uint16_t> idx_;
  std::vector<std::uint32_t> pos_;
};

}  // namespace hbrp::kernels
