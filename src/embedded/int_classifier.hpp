// The integer (WBSN-side) neuro-fuzzy classifier.
//
// This is the classifier the paper actually deploys: quantized membership
// functions (linearized or triangular), a fuzzification layer that keeps
// maximum precision in 32-bit registers by block-renormalizing the three
// class accumulators with a common left shift and then discarding the low
// 16 bits after every multiply (Section III-B), and a division-free
// defuzzification that compares (M1 - M2) * 2^16 against alpha_q16 * S using
// only widening multiplies.
//
// The defuzzification rule only depends on the *ratios* of the fuzzy values,
// so the renormalization (a common scale factor) does not change decisions
// — only the bounded precision does, which is exactly the NDR-PC vs
// NDR-WBSN gap Table II measures.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ecg/types.hpp"
#include "embedded/linear_mf.hpp"
#include "nfc/classifier.hpp"

namespace hbrp::embedded {

enum class MfShape : std::uint8_t { Linearized, Triangular };

/// Reusable workspace for the batched fuzzification path: a transposed
/// coefficient tile (SoA, so each MF sweeps a contiguous run) and the grade
/// tile the MF kernels fill. Sized lazily on first use; one per thread of
/// execution, zero steady-state heap allocation.
struct FuzzifyScratch {
  std::vector<std::int32_t> transposed;   // [k][tile] coefficient columns
  std::vector<std::uint16_t> grades;      // [k][class][tile] MF grades
};

class IntClassifier {
 public:
  /// Quantizes a trained float NFC. Coefficient inputs are the integer
  /// random-projection outputs, so MF centres/widths quantize directly in
  /// the same units.
  static IntClassifier from_float(const nfc::NeuroFuzzyClassifier& nfc,
                                  MfShape shape = MfShape::Linearized);

  std::size_t coefficients() const { return coefficients_; }
  MfShape shape() const { return shape_; }

  /// Membership grade of coefficient k for class cls.
  std::uint16_t grade(std::size_t k, std::size_t cls, std::int32_t x) const;

  /// Fuzzification layer: renormalized per-class fuzzy accumulators.
  /// Values are on a common (power-of-two) scale; only ratios are meaningful.
  std::array<std::uint32_t, ecg::kNumClasses> fuzzify(
      std::span<const std::int32_t> u) const;

  /// Division-free defuzzification on integer fuzzy values.
  /// If every fuzzy value is zero (possible with triangular MFs far from all
  /// classes) the beat is Unknown — i.e. pathological, the safe direction.
  static ecg::BeatClass defuzzify(
      const std::array<std::uint32_t, ecg::kNumClasses>& fuzzy,
      std::uint32_t alpha_q16);

  /// Full integer classification of a projected beat.
  ecg::BeatClass classify(std::span<const std::int32_t> u,
                          std::uint32_t alpha_q16) const;

  /// Batch integer classification: `u` holds `count` beats of
  /// coefficients() projected values each, row-major; one decision per
  /// beat is written to `out`. Bit-identical to classify() per row: the
  /// batched path evaluates the MF grades through the (dispatching) batch
  /// kernels over transposed tiles, then runs fuzzify()'s renormalization
  /// chain per beat over them. Allocation-free given a warm `scratch`.
  void classify_batch(std::span<const std::int32_t> u, std::size_t count,
                      std::uint32_t alpha_q16, std::span<ecg::BeatClass> out,
                      FuzzifyScratch& scratch) const;

  /// RAM the parameter tables occupy on the node.
  std::size_t memory_bytes() const;

  /// Raw MF table access (deployment export / diagnostics). Only the table
  /// matching shape() may be read.
  const LinearizedMF& linear_mf(std::size_t k, std::size_t cls) const;
  const TriangularMF& triangular_mf(std::size_t k, std::size_t cls) const;

 private:
  IntClassifier() = default;

  std::size_t coefficients_ = 0;
  MfShape shape_ = MfShape::Linearized;
  // Indexed [k * kNumClasses + cls]; only the table matching `shape_` is
  // populated.
  std::vector<LinearizedMF> linear_;
  std::vector<TriangularMF> triangular_;
};

}  // namespace hbrp::embedded
