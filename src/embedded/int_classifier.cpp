#include "embedded/int_classifier.hpp"

#include <algorithm>

#include "kernels/fuzzify.hpp"
#include "math/check.hpp"
#include "math/fixed.hpp"

namespace hbrp::embedded {

namespace {

// The fuzzification chain of Section III-B, written once for both callers:
// `grade(j, l)` is coefficient j's membership grade for class l, looked up
// per call by fuzzify() and read from a precomputed tile by classify_batch.
// Seeds with coefficient 0's grades; before each further multiply, shifts
// all three accumulators left by the largest common safe amount (set by the
// current maximum), then drops the low 16 bits. This keeps the leading 16
// bits of the dominant class and the ratios between classes; the
// 16-bit x 16-bit product that follows cannot overflow.
template <typename Grade>
std::array<std::uint32_t, ecg::kNumClasses> renormalized_product(
    std::size_t k, Grade grade) {
  std::array<std::uint32_t, ecg::kNumClasses> acc{};
  for (std::size_t l = 0; l < ecg::kNumClasses; ++l) acc[l] = grade(0, l);
  for (std::size_t j = 1; j < k; ++j) {
    const std::uint32_t top = *std::max_element(acc.begin(), acc.end());
    const int shift = math::headroom32(top);
    for (std::uint32_t& a : acc) a = (a << shift) >> 16;
    for (std::size_t l = 0; l < ecg::kNumClasses; ++l) acc[l] *= grade(j, l);
  }
  return acc;
}

}  // namespace

IntClassifier IntClassifier::from_float(const nfc::NeuroFuzzyClassifier& nfc,
                                        MfShape shape) {
  IntClassifier out;
  out.coefficients_ = nfc.coefficients();
  out.shape_ = shape;
  const std::size_t n = out.coefficients_ * ecg::kNumClasses;
  if (shape == MfShape::Linearized) {
    out.linear_.reserve(n);
    for (std::size_t k = 0; k < out.coefficients_; ++k)
      for (std::size_t l = 0; l < ecg::kNumClasses; ++l) {
        const nfc::GaussianMF& m = nfc.mf(k, l);
        out.linear_.push_back(LinearizedMF::from_gaussian(m.center, m.sigma));
      }
  } else {
    out.triangular_.reserve(n);
    for (std::size_t k = 0; k < out.coefficients_; ++k)
      for (std::size_t l = 0; l < ecg::kNumClasses; ++l) {
        const nfc::GaussianMF& m = nfc.mf(k, l);
        out.triangular_.push_back(
            TriangularMF::from_gaussian(m.center, m.sigma));
      }
  }
  return out;
}

std::uint16_t IntClassifier::grade(std::size_t k, std::size_t cls,
                                   std::int32_t x) const {
  HBRP_REQUIRE(k < coefficients_ && cls < ecg::kNumClasses,
               "IntClassifier::grade(): index out of range");
  const std::size_t idx = k * ecg::kNumClasses + cls;
  return shape_ == MfShape::Linearized ? linear_[idx].eval(x)
                                       : triangular_[idx].eval(x);
}

std::array<std::uint32_t, ecg::kNumClasses> IntClassifier::fuzzify(
    std::span<const std::int32_t> u) const {
  HBRP_REQUIRE(u.size() == coefficients_,
               "IntClassifier::fuzzify(): input size mismatch");
  return renormalized_product(coefficients_,
                              [&](std::size_t j, std::size_t l) {
                                return grade(j, l, u[j]);
                              });
}

ecg::BeatClass IntClassifier::defuzzify(
    const std::array<std::uint32_t, ecg::kNumClasses>& fuzzy,
    std::uint32_t alpha_q16) {
  HBRP_REQUIRE(alpha_q16 <= math::kQ16One,
               "IntClassifier::defuzzify(): alpha must be <= 1.0 in Q16");
  std::size_t best = 0;
  for (std::size_t l = 1; l < fuzzy.size(); ++l)
    if (fuzzy[l] > fuzzy[best]) best = l;

  std::uint32_t m2 = 0;
  std::uint64_t sum = 0;
  for (std::size_t l = 0; l < fuzzy.size(); ++l) {
    sum += fuzzy[l];
    if (l != best) m2 = std::max(m2, fuzzy[l]);
  }
  if (sum == 0) return ecg::BeatClass::Unknown;

  // (M1 - M2) >= alpha * S, evaluated as
  // (M1 - M2) * 2^16 >= alpha_q16 * S with 64-bit widening multiplies —
  // no division required on the node.
  const std::uint64_t lhs =
      (static_cast<std::uint64_t>(fuzzy[best] - m2)) << 16;
  const std::uint64_t rhs = static_cast<std::uint64_t>(alpha_q16) * sum;
  if (lhs >= rhs) return static_cast<ecg::BeatClass>(best);
  return ecg::BeatClass::Unknown;
}

ecg::BeatClass IntClassifier::classify(std::span<const std::int32_t> u,
                                       std::uint32_t alpha_q16) const {
  return defuzzify(fuzzify(u), alpha_q16);
}

void IntClassifier::classify_batch(std::span<const std::int32_t> u,
                                   std::size_t count, std::uint32_t alpha_q16,
                                   std::span<ecg::BeatClass> out,
                                   FuzzifyScratch& scratch) const {
  HBRP_REQUIRE(u.size() == count * coefficients_,
               "IntClassifier::classify_batch(): input size mismatch");
  HBRP_REQUIRE(out.size() >= count,
               "IntClassifier::classify_batch(): output too small");
  const std::size_t k = coefficients_;

  // Tiny batches: the transpose + kernel launch overhead isn't paid back.
  if (count < 8) {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = classify(u.subspan(i * k, k), alpha_q16);
    return;
  }

  constexpr std::size_t kTile = 128;
  scratch.transposed.resize(k * kTile);
  scratch.grades.resize(k * ecg::kNumClasses * kTile);

  for (std::size_t done = 0; done < count; done += kTile) {
    const std::size_t n = std::min(kTile, count - done);

    // Transpose the tile to SoA so each MF sweeps a contiguous column.
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t* row = u.data() + (done + i) * k;
      for (std::size_t j = 0; j < k; ++j)
        scratch.transposed[j * kTile + i] = row[j];
    }

    // Membership layer through the batch kernels: one kernel call per
    // (coefficient, class) MF over the whole tile.
    for (std::size_t j = 0; j < k; ++j) {
      const std::int32_t* col = scratch.transposed.data() + j * kTile;
      for (std::size_t l = 0; l < ecg::kNumClasses; ++l) {
        const std::size_t idx = j * ecg::kNumClasses + l;
        std::uint16_t* g =
            scratch.grades.data() + (j * ecg::kNumClasses + l) * kTile;
        if (shape_ == MfShape::Linearized)
          kernels::linearized_eval_batch(linear_[idx].center, linear_[idx].s,
                                         col, n, g);
        else
          kernels::triangular_eval_batch(triangular_[idx].center,
                                         triangular_[idx].half_base, col, n, g);
      }
    }

    // Fuzzification + decision per beat: fuzzify()'s chain over the
    // precomputed grades, so decisions are bit-identical to classify().
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint16_t* g = scratch.grades.data() + i;
      out[done + i] = defuzzify(
          renormalized_product(k,
                               [&](std::size_t j, std::size_t l) {
                                 return g[(j * ecg::kNumClasses + l) * kTile];
                               }),
          alpha_q16);
    }
  }
}

const LinearizedMF& IntClassifier::linear_mf(std::size_t k,
                                             std::size_t cls) const {
  HBRP_REQUIRE(shape_ == MfShape::Linearized,
               "IntClassifier::linear_mf(): classifier is triangular");
  HBRP_REQUIRE(k < coefficients_ && cls < ecg::kNumClasses,
               "IntClassifier::linear_mf(): index out of range");
  return linear_[k * ecg::kNumClasses + cls];
}

const TriangularMF& IntClassifier::triangular_mf(std::size_t k,
                                                 std::size_t cls) const {
  HBRP_REQUIRE(shape_ == MfShape::Triangular,
               "IntClassifier::triangular_mf(): classifier is linearized");
  HBRP_REQUIRE(k < coefficients_ && cls < ecg::kNumClasses,
               "IntClassifier::triangular_mf(): index out of range");
  return triangular_[k * ecg::kNumClasses + cls];
}

std::size_t IntClassifier::memory_bytes() const {
  return shape_ == MfShape::Linearized
             ? linear_.size() * sizeof(LinearizedMF)
             : triangular_.size() * sizeof(TriangularMF);
}

}  // namespace hbrp::embedded
