// Tests for the integer (WBSN) classifier: MF shapes, fuzzification
// renormalization, division-free defuzzification and float/int agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "embedded/bundle.hpp"
#include "embedded/int_classifier.hpp"
#include "embedded/linear_mf.hpp"
#include "math/check.hpp"
#include "math/fixed.hpp"
#include "math/rng.hpp"

namespace {

using hbrp::ecg::BeatClass;
using hbrp::embedded::IntClassifier;
using hbrp::embedded::kGradeAtS;
using hbrp::embedded::LinearizedMF;
using hbrp::embedded::MfShape;
using hbrp::embedded::TriangularMF;

TEST(LinearMf, AnchorValues) {
  // c = 0, sigma such that S = 100.
  const LinearizedMF mf{0, 100};
  EXPECT_EQ(mf.eval(0), 65535);
  EXPECT_EQ(mf.eval(100), kGradeAtS);
  EXPECT_EQ(mf.eval(-100), kGradeAtS);
  EXPECT_EQ(mf.eval(200), 1);   // at 2S the shallow segment reaches 1
  EXPECT_EQ(mf.eval(399), 1);   // flat tail
  EXPECT_EQ(mf.eval(400), 0);   // 4S -> 0
  EXPECT_EQ(mf.eval(-400), 0);
  EXPECT_EQ(mf.eval(1000000), 0);
}

TEST(LinearMf, MonotoneDecayFromCenter) {
  const LinearizedMF mf{50, 73};
  std::uint16_t prev = 65535;
  for (std::int32_t x = 50; x < 50 + 5 * 73; ++x) {
    const std::uint16_t g = mf.eval(x);
    EXPECT_LE(g, prev) << "x=" << x;
    prev = g;
  }
}

TEST(LinearMf, SymmetricAroundCenter) {
  const LinearizedMF mf{-300, 41};
  for (std::int32_t d = 0; d < 200; d += 7)
    EXPECT_EQ(mf.eval(-300 + d), mf.eval(-300 - d));
}

TEST(LinearMf, TracksGaussianWithinTolerance) {
  // Inside |x-c| < 2S the linearization should stay close to the Gaussian
  // (this is the property Fig. 4 illustrates).
  const double sigma = 40.0;
  const LinearizedMF mf = LinearizedMF::from_gaussian(0.0, sigma);
  for (double x = -2 * 2.35 * sigma; x <= 2 * 2.35 * sigma; x += 3.0) {
    const double gauss = std::exp(-0.5 * (x / sigma) * (x / sigma));
    const double lin =
        static_cast<double>(mf.eval(static_cast<std::int32_t>(x))) / 65535.0;
    EXPECT_NEAR(lin, gauss, 0.18) << "x=" << x;
  }
}

TEST(LinearMf, FromGaussianRoundsAndFloors) {
  const LinearizedMF a = LinearizedMF::from_gaussian(10.4, 100.0);
  EXPECT_EQ(a.center, 10);
  EXPECT_EQ(a.s, 235u);  // 2.35 * 100
  const LinearizedMF tiny = LinearizedMF::from_gaussian(0.0, 0.01);
  EXPECT_GE(tiny.s, 1u);  // never a zero width
  EXPECT_THROW(LinearizedMF::from_gaussian(0.0, 0.0), hbrp::Error);
}

TEST(TriangularMf, SupportAndPeak) {
  const TriangularMF mf{0, 200};
  EXPECT_EQ(mf.eval(0), 65535);
  EXPECT_EQ(mf.eval(100), 32768);  // halfway down, rounded
  EXPECT_EQ(mf.eval(199), 328);
  EXPECT_EQ(mf.eval(200), 0);      // zero exactly at the base edge
  EXPECT_EQ(mf.eval(-200), 0);
  EXPECT_EQ(mf.eval(5000), 0);
}

TEST(TriangularMf, NarrowerEffectiveSupportThanLinearized) {
  // Same trained Gaussian: the triangular MF is zero beyond 2S where the
  // linearized MF still returns 1 — the root cause of the Fig. 5 gap.
  const double sigma = 30.0;
  const auto lin = LinearizedMF::from_gaussian(0.0, sigma);
  const auto tri = TriangularMF::from_gaussian(0.0, sigma);
  const auto x = static_cast<std::int32_t>(3.0 * 2.35 * sigma);
  EXPECT_GT(lin.eval(x), 0);
  EXPECT_EQ(tri.eval(x), 0);
}

TEST(ReferenceShapes, MatchIntegerImplementations) {
  const double sigma = 55.0;
  const auto lin = LinearizedMF::from_gaussian(1000.0, sigma);
  const auto tri = TriangularMF::from_gaussian(1000.0, sigma);
  for (double x = 600; x <= 1400; x += 11) {
    const double ref_lin =
        hbrp::embedded::linearized_reference(1000.0, sigma, x);
    const double ref_tri =
        hbrp::embedded::triangular_reference(1000.0, sigma, x);
    EXPECT_NEAR(
        static_cast<double>(lin.eval(static_cast<std::int32_t>(x))) / 65535.0,
        ref_lin, 0.01);
    EXPECT_NEAR(
        static_cast<double>(tri.eval(static_cast<std::int32_t>(x))) / 65535.0,
        ref_tri, 0.01);
  }
}

// Builds a small trained-looking float NFC with well-separated classes.
hbrp::nfc::NeuroFuzzyClassifier toy_nfc(std::size_t k) {
  hbrp::nfc::NeuroFuzzyClassifier nfc(k);
  for (std::size_t i = 0; i < k; ++i) {
    nfc.mf(i, 0) = {0.0, 50.0};
    nfc.mf(i, 1) = {400.0, 80.0};
    nfc.mf(i, 2) = {-400.0, 60.0};
  }
  return nfc;
}

TEST(IntClassifier, AgreesWithFloatOnClearBeats) {
  const auto nfc = toy_nfc(8);
  const auto cls = IntClassifier::from_float(nfc);
  hbrp::math::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const int which = static_cast<int>(rng.uniform_index(3));
    const double center = which == 0 ? 0.0 : (which == 1 ? 400.0 : -400.0);
    std::vector<double> uf(8);
    std::vector<std::int32_t> ui(8);
    for (std::size_t i = 0; i < 8; ++i) {
      ui[i] = static_cast<std::int32_t>(center + rng.normal(0.0, 30.0));
      uf[i] = static_cast<double>(ui[i]);
    }
    EXPECT_EQ(cls.classify(ui, 0), nfc.classify(uf, 0.0));
  }
}

TEST(IntClassifier, FuzzifyKeepsRatios) {
  // With identical grades per class across coefficients, the accumulators
  // must preserve the grade ordering.
  const auto nfc = toy_nfc(4);
  const auto cls = IntClassifier::from_float(nfc);
  const std::vector<std::int32_t> u(4, 30);  // closest to class 0
  const auto f = cls.fuzzify(u);
  EXPECT_GT(f[0], f[1]);
  EXPECT_GT(f[0], f[2]);
}

TEST(IntClassifier, FuzzifyNeverOverflows) {
  // All grades at maximum: accumulators must stay valid through 32 steps.
  hbrp::nfc::NeuroFuzzyClassifier nfc(32);
  for (std::size_t k = 0; k < 32; ++k)
    for (std::size_t l = 0; l < 3; ++l) nfc.mf(k, l) = {0.0, 1000.0};
  const auto cls = IntClassifier::from_float(nfc);
  const std::vector<std::int32_t> u(32, 0);
  const auto f = cls.fuzzify(u);
  for (const auto v : f) EXPECT_GT(v, 0u);
}

TEST(IntClassifier, SingleCoefficient) {
  const auto nfc = toy_nfc(1);
  const auto cls = IntClassifier::from_float(nfc);
  EXPECT_EQ(cls.classify(std::vector<std::int32_t>{10}, 0), BeatClass::N);
  EXPECT_EQ(cls.classify(std::vector<std::int32_t>{390}, 0), BeatClass::V);
}

TEST(IntClassifier, DefuzzifyRules) {
  using hbrp::math::to_q16;
  // Clear winner.
  EXPECT_EQ(IntClassifier::defuzzify({1000, 10, 10}, to_q16(0.3)),
            BeatClass::N);
  // Close race at high alpha -> Unknown.
  EXPECT_EQ(IntClassifier::defuzzify({1000, 990, 10}, to_q16(0.3)),
            BeatClass::Unknown);
  // Same race at alpha = 0 -> argmax.
  EXPECT_EQ(IntClassifier::defuzzify({1000, 990, 10}, 0), BeatClass::N);
  // All-zero fuzzy values -> Unknown (safe direction).
  EXPECT_EQ(IntClassifier::defuzzify({0, 0, 0}, 0), BeatClass::Unknown);
  // Boundary: (M1-M2)*2^16 == alpha*S exactly -> assigned.
  // M1=3, M2=1, S=4: margin/sum = 0.5.
  EXPECT_EQ(IntClassifier::defuzzify({3, 1, 0}, to_q16(0.5)), BeatClass::N);
  EXPECT_EQ(IntClassifier::defuzzify({3, 1, 0}, to_q16(0.5) + 1),
            BeatClass::Unknown);
}

TEST(IntClassifier, DefuzzifyAlphaValidated) {
  EXPECT_THROW(IntClassifier::defuzzify({1, 0, 0}, hbrp::math::kQ16One + 1),
               hbrp::Error);
}

TEST(IntClassifier, TriangularMoreUnknowns) {
  // Far from every class the triangular classifier yields Unknown while the
  // linearized one can still rank (its tails saturate at 1, not 0).
  const auto nfc = toy_nfc(8);
  const auto lin = IntClassifier::from_float(nfc, MfShape::Linearized);
  const auto tri = IntClassifier::from_float(nfc, MfShape::Triangular);
  // 3S past the class-1 centre (sigma 80 -> S = 188): inside the linearized
  // MF's flat-1 tail but outside the triangular MF's 2S support.
  const std::vector<std::int32_t> far(8, 400 + 564);
  EXPECT_EQ(tri.classify(far, 0), BeatClass::Unknown);
  EXPECT_NE(lin.classify(far, 0), BeatClass::Unknown);
}

TEST(IntClassifier, MemoryAndAccessors) {
  const auto nfc = toy_nfc(8);
  const auto lin = IntClassifier::from_float(nfc, MfShape::Linearized);
  EXPECT_EQ(lin.memory_bytes(), 8u * 3u * sizeof(LinearizedMF));
  EXPECT_EQ(lin.linear_mf(0, 1).center, 400);
  EXPECT_THROW(lin.triangular_mf(0, 0), hbrp::Error);
  EXPECT_THROW(lin.linear_mf(8, 0), hbrp::Error);
  const auto tri = IntClassifier::from_float(nfc, MfShape::Triangular);
  EXPECT_THROW(tri.linear_mf(0, 0), hbrp::Error);
  EXPECT_EQ(tri.triangular_mf(0, 2).center, -400);
}

TEST(Bundle, ClassifyWindowRunsFullChain) {
  hbrp::math::Rng rng(2);
  auto p = hbrp::rp::make_achlioptas(8, 50, rng);
  hbrp::rp::BeatProjector proj(p, 4);
  const auto nfc = toy_nfc(8);
  hbrp::embedded::EmbeddedClassifier bundle(
      proj, IntClassifier::from_float(nfc), 0);
  const hbrp::dsp::Signal window(200, 0);
  // A zero window projects to zeros -> nearest class 0 (centres at 0).
  EXPECT_EQ(bundle.classify_window(window), BeatClass::N);
  EXPECT_EQ(bundle.memory_bytes(),
            proj.packed().memory_bytes() +
                bundle.classifier().memory_bytes());
}

TEST(Bundle, AlphaValidatedAndTunable) {
  hbrp::math::Rng rng(3);
  hbrp::rp::BeatProjector proj(hbrp::rp::make_achlioptas(4, 50, rng), 4);
  hbrp::embedded::EmbeddedClassifier bundle(
      proj, IntClassifier::from_float(toy_nfc(4)), 0);
  bundle.set_alpha_q16(hbrp::math::to_q16(0.5));
  EXPECT_EQ(bundle.alpha_q16(), hbrp::math::to_q16(0.5));
  EXPECT_THROW(bundle.set_alpha_q16(hbrp::math::kQ16One + 1), hbrp::Error);
}

TEST(Bundle, CoefficientMismatchRejected) {
  hbrp::math::Rng rng(4);
  hbrp::rp::BeatProjector proj(hbrp::rp::make_achlioptas(4, 50, rng), 4);
  EXPECT_THROW(hbrp::embedded::EmbeddedClassifier(
                   proj, IntClassifier::from_float(toy_nfc(8)), 0),
               hbrp::Error);
}

TEST(Bundle, ExportCHeaderContainsTables) {
  hbrp::math::Rng rng(5);
  hbrp::rp::BeatProjector proj(hbrp::rp::make_achlioptas(8, 50, rng), 4);
  hbrp::embedded::EmbeddedClassifier bundle(
      proj, IntClassifier::from_float(toy_nfc(8)), 12345);
  std::ostringstream out;
  bundle.export_c_header(out, "HBRP");
  const std::string header = out.str();
  EXPECT_NE(header.find("#define HBRP_COEFFICIENTS 8"), std::string::npos);
  EXPECT_NE(header.find("#define HBRP_INPUT_SAMPLES 50"), std::string::npos);
  EXPECT_NE(header.find("#define HBRP_DOWNSAMPLE 4"), std::string::npos);
  EXPECT_NE(header.find("#define HBRP_ALPHA_Q16 12345u"), std::string::npos);
  EXPECT_NE(header.find("HBRP_projection"), std::string::npos);
  EXPECT_NE(header.find("HBRP_mf_center"), std::string::npos);
  EXPECT_NE(header.find("HBRP_mf_width"), std::string::npos);
  EXPECT_NE(header.find("400, "), std::string::npos);  // a class-1 centre

  // Decode the emitted projection table (2 bits per element, row-major,
  // rows padded to whole bytes; 00 = 0, 01 = +1, 10 = -1) and compare
  // every element, padding included, with the projector's dense matrix.
  const std::size_t open = header.find('{', header.find("HBRP_projection"));
  const std::size_t close = header.find('}', open);
  ASSERT_NE(close, std::string::npos);
  std::istringstream table(header.substr(open + 1, close - open - 1));
  std::vector<unsigned> bytes;
  for (unsigned byte = 0; table >> byte; table.ignore(1, ','))
    bytes.push_back(byte);
  const auto& dense = bundle.projector().matrix();
  const std::size_t bytes_per_row = (dense.cols() + 3) / 4;
  ASSERT_EQ(bytes.size(), dense.rows() * bytes_per_row);
  for (std::size_t r = 0; r < dense.rows(); ++r)
    for (std::size_t c = 0; c < 4 * bytes_per_row; ++c) {
      const unsigned bits =
          (bytes[r * bytes_per_row + c / 4] >> (2 * (c % 4))) & 0x3u;
      ASSERT_NE(bits, 3u) << "invalid code at row " << r << " col " << c;
      const int decoded = bits == 1 ? 1 : (bits == 2 ? -1 : 0);
      EXPECT_EQ(decoded, c < dense.cols() ? dense.at(r, c) : 0)
          << "row " << r << " col " << c;
    }
}

}  // namespace
