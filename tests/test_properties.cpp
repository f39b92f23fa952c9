// Cross-module property sweeps: invariants that must hold for arbitrary
// inputs, checked over parameterized random instances.
#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"
#include "dsp/morphology.hpp"
#include "dsp/resample.hpp"
#include "embedded/int_classifier.hpp"
#include "kernels/sparse_ternary.hpp"
#include "math/check.hpp"
#include "math/rng.hpp"
#include "nfc/classifier.hpp"
#include "rp/packed_matrix.hpp"

namespace {

using hbrp::math::Rng;

// ---------------------------------------------------------------------------
// Packed matrix == dense matrix, for arbitrary shapes and inputs: the 2-bit
// storage round-trips, and the kernel built from it projects like the
// dense reference.
class PackedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackedEquivalence, ApplyAgreesWithDense) {
  Rng rng(GetParam());
  const std::size_t k = 1 + rng.uniform_index(40);
  const std::size_t d = 1 + rng.uniform_index(300);
  const auto p = hbrp::rp::make_achlioptas(k, d, rng);
  const hbrp::rp::PackedTernaryMatrix packed(p);
  const auto sparse = hbrp::kernels::SparseTernary::build(
      k, d,
      [&packed](std::size_t r, std::size_t c) { return packed.at(r, c); });
  hbrp::dsp::Signal v(d);
  for (auto& x : v) x = static_cast<int>(rng.uniform_int(-4096, 4095));
  std::vector<std::int32_t> u(k);
  sparse.apply_into(v, u);
  EXPECT_EQ(u, p.apply(std::span<const hbrp::dsp::Sample>(v)));
  EXPECT_EQ(packed.unpack(), p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedEquivalence,
                         ::testing::Range<std::uint64_t>(1, 16));

// ---------------------------------------------------------------------------
// Morphology identities on random signals.
class MorphologyProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MorphologyProperties, OrderAndCompositionLaws) {
  Rng rng(GetParam());
  hbrp::dsp::Signal x(200 + rng.uniform_index(200));
  for (auto& v : x) v = static_cast<int>(rng.uniform_int(-300, 300));
  const std::size_t len = 2 * rng.uniform_index(10) + 3;

  const auto er = hbrp::dsp::erode(x, len);
  const auto di = hbrp::dsp::dilate(x, len);
  const auto op = hbrp::dsp::open(x, len);
  const auto cl = hbrp::dsp::close(x, len);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(er[i], x[i]);
    EXPECT_GE(di[i], x[i]);
    EXPECT_LE(er[i], op[i]);   // erosion <= opening
    EXPECT_LE(op[i], x[i]);    // opening <= id
    EXPECT_LE(x[i], cl[i]);    // id <= closing
    EXPECT_LE(cl[i], di[i]);   // closing <= dilation
  }
  // Idempotence.
  EXPECT_EQ(hbrp::dsp::open(op, len), op);
  EXPECT_EQ(hbrp::dsp::close(cl, len), cl);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MorphologyProperties,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Defuzzification consistency between the float and integer rules.
class DefuzzifyConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DefuzzifyConsistency, FloatAndIntAgreeOnScaledValues) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    // Random fuzzy triples and alpha; int version sees the same ratios
    // scaled to 31-bit integers.
    std::array<double, 3> f{};
    for (auto& v : f) v = rng.uniform(0.0, 1.0);
    const double alpha = rng.uniform(0.0, 1.0);
    const double scale = 1e6;
    std::array<std::uint32_t, 3> fi{};
    for (std::size_t i = 0; i < 3; ++i)
      fi[i] = static_cast<std::uint32_t>(f[i] * scale);
    // Rebuild the float values from the quantized ones so both rules see
    // exactly the same numbers.
    hbrp::nfc::FuzzyValues fq{};
    for (std::size_t i = 0; i < 3; ++i)
      fq[i] = static_cast<double>(fi[i]) / scale;

    const auto float_cls = hbrp::nfc::defuzzify(fq, alpha);
    const auto int_cls = hbrp::embedded::IntClassifier::defuzzify(
        fi, hbrp::math::to_q16(alpha));
    // Q16 quantization of alpha can flip beats sitting exactly on the
    // margin; tolerate only flips between the argmax class and Unknown.
    if (float_cls != int_cls) {
      const bool margin_flip =
          float_cls == hbrp::ecg::BeatClass::Unknown ||
          int_cls == hbrp::ecg::BeatClass::Unknown;
      EXPECT_TRUE(margin_flip)
          << "f=(" << fq[0] << "," << fq[1] << "," << fq[2]
          << ") alpha=" << alpha;
      // And the margin must actually be near alpha for a legal flip.
      std::array<double, 3> sorted = fq;
      std::sort(sorted.begin(), sorted.end());
      const double sum = fq[0] + fq[1] + fq[2];
      const double margin = (sorted[2] - sorted[1]) / std::max(sum, 1e-12);
      EXPECT_NEAR(margin, alpha, 0.01);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DefuzzifyConsistency,
                         ::testing::Range<std::uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// Downsampling preserves means (up to rounding) for arbitrary factors.
class DownsampleProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DownsampleProperties, MeanPreservedWithinRounding) {
  Rng rng(GetParam());
  hbrp::dsp::Signal x(40 + rng.uniform_index(400));
  for (auto& v : x) v = static_cast<int>(rng.uniform_int(-2000, 2000));
  const std::size_t factor = 1 + rng.uniform_index(8);
  const auto y = hbrp::dsp::downsample_avg(x, factor);
  double mx = 0, my = 0;
  for (auto v : x) mx += v;
  for (auto v : y) my += v;
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(y.size());
  EXPECT_NEAR(mx, my, 1.0 + 2000.0 * static_cast<double>(factor) /
                              static_cast<double>(x.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DownsampleProperties,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// NFC invariances.
class NfcProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NfcProperties, ClassifyInvariantToCoefficientPermutationOfMfs) {
  // Swapping coefficient index k across all classes together (inputs too)
  // must not change any classification: the product is order-free.
  Rng rng(GetParam());
  const std::size_t k = 4 + rng.uniform_index(8);
  hbrp::nfc::NeuroFuzzyClassifier a(k), b(k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t l = 0; l < 3; ++l)
      a.mf(i, l) = {rng.normal(0, 100), rng.uniform(1.0, 50.0)};
  const auto perm = rng.permutation(k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t l = 0; l < 3; ++l) b.mf(i, l) = a.mf(perm[i], l);

  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> u(k), pu(k);
    for (std::size_t i = 0; i < k; ++i) u[i] = rng.normal(0, 120);
    for (std::size_t i = 0; i < k; ++i) pu[i] = u[perm[i]];
    const double alpha = rng.uniform(0.0, 0.9);
    EXPECT_EQ(a.classify(u, alpha), b.classify(pu, alpha));
  }
}

TEST_P(NfcProperties, AlphaMonotonicityOfUnknowns) {
  Rng rng(GetParam() + 100);
  const std::size_t k = 6;
  hbrp::nfc::NeuroFuzzyClassifier nfc(k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t l = 0; l < 3; ++l)
      nfc.mf(i, l) = {rng.normal(0, 100), rng.uniform(5.0, 60.0)};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> u(k);
    for (auto& v : u) v = rng.normal(0, 150);
    bool was_unknown = false;
    for (double alpha : {0.0, 0.1, 0.3, 0.6, 0.9}) {
      const bool unknown =
          nfc.classify(u, alpha) == hbrp::ecg::BeatClass::Unknown;
      // Once Unknown, always Unknown as alpha rises.
      EXPECT_TRUE(!was_unknown || unknown);
      was_unknown = unknown;
    }
  }
}

TEST_P(NfcProperties, ClassifyBatchEquivalentToPerBeat) {
  // The batch forward pass must agree with classify() row by row for any
  // batch size — including the empty and single-beat edges — on both the
  // float and the integer path.
  Rng rng(GetParam() + 200);
  const std::size_t k = 2 + rng.uniform_index(12);
  hbrp::nfc::NeuroFuzzyClassifier nfc(k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t l = 0; l < 3; ++l)
      nfc.mf(i, l) = {rng.normal(0, 100), rng.uniform(5.0, 60.0)};
  const auto integer = hbrp::embedded::IntClassifier::from_float(nfc);

  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, 2 + rng.uniform_index(60)}) {
    std::vector<double> u(count * k);
    std::vector<std::int32_t> ui(count * k);
    for (std::size_t i = 0; i < u.size(); ++i) {
      u[i] = std::round(rng.normal(0, 150));
      ui[i] = static_cast<std::int32_t>(u[i]);
    }
    const double alpha = rng.uniform(0.0, 0.9);
    const auto alpha_q16 =
        static_cast<std::uint32_t>(alpha * 65536.0);

    std::vector<hbrp::ecg::BeatClass> out(count), out_int(count);
    nfc.classify_batch(u, count, alpha, out);
    hbrp::embedded::FuzzifyScratch scratch;
    integer.classify_batch(ui, count, alpha_q16, out_int, scratch);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i], nfc.classify({u.data() + i * k, k}, alpha));
      EXPECT_EQ(out_int[i],
                integer.classify({ui.data() + i * k, k}, alpha_q16));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NfcProperties,
                         ::testing::Range<std::uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// Confusion-matrix arithmetic under random fills.
TEST(MetricsProperties, CountsAlwaysConsistent) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    hbrp::core::ConfusionMatrix cm;
    const int n = 1 + static_cast<int>(rng.uniform_index(500));
    for (int i = 0; i < n; ++i)
      cm.add(static_cast<hbrp::ecg::BeatClass>(rng.uniform_index(3)),
             static_cast<hbrp::ecg::BeatClass>(rng.uniform_index(4)));
    EXPECT_EQ(cm.total(), static_cast<std::size_t>(n));
    EXPECT_EQ(cm.total_normal() + cm.total_abnormal(), cm.total());
    EXPECT_GE(cm.ndr(), 0.0);
    EXPECT_LE(cm.ndr(), 1.0);
    EXPECT_GE(cm.arr(), 0.0);
    EXPECT_LE(cm.arr(), 1.0);
    EXPECT_GE(cm.flagged_fraction(), 0.0);
    EXPECT_LE(cm.flagged_fraction(), 1.0);
  }
}

}  // namespace
