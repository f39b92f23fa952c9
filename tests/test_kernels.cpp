// Kernel-layer equivalence gates: the sparse-index projection vs. the dense
// reference, the batch fuzzification kernels vs. the per-value canonical
// forms, and scalar-vs-AVX2 bit-identity. These tests
// are the enforcement of the equivalence contract documented in
// src/kernels/*.hpp and DESIGN.md §10.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "embedded/int_classifier.hpp"
#include "math/check.hpp"
#include "kernels/cpu.hpp"
#include "kernels/fuzzify.hpp"
#include "kernels/sparse_ternary.hpp"
#include "math/rng.hpp"
#include "nfc/classifier.hpp"
#include "rp/achlioptas.hpp"
#include "rp/packed_matrix.hpp"

namespace {

namespace kernels = hbrp::kernels;
using hbrp::dsp::Sample;
using hbrp::math::Rng;
using hbrp::rp::make_achlioptas;
using hbrp::rp::PackedTernaryMatrix;
using hbrp::rp::TernaryMatrix;

kernels::SparseTernary sparse_from(const TernaryMatrix& m) {
  return kernels::SparseTernary::build(
      m.rows(), m.cols(),
      [&m](std::size_t r, std::size_t c) { return m.at(r, c); });
}

std::vector<Sample> random_samples(std::size_t n, Rng& rng, std::int32_t lo,
                                   std::int32_t hi) {
  std::vector<Sample> v(n);
  for (Sample& x : v) x = static_cast<Sample>(rng.uniform_int(lo, hi));
  return v;
}

// --- sparse-index projection vs. the dense reference ------------------------

TEST(SparseTernary, MatchesDenseAndPackedOnRandomShapes) {
  // Built from the dense form or from the 2-bit storage form, the kernel
  // reproduces the dense reference.
  Rng rng(20250806);
  for (const std::size_t k : {std::size_t{8}, std::size_t{16}, std::size_t{32}}) {
    for (int rep = 0; rep < 8; ++rep) {
      const TernaryMatrix dense = make_achlioptas(k, 50, rng);
      const PackedTernaryMatrix packed(dense);
      const kernels::SparseTernary sparse = sparse_from(dense);
      const kernels::SparseTernary from_packed = kernels::SparseTernary::build(
          k, 50,
          [&packed](std::size_t r, std::size_t c) { return packed.at(r, c); });

      const std::vector<Sample> v = random_samples(50, rng, -2048, 2047);
      const std::vector<std::int32_t> ref =
          dense.apply(std::span<const Sample>(v));
      std::vector<std::int32_t> got(k), got_packed(k);
      sparse.apply_into(v, got);
      from_packed.apply_into(v, got_packed);
      EXPECT_EQ(ref, got) << "k=" << k << " rep=" << rep;
      EXPECT_EQ(ref, got_packed) << "k=" << k << " rep=" << rep;
    }
  }
}

TEST(SparseTernary, AllZeroRowsAndNoNegativeRows) {
  TernaryMatrix m(4, 50);
  // Row 0 all zero; row 1 no negatives; row 2 no positives; row 3 mixed.
  for (std::size_t c = 0; c < 50; c += 3) m.set(1, c, 1);
  for (std::size_t c = 1; c < 50; c += 4) m.set(2, c, -1);
  for (std::size_t c = 0; c < 50; ++c)
    m.set(3, c, static_cast<std::int8_t>(c % 3 == 0 ? 1 : (c % 3 == 1 ? -1 : 0)));
  const kernels::SparseTernary sparse = sparse_from(m);

  Rng rng(7);
  const std::vector<Sample> v = random_samples(50, rng, -5000, 5000);
  const std::vector<std::int32_t> ref = m.apply(std::span<const Sample>(v));
  std::vector<std::int32_t> got(4);
  sparse.apply_into(v, got);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(ref, got);
}

TEST(SparseTernary, ExtremeSampleValuesSumExactly) {
  // At int16 extremes nothing can wrap: a row of a few hundred taps times
  // 2^15 stays far below 2^31, so every row sum is exact in the kernel and
  // the dense reference alike. Row 0 adds the top Sample and subtracts the
  // bottom one at every tap, the largest magnitude a row of this width can
  // reach; row 1 subtracts everything.
  constexpr std::size_t kCols = 400;
  TernaryMatrix m(2, kCols);
  std::vector<Sample> v(kCols);
  for (std::size_t c = 0; c < kCols; ++c) {
    const bool even = c % 2 == 0;
    m.set(0, c, even ? 1 : -1);
    m.set(1, c, -1);
    v[c] = even ? std::numeric_limits<Sample>::max()
                : std::numeric_limits<Sample>::min();
  }
  const kernels::SparseTernary sparse = sparse_from(m);
  const std::vector<std::int32_t> ref = m.apply(std::span<const Sample>(v));
  std::vector<std::int32_t> got(2);
  sparse.apply_into(v, got);
  EXPECT_EQ(ref, got);
  // 200 * 32767 + 200 * 32768, and -(200 * 32767 - 200 * 32768).
  EXPECT_EQ(got[0], 13'107'000);
  EXPECT_EQ(got[1], 200);

  // Only at the column cap, 2^16 taps of -2^15, does a row reach 2^31: one
  // sign's partial sum is exactly -2^31 (row 0), and subtracting it (row 1)
  // converts to int32 modulo 2^32 in the kernel and the reference alike.
  constexpr std::size_t kCap = std::size_t{1} << 16;
  TernaryMatrix cap(2, kCap);
  for (std::size_t c = 0; c < kCap; ++c) {
    cap.set(0, c, 1);
    cap.set(1, c, -1);
  }
  const std::vector<Sample> low(kCap, std::numeric_limits<Sample>::min());
  const std::vector<std::int32_t> cap_ref =
      cap.apply(std::span<const Sample>(low));
  sparse_from(cap).apply_into(low, got);
  EXPECT_EQ(cap_ref, got);
  EXPECT_EQ(got[0], std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(got[1], std::numeric_limits<std::int32_t>::min());
}

TEST(SparseTernary, NonzerosAndShapeAccessors) {
  Rng rng(11);
  const TernaryMatrix m = make_achlioptas(16, 50, rng);
  const kernels::SparseTernary sparse = sparse_from(m);
  EXPECT_EQ(sparse.rows(), 16u);
  EXPECT_EQ(sparse.cols(), 50u);
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 50; ++c) nnz += m.at(r, c) != 0;
  EXPECT_EQ(sparse.nonzeros(), nnz);
}

// --- integer MF batch kernels vs. the canonical scalar grades --------------

TEST(FuzzifyInt, LinearizedBatchMatchesScalarEverywhere) {
  // Sweep MF shapes incl. s = 1 (degenerate), huge s, and x values placed
  // exactly on every segment breakpoint — the AVX2 exact-division fixup has
  // to hold on all of them.
  Rng rng(42);
  const std::uint32_t s_values[] = {1,      2,      3,       40,
                                    4147,   65535,  1 << 20, (1u << 31) - 1};
  for (const std::uint32_t s : s_values) {
    const std::int32_t center =
        static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
    std::vector<std::int32_t> xs;
    // Breakpoints and their neighbours, both sides of the centre.
    for (const std::int64_t mult : {0, 1, 2, 4}) {
      const std::int64_t off = mult * static_cast<std::int64_t>(s);
      for (const std::int64_t d : {-1, 0, 1}) {
        for (const std::int64_t sign : {-1, 1}) {
          const std::int64_t x = center + sign * (off + d);
          if (x >= std::numeric_limits<std::int32_t>::min() &&
              x <= std::numeric_limits<std::int32_t>::max())
            xs.push_back(static_cast<std::int32_t>(x));
        }
      }
    }
    for (int i = 0; i < 37; ++i)  // odd count exercises the scalar tail
      xs.push_back(static_cast<std::int32_t>(
          rng.uniform_int(std::numeric_limits<std::int32_t>::min(),
                          std::numeric_limits<std::int32_t>::max())));

    std::vector<std::uint16_t> got(xs.size());
    kernels::linearized_eval_batch(center, s, xs.data(), xs.size(), got.data());
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_EQ(got[i], kernels::linearized_grade(center, s, xs[i]))
          << "s=" << s << " x=" << xs[i] << " center=" << center;
  }
}

#if HBRP_KERNELS_X86
TEST(FuzzifyInt, LinearizedAvx2BitIdenticalToScalar) {
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(99);
  for (int rep = 0; rep < 50; ++rep) {
    const std::int32_t center = static_cast<std::int32_t>(
        rng.uniform_int(std::numeric_limits<std::int32_t>::min(),
                        std::numeric_limits<std::int32_t>::max()));
    const std::uint32_t s = static_cast<std::uint32_t>(
        rng.uniform_int(1, std::numeric_limits<std::uint32_t>::max()));
    std::vector<std::int32_t> xs(129);
    for (std::int32_t& x : xs)
      x = static_cast<std::int32_t>(
          rng.uniform_int(std::numeric_limits<std::int32_t>::min(),
                          std::numeric_limits<std::int32_t>::max()));
    std::vector<std::uint16_t> scalar(xs.size()), avx2(xs.size());
    kernels::linearized_eval_batch_scalar(center, s, xs.data(), xs.size(),
                                          scalar.data());
    kernels::linearized_eval_batch_avx2(center, s, xs.data(), xs.size(),
                                        avx2.data());
    EXPECT_EQ(scalar, avx2) << "center=" << center << " s=" << s;
  }
}

TEST(FuzzifyFloat, Avx2BitIdenticalToScalar) {
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(123);
  const std::size_t k = 16;
  const std::size_t count = 37;  // non-multiple of 4: exercises the tail
  std::vector<double> u(count * k), centers(3 * k), nhiv(3 * k);
  for (double& x : u) x = rng.uniform(-500.0, 500.0);
  for (double& c : centers) c = rng.uniform(-500.0, 500.0);
  for (double& h : nhiv) {
    const double sigma = rng.uniform(0.5, 50.0);
    h = -0.5 / (sigma * sigma);
  }
  std::vector<double> scalar(count * 3), avx2(count * 3);
  kernels::log_fuzzy_batch_scalar(u.data(), count, k, centers.data(),
                                  nhiv.data(), scalar.data());
  kernels::log_fuzzy_batch_avx2(u.data(), count, k, centers.data(),
                                nhiv.data(), avx2.data());
  for (std::size_t i = 0; i < scalar.size(); ++i)
    EXPECT_EQ(scalar[i], avx2[i]) << "i=" << i;
}
#endif  // HBRP_KERNELS_X86

TEST(FuzzifyInt, TriangularBatchMatchesScalar) {
  Rng rng(5);
  for (const std::uint32_t half_base : {1u, 2u, 100u, 65536u}) {
    const std::int32_t center =
        static_cast<std::int32_t>(rng.uniform_int(-5000, 5000));
    std::vector<std::int32_t> xs(41);
    for (std::int32_t& x : xs)
      x = static_cast<std::int32_t>(rng.uniform_int(-200000, 200000));
    std::vector<std::uint16_t> got(xs.size());
    kernels::triangular_eval_batch(center, half_base, xs.data(), xs.size(),
                                   got.data());
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_EQ(got[i], kernels::triangular_grade(center, half_base, xs[i]));
  }
}

// --- batch classifier paths vs. per-beat references ------------------------

hbrp::nfc::NeuroFuzzyClassifier random_nfc(std::size_t k, Rng& rng) {
  hbrp::nfc::NeuroFuzzyClassifier nfc(k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t l = 0; l < hbrp::ecg::kNumClasses; ++l) {
      nfc.mf(j, l).center = rng.uniform(-200.0, 200.0);
      nfc.mf(j, l).sigma = rng.uniform(1.0, 80.0);
    }
  return nfc;
}

TEST(ClassifierBatch, FloatBatchMatchesPerBeatClassify) {
  Rng rng(314);
  const std::size_t k = 12, count = 301;
  const auto nfc = random_nfc(k, rng);
  std::vector<double> u(count * k);
  for (double& x : u) x = rng.uniform(-300.0, 300.0);
  std::vector<hbrp::ecg::BeatClass> batch(count);
  nfc.classify_batch(u, count, 0.1, batch);
  for (std::size_t i = 0; i < count; ++i)
    EXPECT_EQ(batch[i],
              nfc.classify(std::span<const double>(u).subspan(i * k, k), 0.1))
        << "beat " << i;
}

TEST(ClassifierBatch, IntBatchMatchesPerBeatClassify) {
  Rng rng(2718);
  const std::size_t k = 12, count = 300;
  const auto nfc = random_nfc(k, rng);
  for (const auto shape : {hbrp::embedded::MfShape::Linearized,
                           hbrp::embedded::MfShape::Triangular}) {
    const auto ic = hbrp::embedded::IntClassifier::from_float(nfc, shape);
    std::vector<std::int32_t> u(count * k);
    for (std::int32_t& x : u)
      x = static_cast<std::int32_t>(rng.uniform_int(-400, 400));
    std::vector<hbrp::ecg::BeatClass> batch(count);
    hbrp::embedded::FuzzifyScratch scratch;
    ic.classify_batch(u, count, 6554, batch, scratch);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(batch[i],
                ic.classify(std::span<const std::int32_t>(u).subspan(i * k, k),
                            6554))
          << "beat " << i;
  }
}

TEST(ClassifierBatch, IntSmallBatchFallbackMatches) {
  Rng rng(161803);
  const std::size_t k = 8, count = 5;  // below the tiled-path threshold
  const auto ic = hbrp::embedded::IntClassifier::from_float(random_nfc(k, rng));
  std::vector<std::int32_t> u(count * k);
  for (std::int32_t& x : u)
    x = static_cast<std::int32_t>(rng.uniform_int(-400, 400));
  std::vector<hbrp::ecg::BeatClass> batch(count);
  hbrp::embedded::FuzzifyScratch scratch;
  ic.classify_batch(u, count, 0, batch, scratch);
  for (std::size_t i = 0; i < count; ++i)
    EXPECT_EQ(batch[i],
              ic.classify(std::span<const std::int32_t>(u).subspan(i * k, k), 0));
}

// --- dispatch plumbing -----------------------------------------------------

TEST(CpuDispatch, ResolveLevelHonoursForceScalar) {
  using kernels::resolve_level;
  using kernels::SimdLevel;
  EXPECT_EQ(resolve_level(nullptr, true), SimdLevel::Avx2);
  EXPECT_EQ(resolve_level(nullptr, false), SimdLevel::Scalar);
  EXPECT_EQ(resolve_level("1", true), SimdLevel::Scalar);
  EXPECT_EQ(resolve_level("true", true), SimdLevel::Scalar);
  EXPECT_EQ(resolve_level("yes", true), SimdLevel::Scalar);
  EXPECT_EQ(resolve_level("on", true), SimdLevel::Scalar);
  EXPECT_EQ(resolve_level("0", true), SimdLevel::Avx2);
  EXPECT_EQ(resolve_level("", true), SimdLevel::Avx2);
}

TEST(CpuDispatch, ToStringCoversLevels) {
  EXPECT_STREQ(kernels::to_string(kernels::SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(kernels::to_string(kernels::SimdLevel::Avx2), "avx2");
  EXPECT_FALSE(kernels::cpu_model_name().empty());
}

TEST(SparseTernary, RejectsOversizedColumns) {
  EXPECT_THROW(kernels::SparseTernary::build(
                   1, 70000, [](std::size_t, std::size_t) { return 0; }),
               hbrp::Error);
}

}  // namespace
