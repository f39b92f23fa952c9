// Tests for Achlioptas random projections: generation, packing, the
// projector's window chain and Johnson-Lindenstrauss behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "math/check.hpp"
#include "rp/achlioptas.hpp"
#include "rp/packed_matrix.hpp"
#include "rp/projector.hpp"

namespace {

using hbrp::math::Rng;
using hbrp::rp::make_achlioptas;
using hbrp::rp::PackedTernaryMatrix;
using hbrp::rp::TernaryMatrix;

TEST(Achlioptas, ElementDistribution) {
  Rng rng(1);
  int plus = 0, minus = 0, zero = 0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const auto e = hbrp::rp::sample_achlioptas_element(rng);
    plus += (e == 1);
    minus += (e == -1);
    zero += (e == 0);
  }
  EXPECT_NEAR(plus / double(n), 1.0 / 6.0, 0.01);
  EXPECT_NEAR(minus / double(n), 1.0 / 6.0, 0.01);
  EXPECT_NEAR(zero / double(n), 2.0 / 3.0, 0.01);
}

TEST(Achlioptas, MatrixShapeAndDensity) {
  Rng rng(2);
  const TernaryMatrix p = make_achlioptas(8, 50, rng);
  EXPECT_EQ(p.rows(), 8u);
  EXPECT_EQ(p.cols(), 50u);
  EXPECT_NEAR(p.density(), 1.0 / 3.0, 0.12);
}

TEST(Achlioptas, DeterministicInRng) {
  Rng a(3), b(3);
  EXPECT_EQ(make_achlioptas(4, 10, a), make_achlioptas(4, 10, b));
}

TEST(Achlioptas, EmptyShapeThrows) {
  Rng rng(4);
  EXPECT_THROW(make_achlioptas(0, 10, rng), hbrp::Error);
  EXPECT_THROW(make_achlioptas(4, 0, rng), hbrp::Error);
}

TEST(TernaryMat, SetValidatesValues) {
  TernaryMatrix m(2, 2);
  EXPECT_NO_THROW(m.set(0, 0, 1));
  EXPECT_NO_THROW(m.set(0, 1, -1));
  EXPECT_THROW(m.set(1, 0, 2), hbrp::Error);
  EXPECT_THROW(m.set(2, 0, 1), hbrp::Error);
}

TEST(TernaryMat, ApplyMatchesHandComputation) {
  TernaryMatrix m(2, 3);
  m.set(0, 0, 1);
  m.set(0, 2, -1);
  m.set(1, 1, 1);
  const std::vector<double> v = {3.0, 5.0, 7.0};
  const auto u = m.apply(std::span<const double>(v));
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], -4.0);
  EXPECT_DOUBLE_EQ(u[1], 5.0);
}

TEST(TernaryMat, IntAndDoubleApplyAgree) {
  Rng rng(5);
  const TernaryMatrix p = make_achlioptas(8, 50, rng);
  hbrp::dsp::Signal iv(50);
  std::vector<double> dv(50);
  for (std::size_t i = 0; i < 50; ++i) {
    iv[i] = static_cast<int>(rng.uniform_int(-1024, 1023));
    dv[i] = static_cast<double>(iv[i]);
  }
  const auto ui = p.apply(std::span<const hbrp::dsp::Sample>(iv));
  const auto ud = p.apply(std::span<const double>(dv));
  for (std::size_t r = 0; r < 8; ++r)
    EXPECT_DOUBLE_EQ(static_cast<double>(ui[r]), ud[r]);
}

TEST(TernaryMat, ToMatRoundValues) {
  Rng rng(6);
  const TernaryMatrix p = make_achlioptas(3, 4, rng);
  const auto m = p.to_mat();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_DOUBLE_EQ(m.at(r, c), static_cast<double>(p.at(r, c)));
}

TEST(Packed, RoundTripExact) {
  Rng rng(7);
  const TernaryMatrix p = make_achlioptas(16, 53, rng);  // odd col count
  const PackedTernaryMatrix packed(p);
  EXPECT_EQ(packed.unpack(), p);
  for (std::size_t r = 0; r < p.rows(); ++r)
    for (std::size_t c = 0; c < p.cols(); ++c)
      EXPECT_EQ(packed.at(r, c), p.at(r, c));
}

TEST(Packed, MemoryIsQuarterOfBytePerElement) {
  Rng rng(8);
  const TernaryMatrix p = make_achlioptas(8, 48, rng);
  const PackedTernaryMatrix packed(p);
  // 48 cols -> 12 bytes per row -> 96 bytes total vs 384 at 1 byte/elem.
  EXPECT_EQ(packed.memory_bytes(), 8u * 12u);
  EXPECT_EQ(packed.memory_bytes() * 4, p.rows() * p.cols());
}

TEST(Packed, AtOutOfRangeThrows) {
  Rng rng(10);
  const PackedTernaryMatrix packed(make_achlioptas(2, 5, rng));
  EXPECT_THROW(packed.at(2, 0), hbrp::Error);
  EXPECT_THROW(packed.at(0, 5), hbrp::Error);
}

TEST(Jl, DistortionNearOneForLargeK) {
  // With k = 32 the JL estimate should concentrate near 1.
  Rng rng(11);
  const TernaryMatrix p = make_achlioptas(32, 200, rng);
  hbrp::math::Mat points(20, 200);
  for (auto& v : points.flat()) v = rng.normal();
  const auto stats = hbrp::rp::jl_distortion(p, points);
  EXPECT_NEAR(stats.mean, 1.0, 0.1);
  EXPECT_GT(stats.min, 0.5);
  EXPECT_LT(stats.max, 1.6);
}

TEST(Jl, SmallerKHasWiderSpread) {
  Rng rng(12);
  hbrp::math::Mat points(20, 200);
  for (auto& v : points.flat()) v = rng.normal();
  const auto s8 = hbrp::rp::jl_distortion(make_achlioptas(8, 200, rng), points);
  const auto s64 =
      hbrp::rp::jl_distortion(make_achlioptas(64, 200, rng), points);
  EXPECT_GT(s8.max - s8.min, s64.max - s64.min);
}

TEST(Jl, InvalidInputsThrow) {
  Rng rng(13);
  const TernaryMatrix p = make_achlioptas(4, 10, rng);
  hbrp::math::Mat wrong_dim(5, 9);
  EXPECT_THROW(hbrp::rp::jl_distortion(p, wrong_dim), hbrp::Error);
  hbrp::math::Mat one_point(1, 10);
  EXPECT_THROW(hbrp::rp::jl_distortion(p, one_point), hbrp::Error);
  hbrp::math::Mat identical(3, 10);  // all-zero rows -> no valid pairs
  EXPECT_THROW(hbrp::rp::jl_distortion(p, identical), hbrp::Error);
}

TEST(Projector, WindowChainDimensions) {
  Rng rng(14);
  const TernaryMatrix p = make_achlioptas(8, 50, rng);
  hbrp::rp::BeatProjector proj(p, 4);
  EXPECT_EQ(proj.coefficients(), 8u);
  EXPECT_EQ(proj.expected_window(), 200u);
  // A constant window downsamples to 50 samples of the same constant.
  const hbrp::dsp::Signal window(200, 100);
  const hbrp::dsp::Signal downsampled(50, 100);
  std::vector<std::int32_t> u(8);
  hbrp::rp::ProjectionScratch scratch;
  proj.project_int_into(window, u, scratch);
  EXPECT_EQ(u, p.apply(std::span<const hbrp::dsp::Sample>(downsampled)));
}

TEST(Projector, WrongWindowSizeThrows) {
  Rng rng(16);
  hbrp::rp::BeatProjector proj(make_achlioptas(8, 50, rng), 4);
  hbrp::dsp::Signal bad(199, 0);
  std::vector<std::int32_t> u(8);
  hbrp::rp::ProjectionScratch scratch;
  EXPECT_THROW(proj.project_int_into(bad, u, scratch), hbrp::Error);
  EXPECT_THROW(proj.project_int_batch(bad, 1, u, scratch), hbrp::Error);
}

TEST(Projector, DownsampleOneIsDirectProjection) {
  Rng rng(17);
  const TernaryMatrix p = make_achlioptas(8, 50, rng);
  hbrp::rp::BeatProjector proj(p, 1);
  EXPECT_EQ(proj.expected_window(), 50u);
  hbrp::dsp::Signal window(50);
  for (auto& x : window) x = static_cast<int>(rng.uniform_int(-100, 100));
  const auto direct = p.apply(std::span<const hbrp::dsp::Sample>(window));
  std::vector<std::int32_t> u(8);
  hbrp::rp::ProjectionScratch scratch;
  proj.project_int_into(window, u, scratch);
  EXPECT_EQ(u, direct);
}

}  // namespace
