// Tests for integer resampling and window extraction.
#include <gtest/gtest.h>

#include "dsp/resample.hpp"
#include "math/check.hpp"

namespace {

using hbrp::dsp::Signal;

TEST(Resample, DownsampleAveragesGroups) {
  const Signal x = {1, 3, 5, 7, 10, 14};
  const Signal y = hbrp::dsp::downsample_avg(x, 2);
  const Signal expect = {2, 6, 12};
  EXPECT_EQ(y, expect);
}

TEST(Resample, DownsampleRoundsToNearest) {
  const Signal x = {1, 2};  // mean 1.5 -> 2
  EXPECT_EQ(hbrp::dsp::downsample_avg(x, 2)[0], 2);
  const Signal neg = {-1, -2};  // mean -1.5 -> -2 (symmetric)
  EXPECT_EQ(hbrp::dsp::downsample_avg(neg, 2)[0], -2);
}

TEST(Resample, DownsamplePartialTail) {
  const Signal x = {4, 4, 4, 10};
  const Signal y = hbrp::dsp::downsample_avg(x, 3);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_EQ(y[0], 4);
  EXPECT_EQ(y[1], 10);  // tail group of one
}

TEST(Resample, FactorOneIsIdentity) {
  const Signal x = {1, 2, 3};
  EXPECT_EQ(hbrp::dsp::downsample_avg(x, 1), x);
}

TEST(Resample, FactorZeroThrows) {
  const Signal x = {1};
  EXPECT_THROW(hbrp::dsp::downsample_avg(x, 0), hbrp::Error);
}

TEST(Resample, PaperWindowSizes) {
  // 200-sample beat window at 360 Hz downsampled 4x -> 50 samples at 90 Hz.
  const Signal window(200, 1);
  EXPECT_EQ(hbrp::dsp::downsample_avg(window, 4).size(), 50u);
}

TEST(Window, ExtractCentered) {
  Signal x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<int>(i);
  const Signal w = hbrp::dsp::extract_window(x, 50, 10, 10);
  ASSERT_EQ(w.size(), 20u);
  EXPECT_EQ(w[0], 40);
  EXPECT_EQ(w[10], 50);  // peak sits at index `before`
  EXPECT_EQ(w[19], 59);
}

TEST(Window, ClampsAtBorders) {
  Signal x = {7, 8, 9};
  const Signal w = hbrp::dsp::extract_window(x, 0, 2, 3);
  const Signal expect = {7, 7, 7, 8, 9};
  EXPECT_EQ(w, expect);
  const Signal w2 = hbrp::dsp::extract_window(x, 2, 1, 3);
  const Signal expect2 = {8, 9, 9, 9};
  EXPECT_EQ(w2, expect2);
}

TEST(Window, InvalidArgsThrow) {
  Signal x = {1, 2, 3};
  EXPECT_THROW(hbrp::dsp::extract_window({}, 0, 1, 1), hbrp::Error);
  EXPECT_THROW(hbrp::dsp::extract_window(x, 3, 1, 1), hbrp::Error);
}

}  // namespace
