// Tests for math/crc32.hpp: the slice-by-8 CRC-32 against the IEEE check
// value and a bit-serial reference, at every short length, alignment and
// seed-chained split point.
#include "math/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "math/rng.hpp"

namespace {

using hbrp::math::crc32;

/// One byte at a time, one bit at a time, no tables: the reflected IEEE
/// CRC-32 straight from its definition.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n,
                             std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, IeeeCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthOffsetAndSplit) {
  hbrp::math::Rng rng(0xC5C5);
  std::array<unsigned char, 72> buf{};
  for (auto& b : buf) b = static_cast<unsigned char>(rng.uniform_index(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t want = crc32_bytewise(p, len, 0);
      ASSERT_EQ(crc32(p, len), want) << "offset " << offset << " len " << len;
      for (std::size_t cut = 0; cut <= len; ++cut)
        ASSERT_EQ(crc32(p + cut, len - cut, crc32(p, cut)), want)
            << "offset " << offset << " len " << len << " cut " << cut;
    }
  }
}

TEST(Crc32, NonZeroSeedMatchesReference) {
  hbrp::math::Rng rng(77);
  std::array<unsigned char, 300> buf{};
  for (auto& b : buf) b = static_cast<unsigned char>(rng.uniform_index(256));
  for (const std::uint32_t seed : {0x1u, 0xDEADBEEFu, 0xFFFFFFFFu})
    EXPECT_EQ(crc32(buf.data(), buf.size(), seed),
              crc32_bytewise(buf.data(), buf.size(), seed));
}

}  // namespace
