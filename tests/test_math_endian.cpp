// Tests for math/endian.hpp — the single audited little-endian codec that
// both model bundles (lifecycle/bundle) and wire frames (net/wire) go through.
#include "math/endian.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "math/check.hpp"

namespace {

using hbrp::math::append_le;
using hbrp::math::ByteReader;
using hbrp::math::load_le;
using hbrp::math::store_le;
using hbrp::math::wire_size_v;

TEST(Endian, ByteOrderIsLittleEndianByConstruction) {
  unsigned char buf[8] = {};
  store_le<std::uint32_t>(buf, 0x11223344u);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[1], 0x33);
  EXPECT_EQ(buf[2], 0x22);
  EXPECT_EQ(buf[3], 0x11);

  store_le<std::uint16_t>(buf, 0xECB5u);
  EXPECT_EQ(buf[0], 0xB5);
  EXPECT_EQ(buf[1], 0xEC);

  store_le<std::uint64_t>(buf, 0x0102030405060708ull);
  EXPECT_EQ(buf[0], 0x08);
  EXPECT_EQ(buf[7], 0x01);
}

template <typename T>
void roundtrip(T v) {
  unsigned char buf[sizeof(T)];
  store_le<T>(buf, v);
  EXPECT_EQ(load_le<T>(buf), v);
}

TEST(Endian, RoundtripsEveryWidthIncludingExtremes) {
  roundtrip<std::uint8_t>(0xAB);
  roundtrip<std::uint16_t>(std::numeric_limits<std::uint16_t>::max());
  roundtrip<std::uint32_t>(std::numeric_limits<std::uint32_t>::max());
  roundtrip<std::uint64_t>(std::numeric_limits<std::uint64_t>::max());
  roundtrip<std::int32_t>(std::numeric_limits<std::int32_t>::min());
  roundtrip<std::int32_t>(-1);
  roundtrip<std::int64_t>(std::numeric_limits<std::int64_t>::min());
}

TEST(Endian, FloatingPointTravelsAsIeeeBitPattern) {
  roundtrip<double>(0.0);
  roundtrip<double>(-0.0);
  roundtrip<double>(1.0 / 3.0);
  roundtrip<double>(std::numeric_limits<double>::denorm_min());
  roundtrip<double>(std::numeric_limits<double>::infinity());
  roundtrip<float>(-1.5f);

  // NaN payload bits must survive exactly (bit pattern, not value, is
  // what is serialized).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  unsigned char buf[8];
  store_le<double>(buf, nan);
  const double back = load_le<double>(buf);
  EXPECT_TRUE(std::isnan(back));

  // -0.0 and +0.0 are distinct on the wire.
  unsigned char pos[8], neg[8];
  store_le<double>(pos, 0.0);
  store_le<double>(neg, -0.0);
  EXPECT_NE(0, std::memcmp(pos, neg, 8));
}

TEST(Endian, AppendGrowsStringAndVectorIdentically) {
  std::string s;
  std::vector<unsigned char> v;
  append_le<std::uint32_t>(s, 0xDEADBEEFu);
  append_le<std::uint32_t>(v, 0xDEADBEEFu);
  append_le<double>(s, 2.5);
  append_le<double>(v, 2.5);
  ASSERT_EQ(s.size(), v.size());
  ASSERT_EQ(s.size(), wire_size_v<std::uint32_t> + wire_size_v<double>);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(static_cast<unsigned char>(s[i]), v[i]) << "byte " << i;
}

TEST(Endian, ByteReaderDecodesSequentiallyWithAccounting) {
  std::vector<unsigned char> buf;
  append_le<std::uint16_t>(buf, 0xECB5u);
  append_le<std::int32_t>(buf, -42);
  append_le<double>(buf, 3.25);
  buf.push_back(0x7F);

  ByteReader r(buf.data(), buf.size());
  EXPECT_EQ(r.remaining(), buf.size());
  EXPECT_EQ(r.get<std::uint16_t>(), 0xECB5u);
  EXPECT_EQ(r.get<std::int32_t>(), -42);
  EXPECT_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.consumed(), buf.size() - 1);
  const unsigned char* tail = r.bytes(1);
  EXPECT_EQ(tail[0], 0x7F);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Endian, ByteReaderThrowsOnTruncationInsteadOfReading) {
  std::vector<unsigned char> buf;
  append_le<std::uint32_t>(buf, 7u);

  ByteReader r(buf.data(), buf.size());
  EXPECT_THROW((void)r.get<std::uint64_t>(), hbrp::Error);
  // A failed get consumes nothing; the buffer is still decodable.
  EXPECT_EQ(r.get<std::uint32_t>(), 7u);
  EXPECT_THROW((void)r.bytes(1), hbrp::Error);
  EXPECT_THROW((void)r.get<std::uint8_t>(), hbrp::Error);

  ByteReader empty(nullptr, 0);
  EXPECT_THROW((void)empty.get<std::uint8_t>(), hbrp::Error);
  EXPECT_EQ(empty.remaining(), 0u);
}

}  // namespace
