#include "math/crc32.hpp"

#include <array>

#include "math/endian.hpp"

namespace hbrp::math {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// kTables[0] is the classic bytewise table; kTables[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, so one step can fold
/// eight input bytes with eight independent lookups.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, p += 8) {
    // Only the first four bytes meet the running CRC, so the lookups of the
    // last four do not wait for the previous step.
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    const std::uint32_t lo = load_le<std::uint32_t>(p) ^ c;
    c = (kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
         kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24]) ^
        (kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
         kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24]);
  }
  for (; size > 0; --size, ++p) c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hbrp::math
