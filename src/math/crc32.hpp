// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Guards persisted artefacts (model bundles) and every wire frame against
// silent corruption: a single flipped bit anywhere in the payload is
// detected before any length field is trusted. Slice-by-8 in portable
// software: eight 256-entry tables fold eight bytes per step, and a
// bytewise loop takes the tail. The SSE4.2 `crc32` instruction is not an
// alternative: it computes CRC-32C (polynomial 0x82F63B78), a different
// checksum, so it would change every frame and bundle on the wire.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hbrp::math {

/// Incremental CRC-32: pass the previous return value as `seed` to continue
/// a running checksum (initial call uses the default seed).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace hbrp::math
