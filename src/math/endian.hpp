// Explicit little-endian (de)serialization primitives.
//
// Every persisted or transmitted field in this codebase — model bundles
// (lifecycle/bundle) and wire frames (net/wire) — goes through these helpers,
// so there is exactly one audited codec instead of one per subsystem (the
// one exception, net/wire's LSB-first bit-packed sample blocks, is
// shift/or too). The byte order is little-endian *by construction*
// (shift/or, never memcpy of a native representation), so the format is
// identical on any host;
// floating-point values travel as the IEEE-754 bit pattern of their
// same-width unsigned integer.
//
// Two call shapes cover every producer/consumer in the tree:
//   - raw pointers:   store_le<T>(p, v) / load_le<T>(p)     (framing)
//   - growable blobs: append_le<T>(str_or_vec, v)           (payload build)
// plus ByteReader, the bounds-checked sequential decoder: every get<T>()
// verifies the remaining length BEFORE touching memory, so a truncated or
// hostile payload can never read out of bounds — it throws hbrp::Error
// (HBRP_REQUIRE) instead.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "math/check.hpp"

namespace hbrp::math {

namespace detail {

/// Maps a serializable type to the unsigned integer that carries its bits.
template <typename T>
struct wire_carrier {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                "endian.hpp: only integral and floating types are serializable");
  using type = std::make_unsigned_t<T>;
};
template <>
struct wire_carrier<float> {
  using type = std::uint32_t;
};
template <>
struct wire_carrier<double> {
  using type = std::uint64_t;
};

template <typename T>
using wire_carrier_t = typename wire_carrier<T>::type;

}  // namespace detail

/// Serialized width of T (identical to sizeof(T) for all supported types;
/// spelled out so format descriptions can reference it).
template <typename T>
inline constexpr std::size_t wire_size_v = sizeof(detail::wire_carrier_t<T>);

/// Writes `v` at `p` in little-endian byte order. `p` must have
/// wire_size_v<T> writable bytes; no alignment requirement.
template <typename T>
inline void store_le(unsigned char* p, T v) {
  using U = detail::wire_carrier_t<T>;
  const U bits = std::bit_cast<U>(v);
  for (std::size_t i = 0; i < sizeof(U); ++i)
    p[i] = static_cast<unsigned char>((bits >> (8 * i)) & 0xFFu);
}

/// Reads a little-endian T from `p` (wire_size_v<T> bytes, unaligned OK).
template <typename T>
inline T load_le(const unsigned char* p) {
  using U = detail::wire_carrier_t<T>;
  U bits = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i)
    bits |= static_cast<U>(static_cast<unsigned char>(p[i])) << (8 * i);
  return std::bit_cast<T>(bits);
}

/// Appends the little-endian image of `v` to a growable byte container
/// (std::string or std::vector<unsigned char> — anything with resize/data).
template <typename T, typename Buffer>
inline void append_le(Buffer& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + wire_size_v<T>);
  store_le<T>(reinterpret_cast<unsigned char*>(out.data()) + at, v);
}

/// Bounds-checked sequential little-endian decoder over an in-memory
/// buffer. Throws hbrp::Error (never reads) when the buffer is shorter
/// than the caller's next field — the defense lifecycle/bundle and net/wire
/// both rely on for untrusted input.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size)
      : data_(static_cast<const unsigned char*>(data)), size_(size) {}

  template <typename T>
  T get() {
    HBRP_REQUIRE(size_ - pos_ >= wire_size_v<T>,
                 "endian: payload shorter than its header claims");
    const T v = load_le<T>(data_ + pos_);
    pos_ += wire_size_v<T>;
    return v;
  }

  /// Borrows the next `n` raw bytes (no copy); bounds-checked like get().
  const unsigned char* bytes(std::size_t n) {
    HBRP_REQUIRE(size_ - pos_ >= n,
                 "endian: payload shorter than its header claims");
    const unsigned char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t consumed() const { return pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace hbrp::math
