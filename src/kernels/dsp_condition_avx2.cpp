// AVX2 forms of the block-conditioning passes, 16 int16 lanes per vector.
// This TU is compiled with -mavx2 (no FMA — the chain is pure integer, but
// the flag set matches the other AVX2 TUs). Every pass below performs the
// same exact integer min/max/sub/average per element as its scalar
// counterpart in dsp_condition.cpp — a subtraction wraps mod 2^16 in both,
// and the rounded average cannot overflow in either — so scalar and AVX2
// conditioning are bit-identical for every int16 input;
// tests/test_kernels_dsp.cpp gates it anyway.
#include "kernels/dsp_condition.hpp"

#if HBRP_KERNELS_X86

#include <immintrin.h>

#include <algorithm>
#include <limits>

namespace hbrp::kernels::detail {

namespace {

using dsp::Sample;

inline __m256i load(const Sample* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store(Sample* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

}  // namespace

void merge_extremum_avx2(const Sample* suffix, const Sample* prefix,
                         std::size_t n, bool is_min, Sample* out) {
  std::size_t i = 0;
  if (is_min) {
    for (; i + 16 <= n; i += 16)
      store(out + i, _mm256_min_epi16(load(suffix + i), load(prefix + i)));
    for (; i < n; ++i) out[i] = std::min(suffix[i], prefix[i]);
  } else {
    for (; i + 16 <= n; i += 16)
      store(out + i, _mm256_max_epi16(load(suffix + i), load(prefix + i)));
    for (; i < n; ++i) out[i] = std::max(suffix[i], prefix[i]);
  }
}

void extremum3_avx2(const Sample* x, std::size_t n, bool is_min,
                    Sample* out) {
  // Centred 3-tap window directly over the input (n >= 2, out != x):
  // out[i] = op(x[i - 1], x[i], x[i + 1]) with replicated borders, which
  // collapses to 2-tap at both ends.
  if (is_min) {
    out[0] = std::min(x[0], x[1]);
    std::size_t i = 1;
    for (; i + 17 <= n; i += 16)
      store(out + i, _mm256_min_epi16(
                         _mm256_min_epi16(load(x + i - 1), load(x + i)),
                         load(x + i + 1)));
    for (; i + 1 < n; ++i) out[i] = std::min({x[i - 1], x[i], x[i + 1]});
    out[n - 1] = std::min(x[n - 2], x[n - 1]);
  } else {
    out[0] = std::max(x[0], x[1]);
    std::size_t i = 1;
    for (; i + 17 <= n; i += 16)
      store(out + i, _mm256_max_epi16(
                         _mm256_max_epi16(load(x + i - 1), load(x + i)),
                         load(x + i + 1)));
    for (; i + 1 < n; ++i) out[i] = std::max({x[i - 1], x[i], x[i + 1]});
    out[n - 1] = std::max(x[n - 2], x[n - 1]);
  }
}

namespace {

// In-register inclusive scans (log-step shift network). `ident` fills the
// lanes shifted in: INT16_MAX for min, INT16_MIN for max, so the extra op
// is a no-op on real lanes and exactness is preserved.
template <bool IsMin>
inline __m256i vop(__m256i a, __m256i b) {
  if constexpr (IsMin) return _mm256_min_epi16(a, b);
  return _mm256_max_epi16(a, b);
}

template <bool IsMin>
inline __m256i scan_prefix16(__m256i v, __m256i ident) {
  // Shift values toward higher lanes by 1, 2, 4, then 8, combining each
  // time. alignr shifts within each 128-bit half, so the low half of `t`
  // supplies what crosses from the lower half (ident for the lowest).
  __m256i t = _mm256_permute2x128_si256(v, ident, 0x02);  // [ident.lo, v.lo]
  v = vop<IsMin>(v, _mm256_alignr_epi8(v, t, 14));
  t = _mm256_permute2x128_si256(v, ident, 0x02);
  v = vop<IsMin>(v, _mm256_alignr_epi8(v, t, 12));
  t = _mm256_permute2x128_si256(v, ident, 0x02);
  v = vop<IsMin>(v, _mm256_alignr_epi8(v, t, 8));
  v = vop<IsMin>(v, _mm256_permute2x128_si256(v, ident, 0x02));
  return v;
}

template <bool IsMin>
inline __m256i scan_suffix16(__m256i v, __m256i ident) {
  // Mirror image: shift values toward lower lanes by 1, 2, 4, then 8.
  __m256i t = _mm256_permute2x128_si256(v, ident, 0x21);  // [v.hi, ident.lo]
  v = vop<IsMin>(v, _mm256_alignr_epi8(t, v, 2));
  t = _mm256_permute2x128_si256(v, ident, 0x21);
  v = vop<IsMin>(v, _mm256_alignr_epi8(t, v, 4));
  t = _mm256_permute2x128_si256(v, ident, 0x21);
  v = vop<IsMin>(v, _mm256_alignr_epi8(t, v, 8));
  v = vop<IsMin>(v, _mm256_permute2x128_si256(v, ident, 0x21));
  return v;
}

// Lane 15 (the last) broadcast to all 16 lanes.
inline __m256i broadcast_last(__m256i v) {
  return _mm256_broadcastw_epi16(
      _mm_srli_si128(_mm256_extracti128_si256(v, 1), 14));
}

template <bool IsMin>
inline Sample sop(Sample a, Sample b) {
  if constexpr (IsMin) return a < b ? a : b;
  return a > b ? a : b;
}

template <bool IsMin>
void prefix_scan_blocks(const Sample* q, std::size_t total,
                        std::size_t block_len, Sample* out) {
  const Sample identity =
      IsMin ? std::numeric_limits<Sample>::max()
            : std::numeric_limits<Sample>::min();
  const __m256i identv = _mm256_set1_epi16(identity);
  for (std::size_t b = 0; b < total; b += block_len) {
    const std::size_t end = std::min(total, b + block_len);
    __m256i carry = identv;
    std::size_t j = b;
    for (; j + 16 <= end; j += 16) {
      __m256i v = scan_prefix16<IsMin>(load(q + j), identv);
      v = vop<IsMin>(v, carry);
      store(out + j, v);
      // Broadcast the last lane as the next chunk's carry-in.
      carry = broadcast_last(v);
    }
    // Every lane of carry holds the same value; lane 0 is the low 16 bits.
    auto run = static_cast<Sample>(_mm256_cvtsi256_si32(carry));
    for (; j < end; ++j) {
      run = sop<IsMin>(run, q[j]);
      out[j] = run;
    }
  }
}

template <bool IsMin>
void suffix_scan_blocks(Sample* q, std::size_t total, std::size_t block_len) {
  const Sample identity =
      IsMin ? std::numeric_limits<Sample>::max()
            : std::numeric_limits<Sample>::min();
  const __m256i identv = _mm256_set1_epi16(identity);
  for (std::size_t b = 0; b < total; b += block_len) {
    const std::size_t end = std::min(total, b + block_len);
    const std::size_t len = end - b;
    // Vector region [b, vec_end).
    const std::size_t vec_end = b + (len / 16) * 16;
    Sample run = identity;
    for (std::size_t j = end; j-- > vec_end;) {
      run = sop<IsMin>(run, q[j]);
      q[j] = run;
    }
    __m256i carry = _mm256_set1_epi16(run);
    for (std::size_t j = vec_end; j > b; j -= 16) {
      __m256i v = scan_suffix16<IsMin>(load(q + j - 16), identv);
      v = vop<IsMin>(v, carry);
      store(q + j - 16, v);
      carry = _mm256_broadcastw_epi16(_mm256_castsi256_si128(v));
    }
  }
}

}  // namespace

void prefix_scan_blocks_avx2(const Sample* q, std::size_t total,
                             std::size_t block_len, bool is_min, Sample* out) {
  if (is_min)
    prefix_scan_blocks<true>(q, total, block_len, out);
  else
    prefix_scan_blocks<false>(q, total, block_len, out);
}

void suffix_scan_blocks_avx2(Sample* q, std::size_t total,
                             std::size_t block_len, bool is_min) {
  if (is_min)
    suffix_scan_blocks<true>(q, total, block_len);
  else
    suffix_scan_blocks<false>(q, total, block_len);
}

void subtract_avx2(const Sample* a, const Sample* b, std::size_t n,
                   Sample* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    store(out + i, _mm256_sub_epi16(load(a + i), load(b + i)));
  for (; i < n; ++i) out[i] = static_cast<Sample>(a[i] - b[i]);
}

void average_round_avx2(const Sample* a, const Sample* b, std::size_t n,
                        Sample* out) {
  // floor((a + b + 1) / 2), matching the scalar form (and
  // dsp::suppress_noise) on negative sums, without a 17-bit intermediate:
  // flipping the sign bit maps int16 onto uint16 by adding 2^15, avg_epu16
  // rounds (a' + b' + 1) >> 1 exactly in 17 bits, and since the bias sums
  // to 2^16 the result is the signed average plus 2^15, flipped back.
  const __m256i bias = _mm256_set1_epi16(static_cast<short>(0x8000));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i avg =
        _mm256_avg_epu16(_mm256_xor_si256(load(a + i), bias),
                         _mm256_xor_si256(load(b + i), bias));
    store(out + i, _mm256_xor_si256(avg, bias));
  }
  for (; i < n; ++i) out[i] = static_cast<Sample>((a[i] + b[i] + 1) >> 1);
}

}  // namespace hbrp::kernels::detail

#endif  // HBRP_KERNELS_X86
