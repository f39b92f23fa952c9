// Tests for net/wire.hpp — framing, typed codecs (the block-delta sample
// layout included), the incremental FrameParser (fragmentation tolerance,
// strict corruption handling), and golden pins of the v3 bytes.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "delineation/mmd.hpp"
#include "golden_records.hpp"
#include "math/check.hpp"
#include "math/endian.hpp"
#include "math/rng.hpp"

namespace {

using namespace hbrp;
using net::FrameParser;
using net::FrameType;
using net::FrameView;

std::vector<unsigned char> hello_frame(std::uint32_t node = 7) {
  net::HelloMsg m;
  m.node_id = node;
  m.policy = net::TxPolicy::Selective;
  m.window = 200;
  m.fs_hz = 360;
  std::vector<unsigned char> out;
  net::append_frame(out, FrameType::Hello, 0, net::encode_hello(m));
  return out;
}

TEST(WireCodec, HelloRoundtrip) {
  net::HelloMsg m;
  m.node_id = 0xA1B2C3D4u;
  m.policy = net::TxPolicy::Selective;
  m.window = 200;
  m.fs_hz = 360;
  const auto got = net::decode_hello(net::encode_hello(m));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->node_id, m.node_id);
  EXPECT_EQ(got->policy, m.policy);
  EXPECT_EQ(got->window, m.window);
  EXPECT_EQ(got->fs_hz, m.fs_hz);
}

TEST(WireCodec, HelloAckAndVerdictRoundtrip) {
  net::HelloAckMsg a;
  a.session = 0x1122334455667788ull;
  a.status = net::HelloStatus::FleetFull;
  const auto ga = net::decode_hello_ack(net::encode_hello_ack(a));
  ASSERT_TRUE(ga.has_value());
  EXPECT_EQ(ga->session, a.session);
  EXPECT_EQ(ga->status, a.status);

  net::BeatVerdictMsg v;
  v.r_peak = 123456789ull;
  v.beat_class = 2;
  v.quality = 1;
  const auto gv = net::decode_beat_verdict(net::encode_beat_verdict(v));
  ASSERT_TRUE(gv.has_value());
  EXPECT_EQ(gv->r_peak, v.r_peak);
  EXPECT_EQ(gv->beat_class, v.beat_class);
  EXPECT_EQ(gv->quality, v.quality);
}

TEST(WireCodec, SampleChunkRoundtripPreservesSignedCodes) {
  const std::vector<dsp::Sample> in = {0, 1, -1, 2047, -2048, 1024};
  const auto payload = net::encode_sample_chunk(in);
  std::vector<dsp::Sample> out;
  ASSERT_TRUE(net::decode_sample_chunk(payload, out));
  EXPECT_EQ(out, in);
}

TEST(WireCodec, FullBeatRoundtripAndZeroSampleEscalation) {
  net::FullBeatMsg m;
  m.r_peak = 9999;
  m.beat_class = 1;
  m.quality = 0;
  std::vector<dsp::Sample> window(200);
  for (std::size_t i = 0; i < window.size(); ++i)
    window[i] = static_cast<dsp::Sample>(i) - 100;
  const auto payload = net::encode_full_beat(m, window);

  net::FullBeatMsg got;
  std::vector<dsp::Sample> got_window;
  ASSERT_TRUE(net::decode_full_beat(payload, got, got_window));
  EXPECT_EQ(got.r_peak, m.r_peak);
  EXPECT_EQ(got.count, 200);
  EXPECT_EQ(got_window, window);

  // Suspect-signal escalation: metadata only, no window.
  const auto meta = net::encode_full_beat(m, {});
  ASSERT_TRUE(net::decode_full_beat(meta, got, got_window));
  EXPECT_EQ(got.count, 0);
  EXPECT_TRUE(got_window.empty());
}

/// Limits that admit a summary of `codes` codes with fiducials up to 320
/// and 480 ms around the R peak at 360 Hz.
net::SummaryLimits summary_limits(std::size_t codes) {
  return net::SummaryLimits{codes, 115, 172};
}

TEST(WireCodec, BeatSummaryRoundtripAndItsLimits) {
  net::BeatSummaryMsg m;
  m.r_peak = 9999;
  m.beat_class = 1;
  m.quality = 0;
  m.offsets = {-90, -70, -50, -20, 25, 60, 110, 150};
  std::vector<dsp::Sample> codes(50);
  for (std::size_t i = 0; i < codes.size(); ++i)
    codes[i] = static_cast<dsp::Sample>(40 * static_cast<int>(i) - 900);
  const auto payload = net::encode_beat_summary(m, codes);

  net::BeatSummaryMsg got;
  std::vector<dsp::Sample> got_codes;
  ASSERT_TRUE(net::decode_beat_summary(payload, summary_limits(50), got,
                                       got_codes));
  EXPECT_EQ(got.r_peak, m.r_peak);
  EXPECT_EQ(got.beat_class, m.beat_class);
  EXPECT_EQ(got.count, 50);
  EXPECT_EQ(got.offsets, m.offsets);
  EXPECT_EQ(got_codes, codes);
  // Offsets are fiducials relative to the R peak, and back.
  const ecg::Fiducials f = net::summary_fiducials(got);
  EXPECT_EQ(f.r_peak, 9999u);
  EXPECT_EQ(f.p_onset, 9909u);
  EXPECT_EQ(f.t_end, 10149u);
  EXPECT_EQ(net::summary_offsets(f), m.offsets);

  // Outside the session's limits: another code count, a fiducial beyond
  // the delineator's reach on either side, or before sample 0.
  EXPECT_FALSE(net::decode_beat_summary(payload, summary_limits(49), got,
                                        got_codes));
  EXPECT_FALSE(net::decode_beat_summary(payload, {50, 89, 172}, got,
                                        got_codes));
  EXPECT_FALSE(net::decode_beat_summary(payload, {50, 115, 149}, got,
                                        got_codes));
  EXPECT_TRUE(net::decode_beat_summary(payload, {50, 90, 150}, got,
                                       got_codes));
  net::BeatSummaryMsg early = m;
  early.r_peak = 89;
  EXPECT_FALSE(net::decode_beat_summary(net::encode_beat_summary(early, codes),
                                        summary_limits(50), got, got_codes));
  early.r_peak = 90;
  EXPECT_TRUE(net::decode_beat_summary(net::encode_beat_summary(early, codes),
                                       summary_limits(50), got, got_codes));

  // Shapes no delineation produces: the encoder refuses them, and the same
  // bytes spelled by hand are refused by the decoder.
  const auto with_offsets = [&](std::array<std::int16_t, 8> o) {
    auto p = payload;
    for (std::size_t i = 0; i < o.size(); ++i)
      math::store_le(p.data() + 12 + 2 * i, o[i]);
    return p;
  };
  constexpr std::int16_t A = net::kAbsentOffset;
  const std::array<std::int16_t, 8> bad[] = {
      {-90, A, -50, -20, 25, 60, 110, 150},     // P partly present
      {-90, -70, -50, -20, 25, A, A, 150},      // T partly present
      {-90, -70, -50, A, 25, 60, 110, 150},     // no QRS onset
      {A, A, A, A, 25, A, A, A},                // nor a P wave
      {-90, -70, -50, -20, A, 60, 110, 150},    // no QRS end
      {-90, -70, -50, 3, 25, 60, 110, 150},     // QRS onset after R
      {-90, -70, -50, -20, -1, 60, 110, 150},   // QRS end before R
      {-70, -90, -50, -20, 25, 60, 110, 150},   // P points out of order
      {-90, -70, -10, -20, 25, 60, 110, 150},   // P ends inside the QRS
      {-90, -70, -50, -20, 25, 20, 110, 150},   // T starts inside the QRS
      {-90, -70, -50, -20, 25, 60, 150, 150},   // T peak on its end
  };
  for (const auto& o : bad) {
    net::BeatSummaryMsg b = m;
    b.offsets = o;
    EXPECT_THROW(net::encode_beat_summary(b, codes), hbrp::Error);
    EXPECT_FALSE(net::decode_beat_summary(with_offsets(o),
                                          summary_limits(50), got, got_codes));
  }
  // Both waves absent is a delineation too; so is a QRS of one sample.
  net::BeatSummaryMsg bare;
  bare.r_peak = 5;
  EXPECT_TRUE(net::decode_beat_summary(net::encode_beat_summary(bare, codes),
                                       summary_limits(50), got, got_codes));
  EXPECT_EQ(got.offsets, bare.offsets);
  // Codes: at least one, within the 12-bit range, the exact run length.
  EXPECT_THROW(net::encode_beat_summary(m, {}), hbrp::Error);
  EXPECT_THROW(net::encode_beat_summary(m, std::vector<dsp::Sample>{2048}),
               hbrp::Error);
  auto shorter = payload;
  shorter.pop_back();
  EXPECT_FALSE(net::decode_beat_summary(shorter, summary_limits(50), got,
                                        got_codes));
  auto longer = payload;
  longer.push_back(0);
  EXPECT_FALSE(net::decode_beat_summary(longer, summary_limits(50), got,
                                        got_codes));
  for (const std::size_t cut : {std::size_t{0}, net::kFullBeatFixedBytes,
                                 net::kBeatSummaryFixedBytes - 1,
                                 net::kBeatSummaryFixedBytes})
    EXPECT_FALSE(net::decode_beat_summary(
        std::vector<unsigned char>(payload.begin(),
                                   payload.begin() +
                                       static_cast<std::ptrdiff_t>(cut)),
        summary_limits(50), got, got_codes))
        << cut;
  // The session's count is the caller's to get right.
  EXPECT_THROW(net::decode_beat_summary(payload, summary_limits(0), got,
                                        got_codes),
               hbrp::Error);
  // A fiducial an int16 offset cannot hold is refused before framing.
  ecg::Fiducials far = f;
  far.t_end = f.r_peak + 40000;
  EXPECT_THROW(net::summary_offsets(far), hbrp::Error);
}

TEST(WireCodec, DecodersRejectWrongSizes) {
  const auto hello = net::encode_hello(net::HelloMsg{});
  auto shorter = hello;
  shorter.pop_back();
  EXPECT_FALSE(net::decode_hello(shorter).has_value());
  auto longer = hello;
  longer.push_back(0);
  EXPECT_FALSE(net::decode_hello(longer).has_value());

  // A SampleChunk with a zero count, or too short for its count.
  std::vector<unsigned char> zero_count(7, 0);
  std::vector<dsp::Sample> out;
  EXPECT_FALSE(net::decode_sample_chunk(zero_count, out));
  EXPECT_FALSE(net::decode_sample_chunk({}, out));  // empty chunk is invalid
  EXPECT_FALSE(net::decode_sample_chunk(std::vector<unsigned char>{1}, out));
  EXPECT_FALSE(net::decode_sample_chunk(std::vector<unsigned char>{1, 0}, out));

  // FullBeat whose declared count disagrees with the payload size.
  net::FullBeatMsg m;
  std::vector<dsp::Sample> window(4, 0);
  auto fb = net::encode_full_beat(m, window);
  fb.pop_back();
  net::FullBeatMsg got;
  EXPECT_FALSE(net::decode_full_beat(fb, got, out));
}

/// Every 12-bit code, in ascending order: -2048 .. 2047.
std::vector<dsp::Sample> all_codes() {
  std::vector<dsp::Sample> codes(4096);
  std::iota(codes.begin(), codes.end(), net::kMinWireCode);
  return codes;
}

/// A run spelled out as the layout in wire.hpp describes it, and packed bit
/// by bit: the tests' own reading of the format, which can also spell runs
/// the encoder never produces (widths that are not minimal, set pad bits).
struct PackedRun {
  std::uint16_t anchor = 0;
  std::vector<std::uint32_t> values;  ///< zigzag-coded differences
  std::vector<unsigned> widths;       ///< one per block of kBlockCodes
};

/// The canonical PackedRun of `codes`: its differences and minimal widths.
PackedRun run_of(std::span<const dsp::Sample> codes) {
  PackedRun r;
  r.anchor = static_cast<std::uint16_t>(codes[0] & 0xFFF);
  for (std::size_t i = 1; i < codes.size(); ++i) {
    int d = codes[i] - codes[i - 1];
    if (d > 2047) d -= 4096;
    if (d < -2048) d += 4096;
    r.values.push_back(
        static_cast<std::uint32_t>(d >= 0 ? 2 * d : -2 * d - 1));
  }
  for (std::size_t b = 0; b * net::kBlockCodes < r.values.size(); ++b) {
    std::uint32_t top = 0;
    for (std::size_t j = b * net::kBlockCodes;
         j < std::min(r.values.size(), (b + 1) * net::kBlockCodes); ++j)
      top = std::max(top, r.values[j]);
    r.widths.push_back(static_cast<unsigned>(std::bit_width(top)));
  }
  return r;
}

/// Bit offset, within the packed run, where the last block's values end;
/// its pad bits run from there to the next byte.
std::size_t run_end_bit(const PackedRun& r) {
  std::size_t bit = 8 * (2 + (r.widths.size() + 1) / 2);
  for (std::size_t b = 0; b < r.widths.size(); ++b) {
    const std::size_t len = std::min(net::kBlockCodes,
                                     r.values.size() - b * net::kBlockCodes);
    bit = (bit + 7) / 8 * 8 + len * r.widths[b];
  }
  return bit;
}

std::vector<unsigned char> pack(const PackedRun& r) {
  std::vector<unsigned char> out = {
      static_cast<unsigned char>(r.anchor & 0xFF),
      static_cast<unsigned char>(r.anchor >> 8)};
  for (std::size_t b = 0; b < r.widths.size(); b += 2)
    out.push_back(static_cast<unsigned char>(
        r.widths[b] | (b + 1 < r.widths.size() ? r.widths[b + 1] << 4 : 0)));
  for (std::size_t b = 0; b < r.widths.size(); ++b) {
    std::size_t bit = 0;
    const std::size_t at = out.size();
    for (std::size_t j = b * net::kBlockCodes;
         j < std::min(r.values.size(), (b + 1) * net::kBlockCodes); ++j)
      for (unsigned k = 0; k < r.widths[b]; ++k, ++bit) {
        if (bit % 8 == 0) out.push_back(0);
        if ((r.values[j] >> k) & 1u)
          out[at + bit / 8] =
              static_cast<unsigned char>(out[at + bit / 8] | (1u << (bit % 8)));
      }
  }
  return out;
}

/// A SAMPLE_CHUNK payload: the u16 count, then the run's bytes.
std::vector<unsigned char> chunk_payload(
    std::size_t count, const std::vector<unsigned char>& run) {
  std::vector<unsigned char> p;
  p.reserve(net::kChunkCountBytes + run.size());
  math::append_le(p, static_cast<std::uint16_t>(count));
  p.insert(p.end(), run.begin(), run.end());
  return p;
}

/// Decodes `codes` back through both frame types; their runs are one layout.
void expect_round_trip(const std::vector<dsp::Sample>& codes) {
  const auto payload = net::encode_sample_chunk(codes);
  EXPECT_EQ(payload, chunk_payload(codes.size(), pack(run_of(codes))));
  EXPECT_LE(payload.size(),
            net::kChunkCountBytes + net::max_packed_sample_bytes(codes.size()));
  std::vector<dsp::Sample> out = {-1};  // decode appends
  ASSERT_TRUE(net::decode_sample_chunk(payload, out));
  ASSERT_EQ(out.size(), codes.size() + 1);
  EXPECT_TRUE(std::equal(codes.begin(), codes.end(), out.begin() + 1));
  net::FullBeatMsg m;
  const auto beat = net::encode_full_beat(m, codes);
  EXPECT_EQ(beat.size() - net::kFullBeatFixedBytes,
            payload.size() - net::kChunkCountBytes);
  std::vector<dsp::Sample> got;
  ASSERT_TRUE(net::decode_full_beat(beat, m, got));
  EXPECT_EQ(got, codes);
  net::BeatSummaryMsg sm;
  const auto summary = net::encode_beat_summary(sm, codes);
  EXPECT_EQ(summary.size() - net::kBeatSummaryFixedBytes,
            payload.size() - net::kChunkCountBytes);
  ASSERT_TRUE(net::decode_beat_summary(summary, summary_limits(codes.size()),
                                       sm, got));
  EXPECT_EQ(got, codes);
}

TEST(WireCodec, EveryTwelveBitCodeRoundTripsAtEveryPosition) {
  // Each code as the anchor (position 0), as the first and the last value
  // of the first block (1 and 16), one before that (15) and as the first of
  // the second (17), between neighbours that make its differences wrap; and
  // each code alone, a run of one anchor and no blocks.
  for (const dsp::Sample c : all_codes()) {
    for (const std::size_t at : {0u, 1u, 15u, 16u, 17u}) {
      std::vector<dsp::Sample> in(18, c < 0 ? 2000 : -2000);
      in[at] = c;
      expect_round_trip(in);
      if (HasFailure()) FAIL() << "code " << c << " at " << at;
    }
    const std::vector<dsp::Sample> one = {c};
    const auto payload = net::encode_sample_chunk(one);
    ASSERT_EQ(payload.size(), net::kChunkCountBytes + 2);
    std::vector<dsp::Sample> out;
    ASSERT_TRUE(net::decode_sample_chunk(payload, out));
    ASSERT_EQ(out, one);
    net::FullBeatMsg m;
    std::vector<dsp::Sample> got;
    ASSERT_TRUE(net::decode_full_beat(net::encode_full_beat(m, one), m, got));
    ASSERT_EQ(got, one);
  }
  // All 4096 codes in one run, ascending (every difference +1) and in a
  // stride of 2049 (every difference -2047, zigzag 4093: width 12 in every
  // block, the worst case). The worst case costs exactly the bound,
  // 12.25 bits per code plus a constant.
  std::vector<dsp::Sample> worst(4096);
  for (std::size_t i = 0; i < worst.size(); ++i)
    worst[i] = static_cast<dsp::Sample>(i * 2049 % 4096) - 2048;
  for (const auto& codes : {all_codes(), worst}) {
    expect_round_trip(codes);
    const std::vector<dsp::Sample> window(
        codes.begin(), codes.begin() + net::kMaxWindowSamples - 1);
    expect_round_trip(window);
  }
  const std::size_t worst_bytes = net::encode_sample_chunk(worst).size();
  EXPECT_EQ(worst_bytes,
            net::kChunkCountBytes + net::max_packed_sample_bytes(4096));
  EXPECT_LE(8.0 * static_cast<double>(worst_bytes), 12.25 * 4096 + 40);
}

TEST(WireCodec, PackedLayoutIsTheDocumentedBitPattern) {
  // 5 codes: count 5, anchor -1 -> 0x0FFF, then the differences 292,
  // 1757 (-2339 mod 4096), -1 and 2047 (-4049 mod 4096) zigzag to 0x248,
  // 0xDBA, 0x001 and 0xFFE: one short block of width 12 (pad nibble 0),
  // packed LSB-first as 24-bit pairs.
  EXPECT_EQ(net::encode_sample_chunk(
                std::vector<dsp::Sample>{-1, 0x123, -2048, 2047, -2}),
            (std::vector<unsigned char>{0x05, 0x00, 0xFF, 0x0F, 0x0C, 0x48,
                                        0xA2, 0xDB, 0x01, 0xE0, 0xFF}));
  // Differences +1, +2, -1 -> 2, 4, 1 at width 3: 9 bits, 010 100 001
  // LSB-first, then 7 zero pad bits.
  EXPECT_EQ(net::encode_sample_chunk(
                std::vector<dsp::Sample>{100, 101, 103, 102}),
            (std::vector<unsigned char>{0x04, 0x00, 0x64, 0x00, 0x03, 0x62,
                                        0x00}));
  // 18 codes, 17 differences: a full block of sixteen +1s (zigzag 2, width
  // 2: 4 bytes of 0b10101010) and a block of one 0 (width 0, no bytes).
  std::vector<dsp::Sample> ramp(18);
  std::iota(ramp.begin(), ramp.end() - 1, 0);
  ramp.back() = 16;
  EXPECT_EQ(net::encode_sample_chunk(ramp),
            (std::vector<unsigned char>{0x12, 0x00, 0x00, 0x00, 0x02, 0xAA,
                                        0xAA, 0xAA, 0xAA}));
  // The FULL_BEAT window is the same run behind the 12 fixed bytes.
  net::FullBeatMsg m;
  m.r_peak = 0x0102030405060708ull;
  m.beat_class = 2;
  m.quality = 1;
  EXPECT_EQ(net::encode_full_beat(m, std::vector<dsp::Sample>{100, 101, 103,
                                                              102}),
            (std::vector<unsigned char>{0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
                                        0x02, 0x01, 0x02, 0x01, 0x04, 0x00,
                                        0x64, 0x00, 0x03, 0x62, 0x00}));
  // The BEAT_SUMMARY: the same 12 bytes, the eight offsets as LE int16
  // (-40 -> D8 FF, an absent wave's 0x8000 -> 00 80), then the run.
  net::BeatSummaryMsg sm;
  sm.r_peak = 0x0102030405060708ull;
  sm.beat_class = 2;
  sm.quality = 0;
  sm.offsets = {-40, -30, -20, -10, 12, 30, 50, 80};
  EXPECT_EQ(
      net::encode_beat_summary(sm, std::vector<dsp::Sample>{100, 101, 103,
                                                            102}),
      (std::vector<unsigned char>{
          0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x02, 0x00,
          0x04, 0x00, 0xD8, 0xFF, 0xE2, 0xFF, 0xEC, 0xFF, 0xF6, 0xFF,
          0x0C, 0x00, 0x1E, 0x00, 0x32, 0x00, 0x50, 0x00, 0x64, 0x00,
          0x03, 0x62, 0x00}));
  sm.offsets = {net::kAbsentOffset, net::kAbsentOffset, net::kAbsentOffset,
                -10, 12, net::kAbsentOffset, net::kAbsentOffset,
                net::kAbsentOffset};
  EXPECT_EQ(net::encode_beat_summary(sm, std::vector<dsp::Sample>{-5}),
            (std::vector<unsigned char>{
                0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x02, 0x00,
                0x01, 0x00, 0x00, 0x80, 0x00, 0x80, 0x00, 0x80, 0xF6, 0xFF,
                0x0C, 0x00, 0x00, 0x80, 0x00, 0x80, 0x00, 0x80, 0xFB, 0x0F}));
}

TEST(WireCodec, PackedDecodersRejectMalformedPayloads) {
  std::vector<dsp::Sample> out = {42};
  const auto rejected = [&out](const std::vector<unsigned char>& chunk) {
    return !net::decode_sample_chunk(chunk, out);
  };
  // Runs of 20 and 21 codes end in a short block with pad bits (3 and 4
  // values at width 11); a run of 37 has an odd block count, hence a pad
  // nibble.
  std::vector<dsp::Sample> codes(37);
  for (std::size_t i = 0; i < codes.size(); ++i)
    codes[i] = static_cast<dsp::Sample>(static_cast<int>(i % 7) - 3 +
                                        (i < 17 ? 0 : 1000));
  for (const std::size_t n : {20u, 21u, 37u}) {
    const std::vector<dsp::Sample> in(codes.begin(), codes.begin() + n);
    const PackedRun run = run_of(in);
    const auto clean = net::encode_sample_chunk(in);
    ASSERT_EQ(clean, chunk_payload(n, pack(run)));
    ASSERT_FALSE(rejected(clean));
    out = {42};

    // A width above 12, with and without a value that needs it, or one
    // wider than its block's largest value.
    for (std::size_t b = 0; b < run.widths.size(); ++b) {
      for (unsigned w = 13; w <= 15; ++w) {
        PackedRun bad = run;
        bad.widths[b] = w;
        EXPECT_TRUE(rejected(chunk_payload(n, pack(bad)))) << n << " " << w;
        bad.values[b * net::kBlockCodes] = 1u << (w - 1);
        EXPECT_TRUE(rejected(chunk_payload(n, pack(bad)))) << n << " " << w;
      }
      PackedRun wide = run;
      ++wide.widths[b];
      EXPECT_TRUE(rejected(chunk_payload(n, pack(wide)))) << n << " " << b;
    }
    // A nonzero anchor nibble, pad nibble or pad bit.
    for (int bit = 4; bit < 8; ++bit) {
      auto bad = clean;
      bad[3] = static_cast<unsigned char>(bad[3] | (1u << bit));
      EXPECT_TRUE(rejected(bad)) << n << " anchor bit " << bit;
    }
    if (run.widths.size() % 2 != 0) {
      auto bad = clean;
      bad[4 + run.widths.size() / 2] |= 0x10;
      EXPECT_TRUE(rejected(bad)) << n << " pad nibble";
    }
    const std::size_t end = run_end_bit(run);
    for (std::size_t bit = end; bit % 8 != 0; ++bit) {
      auto bad = clean;
      bad[2 + bit / 8] = static_cast<unsigned char>(bad[2 + bit / 8] |
                                                    (1u << (bit % 8)));
      EXPECT_TRUE(rejected(bad)) << n << " pad bit " << bit;
    }
    // A count one off and a length one off.
    for (const std::size_t count : {n - 1, n + 1}) {
      auto bad = clean;
      math::store_le<std::uint16_t>(bad.data(),
                                    static_cast<std::uint16_t>(count));
      EXPECT_TRUE(rejected(bad)) << n << " count " << count;
    }
    auto shorter = clean;
    shorter.pop_back();
    EXPECT_TRUE(rejected(shorter)) << n;
    auto longer = clean;
    longer.push_back(0);
    EXPECT_TRUE(rejected(longer)) << n;
  }
  EXPECT_EQ(out, std::vector<dsp::Sample>{42}) << "a failed decode appended";

  // Counts of 0 and above the bound, with a run that would fit them.
  EXPECT_TRUE(rejected(chunk_payload(0, {0, 0})));
  std::vector<dsp::Sample> flat(net::kMaxChunkSamples, 5);
  auto at_max = net::encode_sample_chunk(flat);
  EXPECT_FALSE(rejected(at_max));
  flat.push_back(5);
  EXPECT_TRUE(rejected(chunk_payload(flat.size(), pack(run_of(flat)))));

  // FULL_BEAT: the same checks reach its run, and count 0 carries none.
  net::FullBeatMsg m;
  std::vector<dsp::Sample> window;
  // Differences -3, +5, +1 at width 4: 12 bits, so the top 4 are pad.
  const std::vector<dsp::Sample> four = {1, -2, 3, 4};
  auto beat = net::encode_full_beat(m, four);
  beat.back() = static_cast<unsigned char>(beat.back() | 0x80u);
  EXPECT_FALSE(net::decode_full_beat(beat, m, window));
  EXPECT_TRUE(window.empty());
  auto meta = net::encode_full_beat(m, {});
  meta.push_back(0);
  EXPECT_FALSE(net::decode_full_beat(meta, m, window));
  EXPECT_TRUE(window.empty());
  auto over = net::encode_full_beat(m, std::vector<dsp::Sample>(
                                            net::kMaxWindowSamples, 5));
  EXPECT_TRUE(net::decode_full_beat(over, m, window));
  over.resize(net::kFullBeatFixedBytes);
  const std::vector<dsp::Sample> too_long(net::kMaxWindowSamples + 1, 5);
  const auto run = pack(run_of(too_long));
  over.insert(over.end(), run.begin(), run.end());
  math::store_le<std::uint16_t>(
      over.data() + 10, static_cast<std::uint16_t>(too_long.size()));
  EXPECT_FALSE(net::decode_full_beat(over, m, window));
}

TEST(WireCodec, EncodersRejectCodesOutsideTwelveBits) {
  for (const dsp::Sample bad : {2048, -2049}) {
    const std::vector<dsp::Sample> codes = {0, bad, 0};
    EXPECT_THROW(net::encode_sample_chunk(codes), hbrp::Error) << bad;
    EXPECT_THROW(net::encode_full_beat(net::FullBeatMsg{}, codes),
                 hbrp::Error)
        << bad;
  }
}

TEST(WireCodec, FrameSizesMatchEncodedFrames) {
  const auto frame_size = [](FrameType t, const std::vector<unsigned char>& p) {
    std::vector<unsigned char> out;
    net::append_frame(out, t, 0, p);
    return out.size();
  };
  // A frame is its header plus its payload. A run of constant codes is its
  // anchor and widths only: every block has width 0.
  for (const std::size_t n : {1u, 2u, 17u, 199u, 200u, 511u, 512u}) {
    const std::vector<dsp::Sample> codes(n, -5);
    const std::size_t run = 2 + ((n - 1 + 15) / 16 + 1) / 2;
    const auto chunk = net::encode_sample_chunk(codes);
    EXPECT_EQ(chunk.size(), net::kChunkCountBytes + run) << n;
    EXPECT_EQ(frame_size(FrameType::SampleChunk, chunk),
              net::kHeaderBytes + chunk.size());
    const auto beat = net::encode_full_beat(net::FullBeatMsg{}, codes);
    EXPECT_EQ(beat.size(), net::kFullBeatFixedBytes + run) << n;
    EXPECT_EQ(frame_size(FrameType::FullBeat, beat),
              net::kHeaderBytes + beat.size());
    const auto summary =
        net::encode_beat_summary(net::BeatSummaryMsg{}, codes);
    EXPECT_EQ(summary.size(), net::kBeatSummaryFixedBytes + run) << n;
    EXPECT_EQ(frame_size(FrameType::BeatSummary, summary),
              net::kHeaderBytes + summary.size());
  }
  // A summary of 50 averaged codes, the default geometry's, is at most a
  // 126-byte frame: the header, 28 fixed bytes and the worst run.
  EXPECT_EQ(net::kBeatSummaryFixedBytes, 28u);
  EXPECT_EQ(net::kHeaderBytes + net::kBeatSummaryFixedBytes +
                net::max_packed_sample_bytes(50),
            126u);
  EXPECT_EQ(frame_size(FrameType::FullBeat,
                       net::encode_full_beat(net::FullBeatMsg{}, {})),
            32u);
  EXPECT_EQ(frame_size(FrameType::Hello, net::encode_hello(net::HelloMsg{})),
            net::kHeaderBytes + net::kHelloPayloadBytes);
  // Uniformly random codes, the codec's worst traffic, stay within the
  // bound: 12.25 bits per code plus a constant.
  math::Rng rng(2026);
  for (const std::size_t n : {1u, 2u, 16u, 17u, 33u, 200u, 511u, 512u}) {
    std::vector<dsp::Sample> codes(n);
    for (auto& c : codes)
      c = static_cast<dsp::Sample>(rng.uniform_index(4096)) - 2048;
    const std::size_t run =
        net::encode_sample_chunk(codes).size() - net::kChunkCountBytes;
    EXPECT_LE(run, net::max_packed_sample_bytes(n)) << n;
    EXPECT_LE(8.0 * static_cast<double>(net::max_packed_sample_bytes(n)),
              12.25 * static_cast<double>(n) + 24)
        << n;
  }
  EXPECT_EQ(net::max_packed_sample_bytes(512), 785u);
  EXPECT_EQ(net::max_packed_sample_bytes(200), 308u);
}

/// FNV-1a 64 over a byte stream.
std::uint64_t fnv1a(std::span<const unsigned char> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(WireGolden, V3FrameSequenceDigestIsPinned) {
  // Pins the exact v3 bytes: a change here is a wire change, and must come
  // with a protocol version bump.
  const auto codes = [](std::size_t n, int step) {
    std::vector<dsp::Sample> v(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = static_cast<dsp::Sample>(
                 (static_cast<int>(i) * step + 1000) % 4096) -
             2048;
    return v;
  };
  std::vector<unsigned char> bytes;
  net::HelloMsg hello;
  hello.node_id = 0x0A0B0C0D;
  hello.policy = net::TxPolicy::Selective;
  hello.window = 200;
  hello.fs_hz = 360;
  net::append_frame(bytes, FrameType::Hello, 0, net::encode_hello(hello));
  net::append_frame(bytes, FrameType::SampleChunk, 0,
                    net::encode_sample_chunk(codes(512, 37)));
  net::append_frame(bytes, FrameType::SampleChunk, 1,
                    net::encode_sample_chunk(codes(511, 1231)));
  net::FullBeatMsg beat;
  beat.r_peak = 123456789;
  beat.beat_class = 2;
  beat.quality = 0;
  net::append_frame(bytes, FrameType::FullBeat, 0,
                    net::encode_full_beat(beat, codes(200, 97)));
  beat.r_peak = 123457000;
  beat.quality = 1;
  net::append_frame(bytes, FrameType::FullBeat, 1,
                    net::encode_full_beat(beat, {}));
  net::append_frame(bytes, FrameType::Heartbeat, 3, {});
  net::BeatVerdictMsg verdict;
  verdict.r_peak = 123456789;
  verdict.beat_class = 2;
  verdict.quality = 0;
  net::append_frame(bytes, FrameType::BeatVerdict, 0,
                    net::encode_beat_verdict(verdict));
  net::append_frame(bytes, FrameType::Bye, 0, {});

  EXPECT_EQ(bytes.size(), 1666u);
  EXPECT_EQ(fnv1a(bytes), 0x36F54ECB32F8D986ull);
}

/// A classifier that fixes the monitor's geometry (200-sample windows);
/// the monitor reports windows without classifying them.
embedded::EmbeddedClassifier window_geometry() {
  math::Rng rng(7);
  auto p = rp::make_achlioptas(8, 50, rng);
  nfc::NeuroFuzzyClassifier nfc(8);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t l = 0; l < 3; ++l)
      nfc.mf(i, l) = {rng.normal(0, 200), rng.uniform(5.0, 150.0)};
  return core::TrainedClassifier{rp::BeatProjector(std::move(p), 4),
                                 std::move(nfc), 0.25}
      .quantize();
}

TEST(WireGolden, EcgBytesArePinned) {
  // The bytes an ECG costs on the wire, as exact counts: each golden record
  // framed as 512-sample SAMPLE_CHUNKs, every window a monitor reports on
  // it framed as a FULL_BEAT, and every window the classifier flags (a
  // pathological or Unknown verdict) delineated on the monitor's buffer and
  // framed as the BEAT_SUMMARY a selective node sends. A change in these is
  // a change in what the link costs.
  const std::size_t pinned_chunk_bytes[] = {35787, 35372, 30780, 34136};
  const std::size_t pinned_window_bytes[] = {28101, 27065, 18142, 23241};
  const std::size_t pinned_windows[] = {174, 170, 122, 147};
  const std::size_t pinned_summary_bytes[] = {1611, 829, 1038, 12667};
  const std::size_t pinned_summaries[] = {18, 9, 12, 147};
  const auto clf = window_geometry();
  const delineation::Reach reach = delineation::reach();
  const net::SummaryLimits limits{clf.projector().downsampled_window(),
                                  reach.before, reach.after};
  std::vector<unsigned char> summaries_wire;
  for (std::size_t p = 0; p < std::size(golden::kProfiles); ++p) {
    const dsp::Signal codes = golden::record(golden::kProfiles[p]);
    std::size_t chunk_bytes = 0;
    const std::span<const dsp::Sample> all(codes);
    for (std::size_t off = 0; off < all.size(); off += 512) {
      const auto part =
          all.subspan(off, std::min<std::size_t>(512, all.size() - off));
      chunk_bytes += net::kHeaderBytes + net::encode_sample_chunk(part).size();
    }
    core::MonitorConfig mcfg;
    mcfg.quality = golden::full_scale_rails();
    core::StreamingBeatMonitor monitor(clf, mcfg);
    embedded::ClassifyScratch scratch;
    delineation::DelineationScratch ds;
    std::size_t window_bytes = 0, windows = 0, window_codes = 0;
    std::size_t summary_bytes = 0, summaries = 0;
    const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
      if (pb.window.empty()) return;
      window_bytes +=
          net::kHeaderBytes +
          net::encode_full_beat(net::FullBeatMsg{}, pb.window).size();
      window_codes += pb.window.size();
      ++windows;
      const ecg::BeatClass c = clf.classify_window(pb.window, scratch);
      if (!ecg::is_pathological(c)) return;
      net::BeatSummaryMsg m;
      m.r_peak = pb.beat.r_peak;
      m.beat_class = static_cast<std::uint8_t>(c);
      m.offsets = net::summary_offsets(
          delineation::delineate_beat(pb.context, pb.context_peak, {}, ds));
      const auto payload =
          net::encode_beat_summary(m, scratch.projection.downsampled);
      net::BeatSummaryMsg back;
      std::vector<dsp::Sample> back_codes;
      EXPECT_TRUE(net::decode_beat_summary(payload, limits, back, back_codes));
      net::append_frame(summaries_wire, FrameType::BeatSummary, summaries,
                        payload);
      summary_bytes += net::kHeaderBytes + payload.size();
      ++summaries;
    };
    monitor.push_block(all, sink);
    monitor.flush(sink);
    EXPECT_EQ(chunk_bytes, pinned_chunk_bytes[p]) << "profile " << p;
    EXPECT_EQ(window_bytes, pinned_window_bytes[p]) << "profile " << p;
    EXPECT_EQ(windows, pinned_windows[p]) << "profile " << p;
    EXPECT_EQ(summary_bytes, pinned_summary_bytes[p]) << "profile " << p;
    EXPECT_EQ(summaries, pinned_summaries[p]) << "profile " << p;
    // Frames, headers included, at most 7 bits per code.
    EXPECT_LE(8 * chunk_bytes, 7 * all.size()) << "profile " << p;
    EXPECT_LE(8 * window_bytes, 7 * window_codes) << "profile " << p;
    // A summary frame costs under two thirds of its window's frame.
    EXPECT_LT(3 * summary_bytes, 2 * window_bytes * summaries / windows)
        << "profile " << p;
  }
  // Every byte of every summary frame, fiducials and codes included.
  EXPECT_EQ(fnv1a(summaries_wire), 0xD3321B372C1B4A8Dull)
      << std::hex << "got 0x" << fnv1a(summaries_wire);
}

TEST(WireFrame, ParserRoundtripsFramesOfEveryType) {
  std::vector<unsigned char> bytes = hello_frame();
  const std::vector<dsp::Sample> codes = {10, 20, 30};
  net::append_frame(bytes, FrameType::SampleChunk, 0,
                    net::encode_sample_chunk(codes));
  net::append_frame(bytes, FrameType::Heartbeat, 5, {});
  net::append_frame(bytes, FrameType::Bye, 0, {});

  FrameParser p;
  ASSERT_TRUE(p.feed(bytes));
  FrameView f;
  ASSERT_EQ(p.next(f), FrameParser::Status::Ok);
  EXPECT_EQ(f.type, FrameType::Hello);
  ASSERT_EQ(p.next(f), FrameParser::Status::Ok);
  EXPECT_EQ(f.type, FrameType::SampleChunk);
  std::vector<dsp::Sample> out;
  ASSERT_TRUE(net::decode_sample_chunk(f.payload, out));
  EXPECT_EQ(out, codes);
  ASSERT_EQ(p.next(f), FrameParser::Status::Ok);
  EXPECT_EQ(f.type, FrameType::Heartbeat);
  EXPECT_EQ(f.seq, 5u);
  EXPECT_TRUE(f.payload.empty());
  ASSERT_EQ(p.next(f), FrameParser::Status::Ok);
  EXPECT_EQ(f.type, FrameType::Bye);
  EXPECT_EQ(p.next(f), FrameParser::Status::NeedMore);
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(WireFrame, ParserHandlesByteAtATimeDelivery) {
  std::vector<unsigned char> bytes = hello_frame();
  net::append_frame(bytes, FrameType::Heartbeat, 1, {});

  FrameParser p;
  FrameView f;
  std::size_t frames = 0;
  for (const unsigned char b : bytes) {
    ASSERT_TRUE(p.feed(std::span<const unsigned char>(&b, 1)));
    while (p.next(f) == FrameParser::Status::Ok) ++frames;
    ASSERT_FALSE(p.corrupt());
  }
  EXPECT_EQ(frames, 2u);
}

TEST(WireFrame, EveryFlippedBitIsCaughtAndSticky) {
  // A flip in a length byte can make the parser wait for a longer payload
  // instead of failing immediately (the bytes that follow get swallowed as
  // that phantom payload), so the invariant under test is: a corrupted
  // frame is NEVER accepted — no frame is produced, and once enough bytes
  // arrive the stream goes Corrupt and stays there.
  const std::vector<unsigned char> clean = hello_frame();
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    auto bytes = clean;
    bytes[byte] ^= 0x01;
    FrameParser p;
    ASSERT_TRUE(p.feed(bytes));
    FrameView f;
    std::size_t produced = 0;
    // Chase with pristine frames: more than any in-bounds phantom length
    // the single-bit flip could have demanded (11 + 2^16 would exceed the
    // payload bound and fail immediately).
    for (int i = 0; i < 40 && !p.corrupt(); ++i) {
      while (p.next(f) == FrameParser::Status::Ok) ++produced;
      if (p.corrupt()) break;
      auto more = hello_frame();
      if (!p.feed(more)) break;
    }
    while (p.next(f) == FrameParser::Status::Ok) ++produced;
    EXPECT_EQ(produced, 0u) << "flip in byte " << byte
                            << " let a corrupted frame through";
    EXPECT_TRUE(p.corrupt()) << "flip in byte " << byte;
    EXPECT_FALSE(p.error().empty());
    // Sticky: a pristine frame does not resurrect the stream.
    auto fresh = hello_frame();
    EXPECT_FALSE(p.feed(fresh));
    EXPECT_EQ(p.next(f), FrameParser::Status::Corrupt);
  }
}

TEST(WireFrame, TruncatedFrameStaysNeedMoreUntilCompleted) {
  const std::vector<unsigned char> bytes = hello_frame();
  FrameParser p;
  ASSERT_TRUE(p.feed(std::span<const unsigned char>(bytes.data(),
                                                    bytes.size() - 1)));
  FrameView f;
  EXPECT_EQ(p.next(f), FrameParser::Status::NeedMore);
  ASSERT_TRUE(p.feed(std::span<const unsigned char>(
      bytes.data() + bytes.size() - 1, 1)));
  EXPECT_EQ(p.next(f), FrameParser::Status::Ok);
  EXPECT_EQ(f.type, FrameType::Hello);
}

TEST(WireFrame, HostileLengthFieldIsRejectedBeforeBuffering) {
  auto bytes = hello_frame();
  // Rewrite payload_len to a huge value; CRC no longer matters because the
  // length bound fires first — the parser must not wait for 4 GiB.
  hbrp::math::store_le<std::uint32_t>(bytes.data() + 4, 0xFFFFFFFFu);
  FrameParser p;
  ASSERT_TRUE(p.feed(bytes));
  FrameView f;
  EXPECT_EQ(p.next(f), FrameParser::Status::Corrupt);
}

TEST(WireFrame, RetiredAckTypeIsUnknown) {
  // Type 7 carried v1's ACK; v2 assigns it nothing. An honestly framed,
  // CRC-valid type-7 frame is corrupt, and its neighbours still parse.
  for (const std::uint8_t type : {6, 7, 8}) {
    std::vector<unsigned char> bytes;
    net::append_frame(bytes, static_cast<FrameType>(type), 1, {});
    FrameParser p;
    ASSERT_TRUE(p.feed(bytes));
    FrameView f;
    EXPECT_EQ(p.next(f), type == 7 ? FrameParser::Status::Corrupt
                                   : FrameParser::Status::Ok)
        << int{type};
  }
}

TEST(WireFrame, UnknownTypeAndBadVersionAreCorrupt) {
  {
    auto bytes = hello_frame();
    bytes[3] = 0xEE;  // frame type
    // Type is CRC-protected, so this also breaks the CRC — but a parser
    // must reject it even with a fixed-up CRC. Rebuild the frame honestly:
    FrameParser p;
    ASSERT_TRUE(p.feed(bytes));
    FrameView f;
    EXPECT_EQ(p.next(f), FrameParser::Status::Corrupt);
  }
  // A v2 peer (12-bit packed samples) and a newer one are both refused.
  EXPECT_EQ(net::kProtocolVersion, 3);
  for (const int version : {net::kProtocolVersion - 1,
                            net::kProtocolVersion + 1}) {
    auto bytes = hello_frame();
    bytes[2] = static_cast<unsigned char>(version);
    FrameParser p;
    ASSERT_TRUE(p.feed(bytes));
    FrameView f;
    EXPECT_EQ(p.next(f), FrameParser::Status::Corrupt) << version;
    EXPECT_EQ(p.error(), "protocol version mismatch") << version;
  }
}

TEST(WireFrame, BacklogBoundStopsANeverCompletingPeer) {
  // A peer that streams plausible garbage without ever completing a frame
  // must hit the parser's backlog bound, not grow memory forever.
  FrameParser p;
  std::vector<unsigned char> junk(4096, 0xEC);
  bool ok = true;
  for (int i = 0; ok && i < 1024; ++i) ok = p.feed(junk);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(p.corrupt());
}

// --- seeded fuzz: the parser under adversarial byte streams --------------
// Invariants, regardless of input: next() never crashes, the buffered
// backlog never exceeds one max frame plus the feed slop, and once
// Corrupt the parser stays Corrupt (no resync on a byte stream).

/// Drains the parser, checking invariants; returns frames produced.
std::size_t drain_all(FrameParser& p) {
  std::size_t frames = 0;
  for (;;) {
    FrameView f;
    const auto st = p.next(f);
    if (st == FrameParser::Status::Ok) {
      ++frames;
      EXPECT_LE(f.payload.size(), net::kMaxPayloadBytes);
      continue;
    }
    if (st == FrameParser::Status::Corrupt) {
      EXPECT_TRUE(p.corrupt());
      FrameView again;
      EXPECT_EQ(p.next(again), FrameParser::Status::Corrupt) << "sticky";
    }
    return frames;
  }
}

TEST(WireFuzz, RandomTruncationAndConcatenationNeverCrashes) {
  math::Rng rng(20260808);
  for (int round = 0; round < 200; ++round) {
    // A legitimate multi-frame stream, truncated at a random byte and
    // re-fed in random fragment sizes.
    std::vector<unsigned char> stream;
    const auto frames = 1 + rng.uniform_index(4);
    for (std::uint64_t i = 0; i < frames; ++i) {
      const auto f = hello_frame(static_cast<std::uint32_t>(i));
      stream.insert(stream.end(), f.begin(), f.end());
    }
    const std::size_t cut = rng.uniform_index(stream.size() + 1);
    stream.resize(cut);

    FrameParser p;
    std::size_t off = 0, produced = 0;
    while (off < stream.size() && !p.corrupt()) {
      const std::size_t n = std::min<std::size_t>(
          1 + rng.uniform_index(64), stream.size() - off);
      ASSERT_TRUE(p.feed(std::span<const unsigned char>(stream)
                             .subspan(off, n)));
      off += n;
      produced += drain_all(p);
    }
    // A truncated tail is NeedMore, never Corrupt: every complete frame
    // before the cut must have been delivered.
    EXPECT_FALSE(p.corrupt());
    EXPECT_EQ(produced, cut / hello_frame().size());
    EXPECT_LE(p.buffered(), hello_frame().size());
  }
}

TEST(WireFuzz, RandomHeaderCorruptionIsCaughtOrHarmless) {
  math::Rng rng(97);
  const auto clean = hello_frame();
  for (int round = 0; round < 500; ++round) {
    auto bytes = clean;
    // Corrupt 1-4 random bits anywhere in the frame.
    const auto flips = 1 + rng.uniform_index(4);
    for (std::uint64_t i = 0; i < flips; ++i) {
      const std::size_t at = rng.uniform_index(bytes.size());
      bytes[at] = static_cast<unsigned char>(
          bytes[at] ^ (1u << rng.uniform_index(8)));
    }
    FrameParser p;
    FrameView f;
    if (!p.feed(bytes)) {
      EXPECT_TRUE(p.corrupt());  // hostile length rejected at feed time
      continue;
    }
    const auto st = p.next(f);
    if (st == FrameParser::Status::Ok) {
      // Only possible if the flips cancelled out to a valid CRC — with a
      // real CRC-32 that means the frame decoded identically.
      EXPECT_EQ(f.type, FrameType::Hello);
    } else if (st == FrameParser::Status::Corrupt) {
      FrameView again;
      EXPECT_EQ(p.next(again), FrameParser::Status::Corrupt) << "sticky";
      EXPECT_FALSE(p.error().empty());
    }
    // NeedMore is fine too (a length flip that still passes the bound
    // makes the parser wait for bytes that never come) — but it must not
    // have over-buffered while waiting.
    EXPECT_LE(p.buffered(), net::kHeaderBytes + net::kMaxPayloadBytes);
  }
}

TEST(WireFuzz, OversizedLengthFieldsNeverAllocate) {
  math::Rng rng(131);
  const auto clean = hello_frame();
  for (int round = 0; round < 200; ++round) {
    auto bytes = clean;
    // Write a hostile 32-bit length just past the bound, up to UINT32_MAX.
    const auto hostile = static_cast<std::uint32_t>(
        net::kMaxPayloadBytes + 1 +
        rng.uniform_index(0xFFFFFFFFu - net::kMaxPayloadBytes - 1));
    math::store_le<std::uint32_t>(&bytes[4], hostile);
    FrameParser p;
    const bool fed = p.feed(bytes);
    if (fed) {
      FrameView f;
      EXPECT_EQ(p.next(f), FrameParser::Status::Corrupt);
    }
    EXPECT_TRUE(p.corrupt());
    // The bound check fires before buffering grows toward the hostile
    // length: nothing beyond the bytes actually fed is ever retained.
    EXPECT_LE(p.buffered(), bytes.size());
  }
}

/// A payload decoder either rejects `payload` or decodes it to values that
/// re-encode to the identical bytes: no two byte strings mean one thing.
/// The summary decoder runs with the count the payload declares and a reach
/// no offset exceeds, so only the layout can reject it.
void expect_canonical(const std::vector<unsigned char>& payload) {
  std::vector<dsp::Sample> codes;
  if (net::decode_sample_chunk(payload, codes)) {
    EXPECT_EQ(net::encode_sample_chunk(codes), payload)
        << "chunk of " << payload.size() << " bytes";
  }
  net::FullBeatMsg m;
  std::vector<dsp::Sample> window;
  if (net::decode_full_beat(payload, m, window)) {
    EXPECT_EQ(m.count, window.size());
    EXPECT_EQ(net::encode_full_beat(m, window), payload)
        << "full beat of " << payload.size() << " bytes";
  }
  if (payload.size() < net::kFullBeatFixedBytes) return;
  const net::SummaryLimits any{
      math::load_le<std::uint16_t>(payload.data() + 10), 1u << 15, 1u << 15};
  if (any.codes == 0 || any.codes > net::kMaxWindowSamples) return;
  net::BeatSummaryMsg sm;
  if (net::decode_beat_summary(payload, any, sm, codes)) {
    EXPECT_EQ(sm.count, codes.size());
    EXPECT_EQ(net::encode_beat_summary(sm, codes), payload)
        << "summary of " << payload.size() << " bytes";
  }
}

/// Offsets of a delineation at 360 Hz: a QRS around the R peak, and a P
/// and a T wave each present or absent.
std::array<std::int16_t, net::kSummaryFiducials> draw_offsets(math::Rng& rng) {
  std::array<std::int16_t, net::kSummaryFiducials> o =
      net::BeatSummaryMsg{}.offsets;
  o[3] = static_cast<std::int16_t>(-static_cast<int>(rng.uniform_index(65)));
  o[4] = static_cast<std::int16_t>(rng.uniform_index(73));
  const auto wave = [&](std::size_t first, int lo, int hi) {
    if (rng.uniform_index(2) == 0) return;
    std::array<int, 3> v;
    do {
      for (int& x : v)
        x = lo + static_cast<int>(rng.uniform_index(
                     static_cast<std::uint64_t>(hi - lo + 1)));
      std::sort(v.begin(), v.end());
    } while (v[0] == v[1] || v[1] == v[2]);
    for (std::size_t i = 0; i < 3; ++i)
      o[first + i] = static_cast<std::int16_t>(v[i]);
  };
  wave(0, -115, o[3]);
  wave(5, o[4], 172);
  return o;
}

TEST(WireFuzz, PayloadDecodersAcceptOnlyCanonicalBytes) {
  math::Rng rng(1212);
  const auto random_bytes = [&rng](std::size_t n) {
    std::vector<unsigned char> v(n);
    for (auto& b : v) b = static_cast<unsigned char>(rng.uniform_index(256));
    return v;
  };
  // Random payloads of every length 0..1024.
  for (std::size_t len = 0; len <= 1024; ++len)
    expect_canonical(random_bytes(len));

  // Runs of ECG codes, so that mutations land on narrow blocks, width
  // nibbles and anchors, and of uniform codes (all width 12).
  const dsp::Signal ecg = golden::record(ecg::RecordProfile::PvcBigeminy);
  const auto draw_codes = [&](bool shaped) {
    std::vector<dsp::Sample> codes(1 + rng.uniform_index(600));
    if (shaped) {
      const std::size_t at = rng.uniform_index(ecg.size() - codes.size());
      std::copy_n(ecg.begin() + static_cast<std::ptrdiff_t>(at), codes.size(),
                  codes.begin());
    } else {
      for (auto& c : codes)
        c = static_cast<dsp::Sample>(rng.uniform_index(4096)) - 2048;
    }
    return codes;
  };
  enum Kind { kChunk, kFullBeat, kSummary };
  std::size_t mutated = 0, rejected = 0, summaries = 0;
  for (int round = 0; round < 9000; ++round) {
    const std::vector<dsp::Sample> codes = draw_codes(round % 4 != 3);
    const auto kind = static_cast<Kind>(round % 3);
    net::FullBeatMsg m;
    m.r_peak = rng.uniform_index(1u << 30);
    m.beat_class = static_cast<std::uint8_t>(rng.uniform_index(4));
    net::BeatSummaryMsg sm;
    sm.r_peak = m.r_peak;
    sm.beat_class = m.beat_class;
    sm.offsets = draw_offsets(rng);
    const net::SummaryLimits limits = summary_limits(codes.size());
    const std::size_t prefix = kind == kChunk      ? net::kChunkCountBytes
                               : kind == kFullBeat ? net::kFullBeatFixedBytes
                                                   : net::kBeatSummaryFixedBytes;
    auto payload = kind == kChunk      ? net::encode_sample_chunk(codes)
                   : kind == kFullBeat ? net::encode_full_beat(m, codes)
                                       : net::encode_beat_summary(sm, codes);
    PackedRun run = run_of(codes);
    const auto with_run = [&](const PackedRun& r) {
      auto p = std::vector<unsigned char>(payload.begin(),
                                          payload.begin() + prefix);
      const auto bytes = pack(r);
      p.insert(p.end(), bytes.begin(), bytes.end());
      return p;
    };
    const auto set_offset = [&](std::size_t i, std::int16_t v) {
      math::store_le(payload.data() + net::kFullBeatFixedBytes + 2 * i, v);
    };
    const std::size_t blocks = run.widths.size();
    // Whether the mutation must make the payload invalid.
    bool invalid = true;
    switch (round / 3 % (kind == kSummary ? 10 : 8)) {
      case 0: {  // 1-4 bit flips anywhere
        const auto flips = 1 + rng.uniform_index(4);
        for (std::uint64_t i = 0; i < flips; ++i) {
          const std::size_t at = rng.uniform_index(payload.size());
          payload[at] = static_cast<unsigned char>(
              payload[at] ^ (1u << rng.uniform_index(8)));
        }
        invalid = false;
        break;
      }
      case 1: {  // a width nibble of 13-15, its top bit used or not
        if (blocks == 0) continue;
        const std::size_t b = rng.uniform_index(blocks);
        run.widths[b] = 13 + static_cast<unsigned>(rng.uniform_index(3));
        if (rng.uniform_index(2) == 0)
          run.values[b * net::kBlockCodes] = 1u << (run.widths[b] - 1);
        payload = with_run(run);
        break;
      }
      case 2: {  // a width one above the minimum
        if (blocks == 0) continue;
        const std::size_t b = rng.uniform_index(blocks);
        if (run.widths[b] == 12) continue;
        ++run.widths[b];
        payload = with_run(run);
        break;
      }
      case 3: {  // a nonzero pad bit after the last block
        if (blocks == 0) continue;
        const std::size_t end = run_end_bit(run);
        if (end % 8 == 0) continue;
        const std::size_t bit =
            end + rng.uniform_index(8 - end % 8);
        payload[prefix + bit / 8] = static_cast<unsigned char>(
            payload[prefix + bit / 8] | (1u << (bit % 8)));
        break;
      }
      case 4:  // a nonzero pad nibble after an odd block count
        if (blocks % 2 == 0) continue;
        payload[prefix + 2 + blocks / 2] = static_cast<unsigned char>(
            payload[prefix + 2 + blocks / 2] |
            (0x10u << rng.uniform_index(4)));
        break;
      case 5:  // a nonzero anchor nibble
        payload[prefix + 1] = static_cast<unsigned char>(
            payload[prefix + 1] | (0x10u << rng.uniform_index(4)));
        break;
      case 6: {  // the count one off: may still spell a valid run
        const std::size_t at = kind == kChunk ? 0 : 10;
        const auto count = math::load_le<std::uint16_t>(payload.data() + at);
        math::store_le<std::uint16_t>(
            payload.data() + at,
            static_cast<std::uint16_t>(rng.uniform_index(2) == 0 ? count - 1
                                                                 : count + 1));
        invalid = kind == kSummary;  // the session fixes a summary's count
        break;
      }
      case 7:  // one byte short or one byte long
        if (rng.uniform_index(2) == 0)
          payload.pop_back();
        else
          payload.push_back(static_cast<unsigned char>(rng.uniform_index(256)));
        break;
      case 8: {  // a P or T wave partly present
        const std::size_t first = rng.uniform_index(2) == 0 ? 0 : 5;
        const std::size_t i = first + rng.uniform_index(3);
        set_offset(i, sm.offsets[first] == net::kAbsentOffset
                          ? static_cast<std::int16_t>(first == 0 ? -30 : 100)
                          : net::kAbsentOffset);
        break;
      }
      case 9: {  // a point past the R peak or the delineator's reach
        const auto by = static_cast<std::int16_t>(1 + rng.uniform_index(100));
        switch (rng.uniform_index(3)) {
          case 0:  // the QRS onset after the R peak
            set_offset(3, by);
            break;
          case 1:  // the first point before the reach
            set_offset(sm.offsets[0] == net::kAbsentOffset ? 3 : 0,
                       static_cast<std::int16_t>(-115 - by));
            break;
          default:  // the last point after it
            set_offset(sm.offsets[7] == net::kAbsentOffset ? 4 : 7,
                       static_cast<std::int16_t>(172 + by));
            break;
        }
        break;
      }
    }
    ++mutated;
    summaries += kind == kSummary;
    std::vector<dsp::Sample> out;
    net::FullBeatMsg got;
    net::BeatSummaryMsg got_summary;
    const bool accepted =
        kind == kChunk      ? net::decode_sample_chunk(payload, out)
        : kind == kFullBeat ? net::decode_full_beat(payload, got, out)
                            : net::decode_beat_summary(payload, limits,
                                                       got_summary, out);
    rejected += !accepted;
    if (invalid) {
      EXPECT_FALSE(accepted) << "round " << round;
    }
    expect_canonical(payload);
  }
  EXPECT_GT(mutated, 6000u);
  EXPECT_GT(summaries, 2000u);
  EXPECT_GT(rejected, mutated / 2);
}

TEST(WireFuzz, PureGarbageStreamsStayBounded) {
  math::Rng rng(777);
  for (int round = 0; round < 100; ++round) {
    FrameParser p;
    bool alive = true;
    for (int chunk = 0; alive && chunk < 64; ++chunk) {
      std::vector<unsigned char> junk(1 + rng.uniform_index(512));
      for (auto& b : junk)
        b = static_cast<unsigned char>(rng.uniform_index(256));
      alive = p.feed(junk);
      (void)drain_all(p);
      EXPECT_LE(p.buffered(),
                2 * (net::kHeaderBytes + net::kMaxPayloadBytes));
    }
  }
}

}  // namespace
