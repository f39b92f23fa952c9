// Tests for net/wire.hpp — framing, typed codecs (the 12-bit packed sample
// layout included), the incremental FrameParser (fragmentation tolerance,
// strict corruption handling), and a golden digest of the v2 bytes.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

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

TEST(WireCodec, DecodersRejectWrongSizes) {
  const auto hello = net::encode_hello(net::HelloMsg{});
  auto shorter = hello;
  shorter.pop_back();
  EXPECT_FALSE(net::decode_hello(shorter).has_value());
  auto longer = hello;
  longer.push_back(0);
  EXPECT_FALSE(net::decode_hello(longer).has_value());

  // A SampleChunk length of 1 mod 3 belongs to no packed count.
  std::vector<unsigned char> ragged(7, 0);
  std::vector<dsp::Sample> out;
  EXPECT_FALSE(net::decode_sample_chunk(ragged, out));
  EXPECT_FALSE(net::decode_sample_chunk({}, out));  // empty chunk is invalid

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

TEST(WireCodec, EveryTwelveBitCodeRoundTripsAtEveryPosition) {
  const std::vector<dsp::Sample> codes = all_codes();
  // A leading pad of 0 or 1 codes puts each code in the low and the high
  // half of a pair, at an even (4096) and an odd (4097) count.
  for (const std::size_t lead : {0u, 1u}) {
    std::vector<dsp::Sample> in(lead, 7);
    in.insert(in.end(), codes.begin(), codes.end());
    const auto payload = net::encode_sample_chunk(in);
    EXPECT_EQ(payload.size(), net::packed_sample_bytes(in.size()));
    std::vector<dsp::Sample> out = {-1};  // decode appends
    ASSERT_TRUE(net::decode_sample_chunk(payload, out));
    ASSERT_EQ(out.size(), in.size() + 1);
    EXPECT_TRUE(std::equal(in.begin(), in.end(), out.begin() + 1))
        << "lead " << lead;

    // A window of 4096 - lead codes: an even and an odd count.
    const std::vector<dsp::Sample> window(
        in.begin(), in.begin() + static_cast<std::ptrdiff_t>(
                                     net::kMaxWindowSamples - lead));
    net::FullBeatMsg m;
    const auto beat = net::encode_full_beat(m, window);
    EXPECT_EQ(beat.size(), net::kFullBeatFixedBytes +
                               net::packed_sample_bytes(window.size()));
    std::vector<dsp::Sample> got;
    ASSERT_TRUE(net::decode_full_beat(beat, m, got));
    EXPECT_EQ(got, window) << "lead " << lead;
  }
  // The odd last code, alone in its 16-bit word.
  for (const dsp::Sample c : codes) {
    const std::vector<dsp::Sample> one = {c};
    const auto payload = net::encode_sample_chunk(one);
    ASSERT_EQ(payload.size(), 2u);
    std::vector<dsp::Sample> out;
    ASSERT_TRUE(net::decode_sample_chunk(payload, out));
    ASSERT_EQ(out, one);
    net::FullBeatMsg m;
    std::vector<dsp::Sample> got;
    ASSERT_TRUE(net::decode_full_beat(net::encode_full_beat(m, one), m, got));
    ASSERT_EQ(got, one);
  }
}

TEST(WireCodec, PackedLayoutIsTheDocumentedBitPattern) {
  // (a, b) -> little-endian (a & 0xFFF) | (b & 0xFFF) << 12; an odd last
  // code -> little-endian 16 bits, top nibble zero.
  const std::vector<dsp::Sample> codes = {-1, 0x123, -2048, 2047, -2};
  const std::vector<unsigned char> want = {0xFF, 0x3F, 0x12, 0x00,
                                           0xF8, 0x7F, 0xFE, 0x0F};
  EXPECT_EQ(net::encode_sample_chunk(codes), want);
}

TEST(WireCodec, PackedDecodersRejectMalformedPayloads) {
  std::vector<dsp::Sample> out = {42};
  // Lengths of 1 mod 3 map to no count.
  for (std::size_t len = 1; len < 64; len += 3)
    EXPECT_FALSE(net::decode_sample_chunk(
        std::vector<unsigned char>(len, 0), out))
        << len;
  // A nonzero pad nibble on the odd last code, at every bit of it.
  const std::vector<dsp::Sample> three = {1, -2, 3};
  const auto clean = net::encode_sample_chunk(three);
  ASSERT_EQ(clean.size(), 5u);
  for (int bit = 4; bit < 8; ++bit) {
    auto bad = clean;
    bad[4] = static_cast<unsigned char>(bad[4] | (1u << bit));
    EXPECT_FALSE(net::decode_sample_chunk(bad, out)) << bit;
  }
  EXPECT_EQ(out, std::vector<dsp::Sample>{42}) << "a failed decode appended";
  // Counts above the bounds, at lengths that match them exactly.
  const std::vector<unsigned char> at_max(
      net::packed_sample_bytes(net::kMaxChunkSamples), 0);
  EXPECT_TRUE(net::decode_sample_chunk(at_max, out));
  const std::vector<unsigned char> over_max(
      net::packed_sample_bytes(net::kMaxChunkSamples + 1), 0);
  EXPECT_FALSE(net::decode_sample_chunk(over_max, out));

  net::FullBeatMsg m;
  std::vector<dsp::Sample> window;
  auto beat = net::encode_full_beat(m, three);
  beat.back() = static_cast<unsigned char>(beat.back() | 0x80u);
  EXPECT_FALSE(net::decode_full_beat(beat, m, window));
  EXPECT_TRUE(window.empty());
  for (const std::size_t len : {4u, 6u, 7u}) {
    // count 3 packs into exactly 5 bytes.
    beat.assign(net::kFullBeatFixedBytes + len, 0);
    math::store_le<std::uint16_t>(beat.data() + 10, 3);
    EXPECT_FALSE(net::decode_full_beat(beat, m, window)) << len;
  }
  const auto over = static_cast<std::uint16_t>(net::kMaxWindowSamples + 1);
  beat.assign(net::kFullBeatFixedBytes + net::packed_sample_bytes(over), 0);
  math::store_le<std::uint16_t>(beat.data() + 10, over);
  EXPECT_FALSE(net::decode_full_beat(beat, m, window));
  math::store_le<std::uint16_t>(
      beat.data() + 10, static_cast<std::uint16_t>(net::kMaxWindowSamples));
  beat.resize(net::kFullBeatFixedBytes +
              net::packed_sample_bytes(net::kMaxWindowSamples));
  EXPECT_TRUE(net::decode_full_beat(beat, m, window));
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
  for (const std::size_t n : {1u, 2u, 199u, 200u, 511u, 512u}) {
    const std::vector<dsp::Sample> codes(n, -5);
    EXPECT_EQ(frame_size(FrameType::SampleChunk,
                         net::encode_sample_chunk(codes)),
              net::sample_chunk_frame_bytes(n));
    EXPECT_EQ(frame_size(FrameType::FullBeat,
                         net::encode_full_beat(net::FullBeatMsg{}, codes)),
              net::full_beat_frame_bytes(n));
  }
  EXPECT_EQ(net::full_beat_frame_bytes(0), 32u);
  EXPECT_EQ(frame_size(FrameType::Hello, net::encode_hello(net::HelloMsg{})),
            net::kHeaderBytes + net::kHelloPayloadBytes);
  EXPECT_EQ(net::sample_chunk_frame_bytes(512), 788u);
  EXPECT_EQ(net::full_beat_frame_bytes(200), 332u);
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

TEST(WireGolden, V2FrameSequenceDigestIsPinned) {
  // Pins the exact v2 bytes: a change here is a wire change, and must come
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

  EXPECT_EQ(bytes.size(), (net::kHeaderBytes + net::kHelloPayloadBytes) +
                              net::sample_chunk_frame_bytes(512) +
                              net::sample_chunk_frame_bytes(511) +
                              net::full_beat_frame_bytes(200) +
                              net::full_beat_frame_bytes(0) +
                              net::kHeaderBytes + (net::kHeaderBytes + 10) +
                              net::kHeaderBytes);
  EXPECT_EQ(bytes.size(), 2040u);
  EXPECT_EQ(fnv1a(bytes), 0x66925950232A80E2ull);
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
  {
    auto bytes = hello_frame();
    bytes[2] = net::kProtocolVersion + 1;
    FrameParser p;
    ASSERT_TRUE(p.feed(bytes));
    FrameView f;
    EXPECT_EQ(p.next(f), FrameParser::Status::Corrupt);
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
}

TEST(WireFuzz, PayloadDecodersAcceptOnlyCanonicalBytes) {
  math::Rng rng(1212);
  const auto random_bytes = [&rng](std::size_t n) {
    std::vector<unsigned char> v(n);
    for (auto& b : v) b = static_cast<unsigned char>(rng.uniform_index(256));
    return v;
  };
  // Random payloads of every length 0..1024.
  for (std::size_t len = 0; len <= 1024; ++len) {
    auto payload = random_bytes(len);
    expect_canonical(payload);
    // Give the FULL_BEAT decoder a count that matches the length, so it
    // gets past the size check and reaches the packed codes.
    if (len >= net::kFullBeatFixedBytes) {
      const std::size_t body = len - net::kFullBeatFixedBytes;
      if (body % 3 != 1) {
        math::store_le<std::uint16_t>(
            payload.data() + 10,
            static_cast<std::uint16_t>(body / 3 * 2 + body % 3 / 2));
        expect_canonical(payload);
      }
    }
  }
  // 1-4 bit flips of valid payloads.
  for (int round = 0; round < 2000; ++round) {
    std::vector<dsp::Sample> codes(1 + rng.uniform_index(600));
    for (auto& c : codes)
      c = static_cast<dsp::Sample>(rng.uniform_index(4096)) - 2048;
    net::FullBeatMsg m;
    m.r_peak = rng.uniform_index(1u << 30);
    m.beat_class = static_cast<std::uint8_t>(rng.uniform_index(4));
    auto payload = round % 2 == 0 ? net::encode_sample_chunk(codes)
                                  : net::encode_full_beat(m, codes);
    const auto flips = 1 + rng.uniform_index(4);
    for (std::uint64_t i = 0; i < flips; ++i) {
      const std::size_t at = rng.uniform_index(payload.size());
      payload[at] = static_cast<unsigned char>(
          payload[at] ^ (1u << rng.uniform_index(8)));
    }
    expect_canonical(payload);
  }
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
