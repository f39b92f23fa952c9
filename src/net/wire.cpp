#include "net/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "math/check.hpp"
#include "math/crc32.hpp"
#include "math/endian.hpp"

namespace hbrp::net {

namespace {

using math::append_le;
using math::ByteReader;
using math::load_le;
using math::store_le;

bool valid_type(std::uint8_t t) {
  // 7 is unassigned: the numbers around it kept their v1 values.
  return t >= static_cast<std::uint8_t>(FrameType::Hello) &&
         t <= static_cast<std::uint8_t>(FrameType::ModelAck) && t != 7;
}

/// Zigzag code of the difference cur - prev, both 12-bit fields, taken mod
/// 2^12 and read as [-2048, 2047]: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
std::uint32_t zigzag_diff(std::uint32_t prev, std::uint32_t cur) {
  const std::uint32_t d = (cur - prev) & 0xFFFu;
  return ((d << 1) ^ (0u - (d >> 11))) & 0xFFFu;
}

/// The 12-bit field of a code.
std::uint32_t field(dsp::Sample c) {
  return static_cast<std::uint32_t>(c) & 0xFFFu;
}

/// Sign-extends a 12-bit two's-complement field.
dsp::Sample from_12bit(std::uint32_t v) {
  return static_cast<dsp::Sample>(static_cast<std::int32_t>(v ^ 0x800u) -
                                  0x800);
}

/// Differences in block `b` of a run with `diffs` differences.
std::size_t block_len(std::size_t diffs, std::size_t b) {
  return std::min(kBlockCodes, diffs - b * kBlockCodes);
}

/// Bytes a block of `len` values at `width` bits occupies.
std::size_t block_bytes(std::size_t len, unsigned width) {
  return (len * width + 7) / 8;
}

constexpr std::size_t kMaxBlocks = kMaxChunkSamples / kBlockCodes;
static_assert(kMaxWindowSamples <= kMaxChunkSamples);

/// Appends `codes` (1..kMaxChunkSamples of them) as one block-delta run
/// (see wire.hpp): the one encoder behind SAMPLE_CHUNK and the FULL_BEAT
/// window. Sizes the run exactly before writing it.
void append_codes(std::vector<unsigned char>& p,
                  std::span<const dsp::Sample> codes) {
  for (const dsp::Sample c : codes)
    HBRP_REQUIRE(c >= kMinWireCode && c <= kMaxWireCode,
                 "wire: sample code outside the 12-bit range");
  const std::size_t diffs = codes.size() - 1;
  const std::size_t blocks = (diffs + kBlockCodes - 1) / kBlockCodes;
  std::array<std::uint8_t, kMaxBlocks> widths;
  std::size_t bytes = 2 + (blocks + 1) / 2;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * kBlockCodes + 1;
    const std::size_t len = block_len(diffs, b);
    std::uint32_t any = 0;
    for (std::size_t i = first; i < first + len; ++i)
      any |= zigzag_diff(field(codes[i - 1]), field(codes[i]));
    widths[b] = static_cast<std::uint8_t>(std::bit_width(any));
    bytes += block_bytes(len, widths[b]);
  }
  const std::size_t at = p.size();
  p.resize(at + bytes);
  unsigned char* out = p.data() + at;
  store_le<std::uint16_t>(out, static_cast<std::uint16_t>(field(codes[0])));
  out += 2;
  for (std::size_t b = 0; b < blocks; b += 2)
    *out++ = static_cast<unsigned char>(
        widths[b] | (b + 1 < blocks ? widths[b + 1] << 4 : 0));
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * kBlockCodes + 1;
    const std::size_t len = block_len(diffs, b);
    const unsigned width = widths[b];
    // LSB-first bit stream; whole bytes leave as they fill.
    std::uint64_t acc = 0;
    unsigned bits = 0;
    for (std::size_t i = first; i < first + len; ++i) {
      acc |= std::uint64_t{zigzag_diff(field(codes[i - 1]), field(codes[i]))}
             << bits;
      bits += width;
      if (bits >= 32) {
        store_le<std::uint32_t>(out, static_cast<std::uint32_t>(acc));
        out += 4;
        acc >>= 32;
        bits -= 32;
      }
    }
    for (; bits > 0; bits = bits > 8 ? bits - 8 : 0) {
      *out++ = static_cast<unsigned char>(acc & 0xFFu);
      acc >>= 8;
    }
  }
}

/// Little-endian 32 bits at `p`, spelled as one expression so the compiler
/// fuses it into a single load (load_le's byte loop stays four loads).
std::uint32_t load32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// The run layout's inverse: `count` (>= 1) codes from exactly `in` into
/// `out`. False when `in` is not the one encoding of a run of `count`
/// codes; `out` may then hold partial output.
bool unpack_codes(std::span<const unsigned char> in, std::size_t count,
                  dsp::Sample* out) {
  const std::size_t diffs = count - 1;
  const std::size_t blocks = (diffs + kBlockCodes - 1) / kBlockCodes;
  const std::size_t head = 2 + (blocks + 1) / 2;
  if (in.size() < head) return false;
  const unsigned char* widths = in.data() + 2;
  std::size_t bytes = head;
  for (std::size_t b = 0; b < blocks; ++b) {
    const unsigned width = (widths[b / 2] >> (4 * (b % 2))) & 0xFu;
    if (width > 12) return false;
    bytes += block_bytes(block_len(diffs, b), width);
  }
  if (blocks % 2 != 0 && (widths[blocks / 2] >> 4) != 0) return false;
  const auto anchor = load_le<std::uint16_t>(in.data());
  if (in.size() != bytes || (anchor & 0xF000u) != 0) return false;

  std::uint32_t x = anchor;
  out[0] = from_12bit(x);
  const unsigned char* blk = in.data() + head;
  // Value j of a block sits at bit j * width; a 32-bit load at its byte
  // covers it (shift <= 7, width <= 12). Near the end of the payload a
  // block is read from a zero-padded copy, so no load leaves `in`.
  std::array<unsigned char, 2 * kBlockCodes + 4> pad;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t len = block_len(diffs, b);
    const unsigned width = (widths[b / 2] >> (4 * (b % 2))) & 0xFu;
    const std::size_t nbytes = block_bytes(len, width);
    const unsigned char* src = blk;
    if (static_cast<std::size_t>(in.data() + in.size() - blk) < pad.size()) {
      pad.fill(0);
      std::copy(blk, blk + nbytes, pad.begin());
      src = pad.data();
    }
    const std::uint32_t mask = (1u << width) - 1;
    std::uint32_t any = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t bit = j * width;
      const std::uint32_t z = (load32(src + bit / 8) >> (bit % 8)) & mask;
      any |= z;
      x += (z >> 1) ^ (0u - (z & 1u));
      out[b * kBlockCodes + 1 + j] = from_12bit(x & 0xFFFu);
    }
    // Minimal width: some value uses the top bit. Pad bits are zero.
    if (static_cast<unsigned>(std::bit_width(any)) != width) return false;
    const std::size_t used = len * width;
    if (used % 8 != 0 && (blk[nbytes - 1] >> (used % 8)) != 0) return false;
    blk += nbytes;
  }
  return true;
}

/// CRC over the first 16 header bytes (magic through seq) continued over
/// the payload — one definition shared by append_frame and the parser.
std::uint32_t frame_crc(const unsigned char* header,
                        std::span<const unsigned char> payload) {
  std::uint32_t crc = math::crc32(header, kHeaderBytes - 4);
  if (!payload.empty()) crc = math::crc32(payload.data(), payload.size(), crc);
  return crc;
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "HELLO";
    case FrameType::HelloAck: return "HELLO_ACK";
    case FrameType::SampleChunk: return "SAMPLE_CHUNK";
    case FrameType::BeatVerdict: return "BEAT_VERDICT";
    case FrameType::FullBeat: return "FULL_BEAT";
    case FrameType::Heartbeat: return "HEARTBEAT";
    case FrameType::Bye: return "BYE";
    case FrameType::ModelPush: return "MODEL_PUSH";
    case FrameType::ModelPushPart: return "MODEL_PUSH_PART";
    case FrameType::ModelAck: return "MODEL_ACK";
  }
  return "?";
}

const char* to_string(ModelPushStatus s) {
  switch (s) {
    case ModelPushStatus::Ok: return "ok";
    case ModelPushStatus::Malformed: return "malformed";
    case ModelPushStatus::BadDigest: return "bad-digest";
    case ModelPushStatus::Duplicate: return "duplicate-version";
    case ModelPushStatus::Downgrade: return "downgrade";
    case ModelPushStatus::BadGeometry: return "bad-geometry";
    case ModelPushStatus::TooLarge: return "too-large";
    case ModelPushStatus::RegistryFull: return "registry-full";
  }
  return "?";
}

const char* to_string(TxPolicy p) {
  switch (p) {
    case TxPolicy::StreamEverything: return "stream-everything";
    case TxPolicy::Selective: return "selective";
  }
  return "?";
}

const char* to_string(HelloStatus s) {
  switch (s) {
    case HelloStatus::Ok: return "ok";
    case HelloStatus::FleetFull: return "fleet-full";
    case HelloStatus::BadWindow: return "bad-window";
    case HelloStatus::BadVersion: return "bad-version";
  }
  return "?";
}

void append_frame(std::vector<unsigned char>& out, FrameType type,
                  std::uint64_t seq, std::span<const unsigned char> payload) {
  HBRP_REQUIRE(payload.size() <= kMaxPayloadBytes,
               "wire: frame payload exceeds kMaxPayloadBytes");
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes);
  unsigned char* h = out.data() + at;
  store_le<std::uint16_t>(h, kWireMagic);
  h[2] = kProtocolVersion;
  h[3] = static_cast<std::uint8_t>(type);
  store_le<std::uint32_t>(h + 4, static_cast<std::uint32_t>(payload.size()));
  store_le<std::uint64_t>(h + 8, seq);
  store_le<std::uint32_t>(h + 16, frame_crc(h, payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<unsigned char> encode_hello(const HelloMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, m.node_id);
  append_le(p, static_cast<std::uint8_t>(m.policy));
  append_le(p, m.window);
  append_le(p, m.fs_hz);
  return p;
}

std::vector<unsigned char> encode_hello_ack(const HelloAckMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, m.session);
  append_le(p, static_cast<std::uint8_t>(m.status));
  return p;
}

std::vector<unsigned char> encode_beat_verdict(const BeatVerdictMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, m.r_peak);
  append_le(p, m.beat_class);
  append_le(p, m.quality);
  return p;
}

std::vector<unsigned char> encode_model_push(const ModelPushMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, m.version);
  append_le(p, m.total_bytes);
  append_le(p, m.digest);
  append_le(p, m.part_count);
  append_le(p, m.chunk_bytes);
  return p;
}

std::vector<unsigned char> encode_model_ack(const ModelAckMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, static_cast<std::uint8_t>(m.status));
  append_le(p, m.version);
  return p;
}

std::vector<unsigned char> encode_sample_chunk(
    std::span<const dsp::Sample> samples) {
  HBRP_REQUIRE(samples.size() <= kMaxChunkSamples,
               "wire: sample chunk exceeds kMaxChunkSamples");
  HBRP_REQUIRE(!samples.empty(), "wire: sample chunk must not be empty");
  std::vector<unsigned char> p;
  append_le(p, static_cast<std::uint16_t>(samples.size()));
  append_codes(p, samples);
  return p;
}

std::vector<unsigned char> encode_full_beat(
    FullBeatMsg m, std::span<const dsp::Sample> window) {
  HBRP_REQUIRE(window.size() <= kMaxWindowSamples,
               "wire: beat window exceeds kMaxWindowSamples");
  m.count = static_cast<std::uint16_t>(window.size());
  std::vector<unsigned char> p;
  append_le(p, m.r_peak);
  append_le(p, m.beat_class);
  append_le(p, m.quality);
  append_le(p, m.count);
  if (!window.empty()) append_codes(p, window);
  return p;
}

std::optional<HelloMsg> decode_hello(std::span<const unsigned char> payload) {
  if (payload.size() != kHelloPayloadBytes) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  HelloMsg m;
  m.node_id = r.get<std::uint32_t>();
  const auto policy = r.get<std::uint8_t>();
  if (policy > static_cast<std::uint8_t>(TxPolicy::Selective))
    return std::nullopt;
  m.policy = static_cast<TxPolicy>(policy);
  m.window = r.get<std::uint16_t>();
  m.fs_hz = r.get<std::uint32_t>();
  return m;
}

std::optional<HelloAckMsg> decode_hello_ack(
    std::span<const unsigned char> payload) {
  if (payload.size() != 8 + 1) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  HelloAckMsg m;
  m.session = r.get<std::uint64_t>();
  const auto status = r.get<std::uint8_t>();
  if (status > static_cast<std::uint8_t>(HelloStatus::BadVersion))
    return std::nullopt;
  m.status = static_cast<HelloStatus>(status);
  return m;
}

std::optional<BeatVerdictMsg> decode_beat_verdict(
    std::span<const unsigned char> payload) {
  if (payload.size() != 8 + 1 + 1) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  BeatVerdictMsg m;
  m.r_peak = r.get<std::uint64_t>();
  m.beat_class = r.get<std::uint8_t>();
  m.quality = r.get<std::uint8_t>();
  return m;
}

std::optional<ModelPushMsg> decode_model_push(
    std::span<const unsigned char> payload) {
  if (payload.size() != 8 + 8 + 8 + 4 + 4) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  ModelPushMsg m;
  m.version = r.get<std::uint64_t>();
  m.total_bytes = r.get<std::uint64_t>();
  m.digest = r.get<std::uint64_t>();
  m.part_count = r.get<std::uint32_t>();
  m.chunk_bytes = r.get<std::uint32_t>();
  return m;
}

std::optional<ModelAckMsg> decode_model_ack(
    std::span<const unsigned char> payload) {
  if (payload.size() != 1 + 8) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  const auto status = r.get<std::uint8_t>();
  if (status > static_cast<std::uint8_t>(ModelPushStatus::RegistryFull))
    return std::nullopt;
  ModelAckMsg m;
  m.status = static_cast<ModelPushStatus>(status);
  m.version = r.get<std::uint64_t>();
  return m;
}

bool decode_sample_chunk(std::span<const unsigned char> payload,
                         std::vector<dsp::Sample>& out) {
  if (payload.size() < kChunkCountBytes) return false;
  const std::size_t count = load_le<std::uint16_t>(payload.data());
  if (count == 0 || count > kMaxChunkSamples) return false;
  const std::size_t at = out.size();
  out.resize(at + count);
  if (!unpack_codes(payload.subspan(kChunkCountBytes), count,
                    out.data() + at)) {
    out.resize(at);
    return false;
  }
  return true;
}

bool decode_full_beat(std::span<const unsigned char> payload, FullBeatMsg& m,
                      std::vector<dsp::Sample>& window) {
  if (payload.size() < kFullBeatFixedBytes) return false;
  ByteReader r(payload.data(), payload.size());
  m.r_peak = r.get<std::uint64_t>();
  m.beat_class = r.get<std::uint8_t>();
  m.quality = r.get<std::uint8_t>();
  m.count = r.get<std::uint16_t>();
  if (m.count > kMaxWindowSamples) return false;
  window.resize(m.count);
  if (m.count == 0) return r.remaining() == 0;
  if (!unpack_codes(payload.subspan(kFullBeatFixedBytes), m.count,
                    window.data())) {
    window.clear();
    return false;
  }
  return true;
}

bool FrameParser::feed(std::span<const unsigned char> bytes) {
  if (corrupt_) return false;
  // One frame can occupy at most kHeaderBytes + kMaxPayloadBytes; double
  // that bounds any legitimate backlog mid-frame plus a full queued frame.
  constexpr std::size_t kMaxBacklog = 2 * (kHeaderBytes + kMaxPayloadBytes);
  if (buffered() + bytes.size() > kMaxBacklog) {
    fail("receive backlog exceeded");
    return false;
  }
  // Compact before growing: keeps the buffer from creeping even when the
  // consumer always drains everything.
  if (head_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  return true;
}

FrameParser::Status FrameParser::fail(const char* reason) {
  corrupt_ = true;
  error_ = reason;
  return Status::Corrupt;
}

FrameParser::Status FrameParser::next(FrameView& out) {
  if (corrupt_) return Status::Corrupt;
  const std::size_t avail = buffered();
  if (avail < kHeaderBytes) return Status::NeedMore;
  const unsigned char* h = buf_.data() + head_;
  if (load_le<std::uint16_t>(h) != kWireMagic) return fail("bad frame magic");
  if (h[2] != kProtocolVersion) return fail("protocol version mismatch");
  if (!valid_type(h[3])) return fail("unknown frame type");
  const auto payload_len = load_le<std::uint32_t>(h + 4);
  if (payload_len > kMaxPayloadBytes) return fail("implausible payload length");
  if (avail < kHeaderBytes + payload_len) return Status::NeedMore;
  const std::span<const unsigned char> payload(h + kHeaderBytes, payload_len);
  if (load_le<std::uint32_t>(h + 16) != frame_crc(h, payload))
    return fail("frame checksum mismatch");
  out.type = static_cast<FrameType>(h[3]);
  out.seq = load_le<std::uint64_t>(h + 8);
  out.payload = payload;
  head_ += kHeaderBytes + payload_len;
  return Status::Ok;
}

}  // namespace hbrp::net
