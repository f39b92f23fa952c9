#include "net/wire.hpp"

#include <cstring>

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

/// Appends `codes` in the packed 12-bit layout (see wire.hpp): the one
/// encoder behind SAMPLE_CHUNK and the FULL_BEAT window.
void append_codes(std::vector<unsigned char>& p,
                  std::span<const dsp::Sample> codes) {
  for (const dsp::Sample c : codes)
    HBRP_REQUIRE(c >= kMinWireCode && c <= kMaxWireCode,
                 "wire: sample code outside the 12-bit range");
  const std::size_t at = p.size();
  p.resize(at + packed_sample_bytes(codes.size()));
  unsigned char* out = p.data() + at;
  std::size_t i = 0;
  for (; i + 1 < codes.size(); i += 2, out += 3) {
    const std::uint32_t word =
        (static_cast<std::uint32_t>(codes[i]) & 0xFFFu) |
        (static_cast<std::uint32_t>(codes[i + 1]) & 0xFFFu) << 12;
    out[0] = static_cast<unsigned char>(word & 0xFFu);
    out[1] = static_cast<unsigned char>((word >> 8) & 0xFFu);
    out[2] = static_cast<unsigned char>(word >> 16);
  }
  if (i < codes.size())
    store_le<std::uint16_t>(out, static_cast<std::uint16_t>(codes[i] & 0xFFF));
}

/// Sign-extends a 12-bit two's-complement field.
dsp::Sample from_12bit(std::uint32_t v) {
  return static_cast<dsp::Sample>(static_cast<std::int32_t>(v ^ 0x800u) -
                                  0x800);
}

/// The packed layout's inverse: `count` codes from exactly
/// packed_sample_bytes(count) bytes at `in` into `out`. False, with `out`
/// untouched, when an odd last code's pad nibble is not zero.
bool unpack_codes(const unsigned char* in, std::size_t count,
                  dsp::Sample* out) {
  if (count % 2 != 0 &&
      (load_le<std::uint16_t>(in + count / 2 * 3) & 0xF000u) != 0)
    return false;
  std::size_t i = 0;
  for (; i + 1 < count; i += 2, in += 3) {
    const std::uint32_t word = static_cast<std::uint32_t>(in[0]) |
                               static_cast<std::uint32_t>(in[1]) << 8 |
                               static_cast<std::uint32_t>(in[2]) << 16;
    out[i] = from_12bit(word & 0xFFFu);
    out[i + 1] = from_12bit(word >> 12);
  }
  if (i < count) out[i] = from_12bit(load_le<std::uint16_t>(in));
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
  std::vector<unsigned char> p;
  append_codes(p, samples);
  return p;
}

std::vector<unsigned char> encode_full_beat(
    FullBeatMsg m, std::span<const dsp::Sample> window) {
  HBRP_REQUIRE(window.size() <= kMaxWindowSamples,
               "wire: beat window exceeds kMaxWindowSamples");
  m.count = static_cast<std::uint16_t>(window.size());
  std::vector<unsigned char> p;
  p.reserve(kFullBeatFixedBytes + packed_sample_bytes(window.size()));
  append_le(p, m.r_peak);
  append_le(p, m.beat_class);
  append_le(p, m.quality);
  append_le(p, m.count);
  append_codes(p, window);
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
  // 3 bytes per pair plus 2 for an odd last code: a length of 1 mod 3
  // belongs to no count.
  if (payload.size() % 3 == 1) return false;
  const std::size_t count = payload.size() / 3 * 2 + payload.size() % 3 / 2;
  if (count == 0 || count > kMaxChunkSamples) return false;
  const std::size_t at = out.size();
  out.resize(at + count);
  if (!unpack_codes(payload.data(), count, out.data() + at)) {
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
  if (r.remaining() != packed_sample_bytes(m.count)) return false;
  window.resize(m.count);
  if (!unpack_codes(r.bytes(r.remaining()), m.count, window.data())) {
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
