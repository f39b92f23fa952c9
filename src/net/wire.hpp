// WBSN wire protocol v3: versioned little-endian binary framing.
//
// The transport between a sensor node and the ward gateway. Every frame is
// a fixed 20-byte header followed by a bounded payload:
//
//   offset size field
//   0      2    magic 0xECB5
//   2      1    protocol version (kProtocolVersion)
//   3      1    frame type (FrameType)
//   4      4    payload length (bytes, <= kMaxPayloadBytes)
//   8      8    sequence number (meaning depends on the frame type)
//   16     4    CRC-32 over header bytes [0, 16) then the payload
//
// All multi-byte fields are little-endian via math/endian.hpp — the same
// audited codec lifecycle/bundle uses for model images. The CRC (the
// existing math::crc32) covers the length and sequence fields, so a
// corrupted header can never drive a bogus allocation or a silent seq jump;
// payload_len is additionally bounded before the CRC is even attempted so
// a hostile length cannot stall the parser waiting for gigabytes.
//
// Samples travel as 12-bit two's-complement codes in [kMinWireCode,
// kMaxWireCode], in one lossless block-delta layout shared by SAMPLE_CHUNK
// payloads, the FULL_BEAT window and the BEAT_SUMMARY's averaged codes. A
// run of n >= 1 codes x[0..n) is:
//   - the anchor: x[0] & 0xFFF as a little-endian u16 (top nibble zero);
//   - the widths, two per byte, low nibble first, with a zero pad nibble
//     after an odd block count. The n - 1 differences x[i] - x[i-1], taken
//     mod 2^12 and sign-extended to [-2048, 2047], are zigzag-coded (0,
//     -1, 1, -2, ... -> 0, 1, 2, 3, ...) and grouped in blocks of
//     kBlockCodes; a block's 4-bit width is the bit width of its largest
//     value (0..12);
//   - the blocks: each block's values packed LSB-first at its width, so a
//     full block is exactly 2 * width bytes; a short last block is padded
//     with zero bits to a byte.
// A run's size depends on its content; max_packed_sample_bytes(n) bounds
// it (12 bits per difference plus the anchor and the widths). Encoders
// reject a code outside the 12-bit range. Decoders accept only the one
// encoding of each run: they reject a width above 12 or one wider than its
// block's largest value, a nonzero pad nibble, pad bit or anchor nibble,
// and any length but the exact one. No frame depends on an earlier one.
// The node guarantees the range: raw codes are clamped to ADC rails inside
// it, and a conditioned window, and so each average of its codes, stays
// within +/-(rail_high - rail_low) <= 2047 (see SensorNodeClient).
//
// Frame types and their seq/payload contracts:
//   Hello        client -> gateway   seq 0; HelloMsg (node id, TxPolicy,
//                                    window length, sample rate)
//   HelloAck     gateway -> client   seq 0; HelloAckMsg (session id, status)
//   SampleChunk  client -> gateway   seq = dense chunk counter from 0; the
//                                    gateway rejects any gap or reorder.
//                                    Payload: a u16 count, 1..
//                                    kMaxChunkSamples, then one run of
//                                    that many codes.
//   BeatVerdict  gateway -> client   seq = per-session verdict sequence
//                                    (dense, the FleetEngine delivery
//                                    order contract); BeatVerdictMsg.
//                                    For an upload (FullBeat or
//                                    BeatSummary) it echoes the upload's
//                                    seq and is its only acknowledgement.
//   FullBeat     client -> gateway   seq = dense beat-upload counter;
//                                    FullBeatMsg (12 fixed bytes) + one run
//                                    of count window codes (none for count
//                                    0). A selective node sends one for a
//                                    drift escalation (the beat's shape) or
//                                    a Suspect beat (count 0, metadata
//                                    only). Resent after reconnect
//                                    until its BeatVerdict arrives
//                                    (at-least-once; the gateway
//                                    re-verdicts duplicates and the client
//                                    dedupes verdicts by seq).
//   BeatSummary  client -> gateway   seq = the same upload counter, with
//                                    the same delivery and ack as FullBeat;
//                                    a flagged beat the node delineated.
//                                    BeatSummaryMsg (28 fixed bytes:
//                                    r_peak, class, quality, count and the
//                                    eight other fiducials as int16 offsets
//                                    from r_peak, kAbsentOffset for a wave
//                                    not found) + one run of count averaged
//                                    codes, the window downsampled as the
//                                    classifier downsamples it. The decoder
//                                    takes the session's SummaryLimits: the
//                                    count must equal the model's codes per
//                                    window, the QRS onset and end bracket
//                                    r_peak, a P or T wave is present in
//                                    all three of its points or in none,
//                                    in order, and no point lies farther
//                                    from r_peak than a delineation reaches
//                                    or before sample 0.
//   Heartbeat    client -> gateway   seq = client's heartbeat counter;
//                                    empty payload; keeps an idle link
//                                    from being evicted. Not answered.
//   Bye          client -> gateway   graceful close: the gateway flushes
//                                    the session tail as BeatVerdict
//                                    frames, then closes the connection.
//   ModelPush    pusher -> gateway   seq 0; ModelPushMsg announces a
//                                    versioned model bundle upload: total
//                                    encoded size, content digest, chunk
//                                    size and part count. Must be the
//                                    FIRST frame of its connection — the
//                                    connection becomes a control channel
//                                    (no session is opened).
//   ModelPushPart pusher -> gateway  seq = dense part counter from 0; the
//                                    payload is the next raw slice of the
//                                    encoded bundle. The gateway rejects
//                                    any gap, reorder or overrun.
//   ModelAck     gateway -> pusher   seq 0; ModelAckMsg reports the push
//                                    outcome (Ok or a NACK reason) and the
//                                    bundle version it refers to.
// Type 7 is unassigned (v1's ACK frame); the parser rejects it like any
// other unknown type. Type 12 (BeatSummary) came after v3's other frames
// without a version bump: it changes no frame that existed before it.
//
// FrameParser is the receive side: feed() raw socket bytes, then pull
// complete frames with next(). It is incremental (handles any fragmentation
// TCP produces) and fails *sticky*: a bad magic, version, length or CRC
// marks the stream Corrupt and every later next() repeats that verdict —
// on a byte stream there is no trustworthy resynchronization point, so the
// connection must be torn down and re-established (the client's
// reconnect/backoff path).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsp/signal.hpp"
#include "ecg/types.hpp"

namespace hbrp::net {

inline constexpr std::uint16_t kWireMagic = 0xECB5;
inline constexpr std::uint8_t kProtocolVersion = 3;
inline constexpr std::size_t kHeaderBytes = 20;
/// Upper bound on one frame's payload; caps parser buffering and keeps a
/// corrupt length field from ever looking plausible. Large enough for a
/// FullBeat of kMaxWindowSamples plus its fixed fields.
inline constexpr std::size_t kMaxPayloadBytes = 1u << 16;
/// Bounds for the typed payloads (checked by the codecs on both sides).
inline constexpr std::size_t kMaxChunkSamples = 8192;
inline constexpr std::size_t kMaxWindowSamples = 4096;
/// Upper bound on one encoded model bundle streamed via MODEL_PUSH_PART
/// frames; caps the gateway's reassembly buffer per control connection.
inline constexpr std::size_t kMaxBundleBytes = 1u << 24;
/// The 12-bit two's-complement range every sample code on the wire has:
/// the code range of dsp/signal.hpp's contract.
inline constexpr dsp::Sample kMinWireCode = dsp::kMinCode;
inline constexpr dsp::Sample kMaxWireCode = dsp::kMaxCode;
/// Fixed payload sizes: HELLO, the SAMPLE_CHUNK count ahead of its run,
/// and the FULL_BEAT prefix (r_peak, class, quality, count) ahead of its
/// window's run.
inline constexpr std::size_t kHelloPayloadBytes = 4 + 1 + 2 + 4;
inline constexpr std::size_t kChunkCountBytes = 2;
inline constexpr std::size_t kFullBeatFixedBytes = 8 + 1 + 1 + 2;
/// Fiducials a BEAT_SUMMARY carries besides its R peak, in this order:
/// p_onset, p_peak, p_end, qrs_onset, qrs_end, t_onset, t_peak, t_end.
inline constexpr std::size_t kSummaryFiducials = 8;
/// The offset that marks a wave the delineator did not find.
inline constexpr std::int16_t kAbsentOffset = INT16_MIN;
/// The BEAT_SUMMARY prefix: FULL_BEAT's 12 fixed bytes, then the offsets.
inline constexpr std::size_t kBeatSummaryFixedBytes =
    kFullBeatFixedBytes + 2 * kSummaryFiducials;
/// Differences per block of a packed run: one 4-bit width each.
inline constexpr std::size_t kBlockCodes = 16;

/// Upper bound on the bytes a run of `n` codes packs into, whatever the
/// codes: the 2-byte anchor, a width nibble per block and 12 bits per
/// difference (12.25 bits per code plus a constant). A run's actual size
/// depends on its content; this is the bound for capacity limits.
constexpr std::size_t max_packed_sample_bytes(std::size_t n) {
  if (n == 0) return 0;
  const std::size_t diffs = n - 1;
  const std::size_t blocks = (diffs + kBlockCodes - 1) / kBlockCodes;
  return 2 + (blocks + 1) / 2 + (3 * diffs + 1) / 2;
}
static_assert(kChunkCountBytes + max_packed_sample_bytes(kMaxChunkSamples) <=
              kMaxPayloadBytes);
static_assert(kBeatSummaryFixedBytes +
                  max_packed_sample_bytes(kMaxWindowSamples) <=
              kMaxPayloadBytes);

enum class FrameType : std::uint8_t {
  Hello = 1,
  HelloAck = 2,
  SampleChunk = 3,
  BeatVerdict = 4,
  FullBeat = 5,
  Heartbeat = 6,
  Bye = 8,
  ModelPush = 9,
  ModelPushPart = 10,
  ModelAck = 11,
  BeatSummary = 12,
};

const char* to_string(FrameType t);

/// Node -> gateway transmission policy (the paper's energy knob).
enum class TxPolicy : std::uint8_t {
  /// Ship every raw sample; the gateway classifies (baseline system).
  StreamEverything = 0,
  /// Classify on the node; normal beats leave a 1-byte local record,
  /// pathological/Unknown beats upload their fiducials and averaged codes
  /// (proposed system).
  Selective = 1,
};

const char* to_string(TxPolicy p);

struct HelloMsg {
  std::uint32_t node_id = 0;
  TxPolicy policy = TxPolicy::StreamEverything;
  /// Beat window length the node classifies (and uploads in FullBeat
  /// frames); the gateway refuses a handshake whose window does not match
  /// its model.
  std::uint16_t window = 0;
  std::uint32_t fs_hz = 0;
};

enum class HelloStatus : std::uint8_t {
  Ok = 0,
  FleetFull = 1,     ///< admission control refused the session
  BadWindow = 2,     ///< window length does not match the gateway's model
  BadVersion = 3,    ///< protocol version mismatch
};

const char* to_string(HelloStatus s);

struct HelloAckMsg {
  std::uint64_t session = 0;
  HelloStatus status = HelloStatus::Ok;
};

struct BeatVerdictMsg {
  std::uint64_t r_peak = 0;
  std::uint8_t beat_class = 0;  ///< ecg::BeatClass
  std::uint8_t quality = 0;     ///< dsp::SignalQuality
};

/// Fixed prefix of a FullBeat payload; `count` window samples follow.
struct FullBeatMsg {
  std::uint64_t r_peak = 0;
  std::uint8_t beat_class = 0;  ///< node's local verdict (ecg::BeatClass)
  std::uint8_t quality = 0;     ///< dsp::SignalQuality at the beat
  std::uint16_t count = 0;      ///< window samples in this frame (0 when the
                                ///< signal was Suspect: escalation metadata
                                ///< only, no trustworthy window exists)
};

/// Fixed prefix of a BeatSummary payload; `count` averaged codes follow.
/// The default describes a QRS at the R peak and no P or T wave.
struct BeatSummaryMsg {
  std::uint64_t r_peak = 0;
  std::uint8_t beat_class = 0;  ///< node's local verdict (ecg::BeatClass)
  std::uint8_t quality = 0;     ///< dsp::SignalQuality at the beat
  std::uint16_t count = 0;      ///< averaged codes in this frame
  /// Each fiducial's signed offset from r_peak in samples, in the order of
  /// kSummaryFiducials, or kAbsentOffset.
  std::array<std::int16_t, kSummaryFiducials> offsets = {
      kAbsentOffset, kAbsentOffset, kAbsentOffset, 0, 0,
      kAbsentOffset, kAbsentOffset, kAbsentOffset};
};

/// What a gateway session accepts in a BeatSummary: its model's averaged
/// codes per window (window length / downsample factor), and how far
/// before and after the R peak a delineation can place a fiducial
/// (delineation::reach at the session's rate).
struct SummaryLimits {
  std::size_t codes = 0;
  std::size_t before = 0;
  std::size_t after = 0;
};

/// The offsets of `f`'s fiducials from its R peak. Throws hbrp::Error when
/// one does not fit an int16 beside kAbsentOffset.
std::array<std::int16_t, kSummaryFiducials> summary_offsets(
    const ecg::Fiducials& f);
/// The fiducials a summary describes, as sample indices.
ecg::Fiducials summary_fiducials(const BeatSummaryMsg& m);

/// Announces a model-bundle upload (first frame of a control connection).
/// `digest` is the FNV-1a 64-bit digest of the full encoded bundle image;
/// the gateway recomputes it over the reassembled parts before trusting
/// the payload, independently of the per-frame CRCs.
struct ModelPushMsg {
  std::uint64_t version = 0;      ///< bundle's monotonic version
  std::uint64_t total_bytes = 0;  ///< encoded bundle size (<= kMaxBundleBytes)
  std::uint64_t digest = 0;       ///< content digest of the encoded image
  std::uint32_t part_count = 0;   ///< MODEL_PUSH_PART frames that follow
  std::uint32_t chunk_bytes = 0;  ///< size of every part but the last
};

/// Push outcome. Everything except Ok is a NACK: the gateway keeps serving
/// the incumbent model and the pusher must not assume any session swapped.
enum class ModelPushStatus : std::uint8_t {
  Ok = 0,
  Malformed = 1,     ///< announcement/payload failed structural validation
  BadDigest = 2,     ///< reassembled bytes do not match the announced digest
  Duplicate = 3,     ///< version already registered with different content
  Downgrade = 4,     ///< version is older than the active bundle
  BadGeometry = 5,   ///< window, coefficient count or downsample factor
                     ///< differs from the incumbent's
  TooLarge = 6,      ///< announced size exceeds kMaxBundleBytes
  RegistryFull = 7,  ///< all registry slots are pinned or active
};

const char* to_string(ModelPushStatus s);

struct ModelAckMsg {
  ModelPushStatus status = ModelPushStatus::Ok;
  std::uint64_t version = 0;  ///< bundle version the verdict refers to
};

/// One complete, CRC-verified frame as surfaced by FrameParser::next().
/// `payload` views the parser's buffer and is valid only until the next
/// feed()/next() call — decode or copy before continuing.
struct FrameView {
  FrameType type = FrameType::Heartbeat;
  std::uint64_t seq = 0;
  std::span<const unsigned char> payload;
};

// --- encode --------------------------------------------------------------

/// Appends one complete frame (header + payload + CRC) to `out`.
void append_frame(std::vector<unsigned char>& out, FrameType type,
                  std::uint64_t seq, std::span<const unsigned char> payload);

std::vector<unsigned char> encode_hello(const HelloMsg& m);
std::vector<unsigned char> encode_hello_ack(const HelloAckMsg& m);
std::vector<unsigned char> encode_beat_verdict(const BeatVerdictMsg& m);
std::vector<unsigned char> encode_model_push(const ModelPushMsg& m);
std::vector<unsigned char> encode_model_ack(const ModelAckMsg& m);
/// SampleChunk payload: the count, then `samples` as one packed run
/// (1..kMaxChunkSamples codes). Throws hbrp::Error when a code lies outside
/// [kMinWireCode, kMaxWireCode].
std::vector<unsigned char> encode_sample_chunk(
    std::span<const dsp::Sample> samples);
/// FullBeat payload: fixed fields + `window` as one packed run
/// (<= kMaxWindowSamples; `m.count` is overwritten with window.size()).
/// Throws hbrp::Error when a code lies outside [kMinWireCode, kMaxWireCode].
std::vector<unsigned char> encode_full_beat(
    FullBeatMsg m, std::span<const dsp::Sample> window);
/// BeatSummary payload: fixed fields + `codes` as one packed run
/// (1..kMaxWindowSamples codes; `m.count` is overwritten with
/// codes.size()). Throws hbrp::Error when a code lies outside the 12-bit
/// range or the offsets are not a delineation's shape (see above).
std::vector<unsigned char> encode_beat_summary(
    BeatSummaryMsg m, std::span<const dsp::Sample> codes);

// --- decode --------------------------------------------------------------
// Strict: the payload must have exactly the expected size, counts within
// their bounds and a run in its one canonical encoding (see above); anything
// else returns nullopt/false and the caller treats the frame as a protocol
// violation.

std::optional<HelloMsg> decode_hello(std::span<const unsigned char> payload);
std::optional<HelloAckMsg> decode_hello_ack(
    std::span<const unsigned char> payload);
std::optional<BeatVerdictMsg> decode_beat_verdict(
    std::span<const unsigned char> payload);
std::optional<ModelPushMsg> decode_model_push(
    std::span<const unsigned char> payload);
std::optional<ModelAckMsg> decode_model_ack(
    std::span<const unsigned char> payload);
/// Appends the chunk's samples to `out`; false, with `out` unchanged, on a
/// malformed payload.
bool decode_sample_chunk(std::span<const unsigned char> payload,
                         std::vector<dsp::Sample>& out);
/// Decodes the fixed fields and fills `window`; false on malformed payload.
bool decode_full_beat(std::span<const unsigned char> payload, FullBeatMsg& m,
                      std::vector<dsp::Sample>& window);
/// Decodes the fixed fields and fills `codes`; false on a malformed payload
/// or one outside `limits`, whose `codes` must lie in
/// [1, kMaxWindowSamples] (else hbrp::Error: a caller's bug, not the
/// peer's).
bool decode_beat_summary(std::span<const unsigned char> payload,
                         const SummaryLimits& limits, BeatSummaryMsg& m,
                         std::vector<dsp::Sample>& codes);

// --- incremental receive -------------------------------------------------

class FrameParser {
 public:
  enum class Status : std::uint8_t {
    Ok,        ///< a frame was produced
    NeedMore,  ///< no complete frame buffered yet
    Corrupt,   ///< stream is unrecoverable (sticky; see error())
  };

  /// Appends raw received bytes. Returns false (and goes Corrupt) if the
  /// unconsumed backlog would exceed the parser's bound — a peer that
  /// never completes a frame cannot grow the buffer without limit.
  bool feed(std::span<const unsigned char> bytes);

  /// Extracts the next complete frame into `out` (payload views internal
  /// storage; valid until the next feed()/next()).
  Status next(FrameView& out);

  bool corrupt() const { return corrupt_; }
  const std::string& error() const { return error_; }

  /// Unconsumed buffered bytes (diagnostics / tests).
  std::size_t buffered() const { return buf_.size() - head_; }

 private:
  Status fail(const char* reason);

  std::vector<unsigned char> buf_;
  std::size_t head_ = 0;
  bool corrupt_ = false;
  std::string error_;
};

}  // namespace hbrp::net
