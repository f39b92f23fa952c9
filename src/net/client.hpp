// net::SensorNodeClient — the node side of the WBSN link.
//
// A step-driven, non-blocking TCP client implementing the paper's
// selective-transmission policy, the headline of the whole methodology:
// classify on the node, and spend radio energy only where it buys clinical
// value. Two policies, chosen at handshake:
//
//   StreamEverything  every pushed ADC code, clamped to the rails, is
//                     framed into SAMPLE_CHUNK uploads, delta-coded at
//                     ~6.5 bits per ECG code; the gateway's FleetEngine
//                     classifies and streams BEAT_VERDICT frames back.
//                     The baseline system, and the path whose verdict
//                     sequence must be bit-identical to direct in-process
//                     ingest.
//   Selective         the node runs its own core::StreamingBeatMonitor
//                     (same fault-tolerant pipeline the gateway would run).
//                     A beat classified normal on Good signal becomes a
//                     1-byte verdict record in the local log — zero radio.
//                     A pathological or Unknown beat is delineated on the
//                     node (delineation::delineate_beat over the monitor's
//                     rolling buffer) and uploads as a BEAT_SUMMARY: its
//                     nine fiducials and the window's averaged codes, which
//                     the classifier already computed (a 20 B header, 28
//                     fixed bytes and the delta-coded codes: ~90 B a frame
//                     for a 200-sample ECG window at 4x downsampling, 126 B
//                     at most), so the gateway re-classifies it with its
//                     own model. A drift escalation uploads the full window
//                     as FULL_BEAT (12 fixed bytes + the delta-coded
//                     window: ~170 B a frame, 340 B at most), since it is
//                     the beat's shape the gateway has not seen; a
//                     Suspect-signal beat uploads a
//                     0-sample FULL_BEAT escalation record (no trustworthy
//                     window).
//
// Link robustness: connect/reconnect with exponential backoff (reset on a
// successful handshake), heartbeats on an idle link, and at-least-once
// upload delivery. Each upload (BEAT_SUMMARY or FULL_BEAT, one seq space)
// is held once, with its frame type, in a seq-ordered window,
// until its BEAT_VERDICT (its only acknowledgement), and every connection
// sends it in ascending seq ahead of the send queue. A full window drops
// its oldest upload, counted once no verdict can come for it, so every
// upload ends as one verdict or one drop. The send queue (chunks,
// heartbeats, BYE) sheds its oldest chunks and heartbeats first, counted.
// The gateway re-verdicts duplicates and the client dedupes verdicts by
// upload seq, so a connection drop between an upload's receipt and its
// verdict can neither lose a pathological beat's verdict nor deliver it
// twice.
// A CRC/framing violation on the receive path is treated exactly like a
// dead socket: tear down, back off, reconnect.
//
// Every byte and every decision is accounted in TxStats, which feeds the
// paper's transmission-energy model directly: radio_energy_j() converts
// bytes actually transmitted into joules via platform::PowerModel, and
// bench_net reports the selective-vs-everything bytes-on-wire ratio.
//
// Threading: not thread-safe; one owner drives push()/poll_once()/close().
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/streaming.hpp"
#include "delineation/mmd.hpp"
#include "drift/tracker.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "platform/energy.hpp"

namespace hbrp::net {

struct NodeConfig {
  /// Gateway port on 127.0.0.1.
  std::uint16_t port = 0;
  std::uint32_t node_id = 0;
  TxPolicy policy = TxPolicy::StreamEverything;
  std::uint32_t fs_hz = 360;
  /// Local pipeline geometry (selective policy) and the ADC rails that
  /// streamed codes are clamped to. The rails must lie in [kMinWireCode,
  /// kMaxWireCode] and span at most kMaxWireCode codes, so every framed
  /// code fits the wire's 12-bit range.
  core::MonitorConfig monitor;
  /// Samples per SAMPLE_CHUNK frame.
  std::size_t chunk_samples = 512;
  /// Cap on send-queue bytes (sample chunks, heartbeats, BYE; never
  /// uploads). Overflow sheds the oldest chunks and heartbeats, counted.
  std::size_t send_buffer_cap = 1u << 20;
  /// Retransmit window: the only store of uploads (BEAT_SUMMARY and
  /// FULL_BEAT alike), each held until its verdict. When full, the oldest
  /// is dropped, counted.
  std::size_t max_unacked_full_beats = 256;
  int heartbeat_interval_ms = 1000;
  int backoff_initial_ms = 10;
  int backoff_max_ms = 2000;
  /// Give up on a handshake (connect or HELLO_ACK) after this long and
  /// retry with backoff.
  int handshake_timeout_ms = 2000;
  /// Opt-in drift-triggered escalation (selective policy): when set, every
  /// locally classified beat is observed by a drift::DriftTracker seeded
  /// from these centroids, and a *novel* normal+Good beat — which the
  /// selective policy would otherwise reduce to one local byte — is
  /// escalated as a FULL_BEAT upload of its window so the gateway sees the
  /// unfamiliar waveform. Escalations ride the existing unacked/verdict-as-ack
  /// machinery, so they survive reconnects without duplicate gateway
  /// counting.
  std::shared_ptr<const drift::TrainingCentroids> drift_centroids;
  drift::DriftConfig drift;
  /// Rate limit: at least this many observed beats between two drift
  /// escalations (beat-count based, so behavior is deterministic under
  /// replay; 0 = every novel normal beat escalates).
  std::uint64_t drift_min_gap_beats = 8;
};

/// Per-link transmission accounting (single-writer: the driving thread).
struct TxStats {
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_rx = 0;
  /// Sample chunks and heartbeats shed by send-buffer overflow, chunks lost
  /// with a dead link, and uploads that left a full retransmit window and
  /// can no longer be answered.
  std::uint64_t frames_dropped = 0;
  std::uint64_t retransmits = 0;     ///< FULL_BEAT resends after reconnect
  std::uint64_t reconnects = 0;      ///< successful re-handshakes after a drop
  std::uint64_t parse_rejects = 0;   ///< CRC/framing violations received
  std::uint64_t hello_rejects = 0;   ///< handshakes refused by the gateway
  std::uint64_t samples_in = 0;      ///< samples pushed by the application
  /// StreamEverything: codes pushed outside the rails, clamped before
  /// framing (the gateway's monitor would clamp them the same way).
  std::uint64_t samples_clamped = 0;
  std::uint64_t beats_local = 0;     ///< normal beats kept as local records
  /// Local records that left a full log to make room (oldest first).
  std::uint64_t local_records_dropped = 0;
  /// Uploads created: BEAT_SUMMARY and FULL_BEAT frames.
  std::uint64_t beats_uploaded = 0;
  /// Flagged beats delineated and uploaded as BEAT_SUMMARY (a subset of
  /// beats_uploaded; the rest are FULL_BEATs).
  std::uint64_t beats_summarized = 0;
  std::uint64_t verdicts_rx = 0;     ///< unique verdicts delivered to the sink
  std::uint64_t verdict_seq_gaps = 0;
  /// Selective only: repeated verdicts for an already-delivered upload seq
  /// (at-least-once retransmission + the gateway's dup re-verdict), dropped
  /// before the sink.
  std::uint64_t verdict_dups = 0;
  /// Normal+Good beats uploaded as FULL_BEAT because the drift tracker
  /// flagged them novel (subset of beats_uploaded).
  std::uint64_t drift_escalations = 0;
};

/// Radio energy implied by this link's transmitted bytes (paper §IV-E):
/// the per-byte cost already amortizes protocol overhead, so bytes_tx is
/// exactly the quantity the model prices.
inline double radio_energy_j(const TxStats& s,
                             const platform::PowerModel& power) {
  return static_cast<double>(s.bytes_tx) * power.radio_j_per_byte;
}

enum class LinkState : std::uint8_t {
  Idle,         ///< not connected, ready to attempt
  Connecting,   ///< non-blocking connect in flight
  AwaitAck,     ///< HELLO sent, waiting for HELLO_ACK
  Established,  ///< handshake accepted; traffic flows
  Backoff,      ///< waiting out the reconnect delay
  Closed,       ///< close() completed; no further attempts
};

const char* to_string(LinkState s);

class SensorNodeClient {
 public:
  /// Called for every BEAT_VERDICT received (gateway classifications in
  /// StreamEverything, upload confirmations in Selective).
  using VerdictSink =
      std::function<void(std::uint64_t seq, const BeatVerdictMsg&)>;

  SensorNodeClient(embedded::EmbeddedClassifier classifier, NodeConfig cfg);

  SensorNodeClient(const SensorNodeClient&) = delete;
  SensorNodeClient& operator=(const SensorNodeClient&) = delete;

  void set_verdict_sink(VerdictSink sink) { on_verdict_ = std::move(sink); }

  /// Feeds ADC codes into the node pipeline (policy-dependent fate). A
  /// driver that hands up doubles converts them at its own edge with
  /// dsp::sanitize_sample / dsp::sanitize_lead, the one double-to-code
  /// rule, so the codes on the wire equal what a direct in-process
  /// session is offered.
  void push(dsp::Sample x);
  /// A double is not a code; see above.
  void push(double x) = delete;
  void push(std::span<const dsp::Sample> xs);

  /// Flushes the local pipeline tail (selective) or the partial staged
  /// chunk (stream mode) into the send queue. Idempotent.
  void finish();

  /// One link step: state machine + socket I/O, waiting at most
  /// `timeout_ms` for readiness. Returns true if anything progressed
  /// (bytes moved, frames handled, state changed).
  bool poll_once(int timeout_ms);

  /// Polls until every queued frame is on the wire and every FULL_BEAT is
  /// acked, or `deadline_ms` elapses. True on full drain.
  bool drain(int deadline_ms);

  /// finish() + drain + BYE + read the verdict tail until the gateway
  /// closes (bounded by `deadline_ms`). The link ends in Closed.
  void close(int deadline_ms);

  LinkState state() const { return state_; }
  bool established() const { return state_ == LinkState::Established; }
  const TxStats& stats() const { return stats_; }
  /// Records the local log holds at most: about an hour of beats at
  /// 72 bpm, 4 KB of the node's RAM. Past it the oldest records leave,
  /// counted in TxStats::local_records_dropped.
  static constexpr std::size_t kLocalLogRecords = 4096;
  /// One byte per normal beat kept on the node: class in the low 2 bits,
  /// SignalQuality in the next 2 — the paper's "verdict record". The
  /// newest kLocalLogRecords of them, oldest first.
  std::vector<std::uint8_t> local_log() const;
  /// The node's drift tracker (nullptr when drift escalation is off).
  const drift::DriftTracker* drift_tracker() const {
    return drift_.has_value() ? &*drift_ : nullptr;
  }
  /// Frame bytes not yet on the wire: uploads this connection has not sent,
  /// the send queue, and the rest of a partially written frame.
  std::size_t pending_bytes() const;
  std::size_t unacked_full_beats() const { return unacked_.size(); }

  /// dsp::sanitize_sample for one value, counting non-finite ones. `last`
  /// is the sample-hold. Kept for the end-to-end benchmark, which builds
  /// its codes with it; new code calls dsp::sanitize_sample directly.
  static dsp::Sample sanitize(double x, const dsp::QualityConfig& rails,
                              dsp::Sample& last,
                              std::uint64_t* nonfinite_count);

 private:
  using Clock = std::chrono::steady_clock;

  /// A sample chunk, heartbeat or BYE. Its seq is assigned when it is sent,
  /// so shed frames never leave a gap in the dense chunk numbering.
  struct QueuedFrame {
    FrameType type = FrameType::Heartbeat;
    std::vector<unsigned char> payload;
  };
  /// A held upload: its frame type (BeatSummary or FullBeat) and payload.
  struct Upload {
    FrameType type = FrameType::FullBeat;
    std::vector<unsigned char> payload;
  };

  void on_pending_beat(const core::PendingBeat& pb);
  /// Delineates a flagged beat and encodes its BEAT_SUMMARY, with the
  /// averaged codes classify_window just left in scratch_.
  std::vector<unsigned char> summarize(const core::PendingBeat& pb,
                                       std::uint8_t cls,
                                       std::uint8_t quality);
  void log_local(std::uint8_t record);
  void stage_stream_sample(dsp::Sample x);
  void flush_stage(bool final_partial);
  void enqueue(FrameType type, std::vector<unsigned char> payload);
  bool fill_wire_out();
  bool step_link(Clock::time_point now, int timeout_ms);
  bool pump_io(Clock::time_point now, int timeout_ms);
  void handle_frame(const FrameView& f);
  /// Selective verdict dedup: true exactly once per upload seq. Seen seqs
  /// compact into a contiguous prefix (uploads are densely numbered from
  /// 0), so the set only holds the out-of-order window.
  bool mark_verdict_seen(std::uint64_t seq);
  void on_established(Clock::time_point now);
  void disconnect(Clock::time_point now, bool backoff);
  void send_hello();

  embedded::EmbeddedClassifier classifier_;
  embedded::ClassifyScratch scratch_;
  NodeConfig cfg_;
  delineation::DelineatorConfig delineator_;
  delineation::DelineationScratch delineation_scratch_;
  std::optional<core::StreamingBeatMonitor> monitor_;  // selective only
  core::PendingBeatSink pending_sink_;
  std::optional<drift::DriftTracker> drift_;  // opt-in novelty escalation
  std::uint64_t last_escalation_beat_ = 0;    // drift_->beats() at last one

  // Ingest staging (stream mode).
  std::vector<dsp::Sample> stage_;
  bool finished_ = false;

  // Send side.
  std::deque<QueuedFrame> sendq_;
  std::size_t sendq_bytes_ = 0;
  std::vector<unsigned char> wire_out_;
  std::size_t wire_head_ = 0;
  std::uint64_t next_chunk_seq_ = 0;
  std::uint64_t next_beat_seq_ = 0;
  std::uint64_t next_heartbeat_seq_ = 0;
  // The retransmit window: uploads by seq, until their verdict.
  std::map<std::uint64_t, Upload> unacked_;
  std::uint64_t upload_cursor_ = 0;  // lowest seq this connection may send
  std::uint64_t sent_below_ = 0;     // seqs below it were sent: resends

  // Receive side.
  FrameParser parser_;
  std::uint64_t next_verdict_seq_ = 0;
  std::uint64_t verdict_seen_below_ = 0;      // selective dedup watermark
  std::set<std::uint64_t> verdict_seen_;      // seen seqs >= the watermark
  VerdictSink on_verdict_;

  // Link state machine.
  Socket sock_;
  LinkState state_ = LinkState::Idle;
  Clock::time_point state_since_{};
  Clock::time_point next_attempt_{};
  Clock::time_point last_tx_{};
  int backoff_ms_ = 0;
  bool closing_ = false;
  bool bye_sent_ = false;
  bool peer_closed_ = false;
  bool ever_established_ = false;

  TxStats stats_;
  // The local log: a ring of kLocalLogRecords once full, whose oldest
  // record sits at log_head_.
  std::vector<std::uint8_t> local_log_;
  std::size_t log_head_ = 0;
};

}  // namespace hbrp::net
