// net::GatewayServer — the ward-side collector behind the wire protocol.
//
// An N-reactor, non-blocking TCP server that terminates the WBSN link
// layer and maps every connection onto one service::FleetEngine session:
//
//   socket bytes -> FrameParser -> dispatch:
//     HELLO        open a fleet session (admission-controlled), HELLO_ACK
//     SAMPLE_CHUNK seq-checked, decoded, engine.offer() on the session's
//                  bounded ingest queue (integer path, no double copy)
//     FULL_BEAT    node-side escalation with the beat's window: it is
//                  re-classified with the gateway's own model and answered
//                  with a BEAT_VERDICT, the upload's only acknowledgement
//                  (at-least-once from the client; a duplicate seq is
//                  re-verdicted from its own payload — deterministic, so
//                  bit-identical — but not re-counted, because the first
//                  verdict may have died with a previous connection and
//                  the client holds the upload until one arrives)
//     BEAT_SUMMARY a flagged beat's fiducials and averaged codes, checked
//                  against the session's SummaryLimits and classified from
//                  the codes under the session's current model: the same
//                  upload seq space, dup guard and verdict-as-ack as
//                  FULL_BEAT, and the verdict the full window would get
//     HEARTBEAT    counted; refreshes the idle clock, never answered
//     BYE          graceful close: the session tail is flushed as verdicts,
//                  the send buffer drains, then the socket closes
//     MODEL_PUSH   first frame of a *control* connection (never mixed with
//                  a data session): announces a versioned ModelBundle that
//                  then streams in MODEL_PUSH_PART chunks. The reassembled
//                  image is digest-checked end-to-end, decoded, admitted
//                  into the BundleRegistry and — on success — hot-swapped
//                  into the live fleet (every session, or only arm B when
//                  an A/B split is enabled). Every outcome is answered
//                  with a MODEL_ACK carrying a ModelPushStatus; a NACKed
//                  push leaves the active model and all data traffic
//                  untouched.
//
// Reactor sharding: connections are distributed round-robin across
// `reactors` event loops (epoll(7) on Linux, poll(2) fallback — see
// EventPoller), each running on its own thread under serve(). Reactor r
// owns its connections outright — sockets, parsers, send buffers, the
// upload classify scratch — and pumps exactly FleetEngine shard r,
// where every one of its sessions is pinned (stable shard affinity at
// HELLO). One reactor step is: adopt handed-over connections, retry
// deferred ingest, wait for readiness, accept (reactor 0 only) + read +
// dispatch, one FleetEngine::pump_shard(r), flush writes, reap dead
// connections. Reactors never serialize on each other: the engine's
// in-order delivery phase is serial only *within* a shard.
//
// Verdict ordering is unchanged by the reactor count: a session's verdicts
// are produced by its own shard's serial delivery phase, so the frames
// appended to each connection's send buffer inherit the per-session dense
// sequence contract — and because each session's schedule is deterministic
// for any thread/shard/reactor count, the verdict byte stream a client
// receives is bit-identical to what direct in-process ingest of the same
// samples would produce (test_net_loopback, test_net_reactor and bench_net
// gate on exactly this).
//
// Backpressure is end-to-end and lossless on the ingest side: when a
// session's bounded queue defers part of a chunk, the remainder parks in
// the connection and the socket is NOT read again until it drains — TCP
// flow control then pushes back on the node. On the egress
// side the send buffer is capped; a client that stops reading its verdicts
// is dropped rather than allowed to grow the gateway without bound.
//
// Protocol violations (CRC/magic/version failures, sequence gaps, oversized
// frames, a first frame that is neither HELLO nor MODEL_PUSH, control
// frames on a data connection or vice versa) tear the connection down and
// close its session without delivering the tail — the peer is untrusted
// from that point. Every such event is counted in GatewayStats.
//
// Idle behavior: a reactor whose step moved no frames backs its wait
// timeout off exponentially (5 ms up to ~320 ms, bounded by the idle
// eviction cadence), so an idle gateway burns no measurable CPU; any
// readiness event (or stop(), via the reactor's wake pipe) interrupts the
// wait immediately. Idle-expired waits are counted in
// GatewayStats::idle_wakeups.
//
// Threading: serve() runs one thread per reactor (the calling thread is
// reactor 0) and returns after stop(). poll_once() instead steps every
// reactor once on the calling thread — the single-threaded mode tests and
// step-driven drivers use; do not mix it with a live serve(). All
// cross-reactor state is explicitly synchronized: the per-node FULL_BEAT
// escalation map (a node may reconnect onto a different reactor) is
// mutex-guarded, handed-over sockets go through a per-reactor locked
// inbox, and GatewayStats counters are relaxed atomics so any thread may
// watch them — and stop() may be called from anywhere — while the loops
// run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "delineation/mmd.hpp"
#include "embedded/bundle.hpp"
#include "lifecycle/ab.hpp"
#include "lifecycle/registry.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/fleet.hpp"

namespace hbrp::net {

struct GatewayConfig {
  /// Listen port on 127.0.0.1 (0 = ephemeral; read back via port()).
  std::uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 64;
  /// Per-connection cap on buffered outbound bytes; exceeding it drops the
  /// connection (a verdict stream cannot be shed without breaking the
  /// dense-sequence contract, so a non-reading client must go).
  std::size_t send_buffer_cap = 4u << 20;
  /// Drop a connection silent for longer than this (0 = disabled). The
  /// client's heartbeat interval must be comfortably shorter.
  int idle_timeout_ms = 0;
  /// Reactor (event-loop) threads. Connections are sharded round-robin
  /// across reactors and each reactor pumps its own FleetEngine shard
  /// (fleet.shards is forced to match, fleet.threads to 1 — the reactors
  /// themselves are the parallelism). 0 = one per hardware thread.
  std::size_t reactors = 1;
  /// listen(2) backlog; raise it for soak drivers ramping thousands of
  /// connections faster than the accept loop turns.
  int listen_backlog = 128;
  /// Inner engine configuration (admission, per-session queue defaults).
  /// `shards` and `threads` are overridden as described above.
  service::FleetConfig fleet;
  /// Model registry bounds (version slots kept addressable for swap and
  /// rollback). The construction-time classifier is seeded as version
  /// `fleet.initial_model_version` and promoted active.
  lifecycle::RegistryConfig registry;
};

/// Relaxed-atomic counters, single-writer per field in steady state (the
/// reactor that owns the connection), readable from any thread while the
/// server runs.
struct GatewayStats {
  std::atomic<std::uint64_t> conns_accepted{0};
  std::atomic<std::uint64_t> conns_closed{0};
  std::atomic<std::uint64_t> conns_refused_capacity{0};
  std::atomic<std::uint64_t> conns_dropped_protocol{0};
  std::atomic<std::uint64_t> conns_dropped_overflow{0};
  std::atomic<std::uint64_t> conns_dropped_idle{0};
  std::atomic<std::uint64_t> bytes_rx{0};
  std::atomic<std::uint64_t> bytes_tx{0};
  std::atomic<std::uint64_t> frames_rx{0};
  std::atomic<std::uint64_t> frames_tx{0};
  std::atomic<std::uint64_t> frame_rejects{0};  ///< parser Corrupt events
  std::atomic<std::uint64_t> seq_rejects{0};    ///< chunk seq gap/reorder
  std::atomic<std::uint64_t> chunks_rx{0};
  std::atomic<std::uint64_t> samples_rx{0};
  std::atomic<std::uint64_t> full_beats_rx{0};
  std::atomic<std::uint64_t> beat_summaries_rx{0};
  /// Uploads (FULL_BEAT or BEAT_SUMMARY) received again on a connection
  /// that already answered their seq: re-verdicted, not re-counted.
  std::atomic<std::uint64_t> upload_dups{0};
  /// FULL_BEATs whose node-side header says normal class + Good quality —
  /// the plain selective policy never uploads those, so each one is a
  /// drift-triggered novelty escalation. Deduped by a per-node seq
  /// high-water that (unlike the per-connection upload dup guard)
  /// survives reconnects, so an escalation retransmitted after a
  /// connection kill is never double-counted in the fleet rollup.
  std::atomic<std::uint64_t> drift_escalations_rx{0};
  std::atomic<std::uint64_t> verdicts_tx{0};
  std::atomic<std::uint64_t> heartbeats_rx{0};
  /// Model lifecycle: MODEL_PUSH announces received, reassembly parts and
  /// bytes, accepted pushes (admitted + deployed) and refused ones (any
  /// non-Ok MODEL_ACK). A NACK is not a protocol drop: the control
  /// connection is answered and drained cleanly.
  std::atomic<std::uint64_t> model_pushes_rx{0};
  std::atomic<std::uint64_t> model_push_parts_rx{0};
  std::atomic<std::uint64_t> model_push_bytes_rx{0};
  std::atomic<std::uint64_t> model_pushes_ok{0};
  std::atomic<std::uint64_t> model_push_nacks{0};
  /// A/B assignment counters: sessions opened onto each arm since start
  /// (arm A also counts every session opened with the split disabled).
  std::atomic<std::uint64_t> ab_sessions_a{0};
  std::atomic<std::uint64_t> ab_sessions_b{0};
  /// serve()-loop iterations across all reactors, and the subset whose
  /// readiness wait expired without moving a single frame — the idle-burn
  /// metric the adaptive backoff exists to keep small.
  std::atomic<std::uint64_t> wakeups{0};
  std::atomic<std::uint64_t> idle_wakeups{0};

  std::string json() const;
};

class GatewayServer {
 public:
  /// Binds the listener immediately; throws hbrp::Error if the port is
  /// unavailable. `classifier` drives both the inner FleetEngine and the
  /// upload re-classification path.
  GatewayServer(embedded::EmbeddedClassifier classifier,
                GatewayConfig cfg = {});
  ~GatewayServer();

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Steps every reactor once on the calling thread (reactor 0 gets
  /// `timeout_ms` for its readiness wait, the rest poll without blocking);
  /// returns the number of frames received + sent, so a driver can tell
  /// progress from idleness. Single-threaded mode — do not mix with a
  /// concurrently running serve().
  std::size_t poll_once(int timeout_ms);

  /// Runs the reactor loops — one thread per reactor, the caller drives
  /// reactor 0 — until stop() is called (from any thread).
  void serve();
  void stop();

  std::size_t connection_count() const {
    return open_conns_.load(std::memory_order_relaxed);
  }
  std::size_t reactor_count() const { return reactors_.size(); }
  const GatewayStats& stats() const { return stats_; }
  const service::FleetEngine& engine() const { return engine_; }
  /// Per-reactor counters (connections, frames, wakeups) as a JSON array.
  std::string reactors_json() const;

  // --- model lifecycle -----------------------------------------------------

  const lifecycle::BundleRegistry& registry() const { return registry_; }
  std::uint64_t active_model_version() const {
    return registry_.active_version();
  }

  /// Turns on deterministic A/B assignment: sessions HELLOing from now on
  /// land on arm split.arm(node_id); arm B starts on the current active
  /// model until a push replaces it. With the split enabled, an accepted
  /// MODEL_PUSH deploys to arm B only (the candidate) and is NOT promoted
  /// — promote_candidate() graduates it fleet-wide. Callable while the
  /// server runs (from any thread).
  void enable_ab(lifecycle::AbSplit split);
  bool ab_enabled() const;

  /// Graduates the arm-B candidate: promotes its version in the registry
  /// and stages it onto every session (both arms). False when arm B runs
  /// the same version as the registry's active model (nothing to promote).
  bool promote_candidate();

  /// Reverts to the previously active version and stages it onto every
  /// session (both arms — a rollback is fleet-wide by definition). False
  /// when there is no rollback target.
  bool rollback_model();

 private:
  struct Conn;
  struct Reactor;

  void run_reactor(Reactor& r);
  std::size_t step_reactor(Reactor& r, int timeout_ms);
  void adopt_inbox(Reactor& r);
  void adopt_conn(Reactor& r, Socket s);
  void accept_pending();
  void read_conn(Conn& c);
  /// Dispatches the frames already in the connection's parser until it
  /// runs dry, the connection closes or drains, or a chunk parks samples.
  /// Frames behind parked samples stay in the parser until the retry has
  /// moved them into the session queue, so a BYE cannot close the session
  /// ahead of samples the node sent before it.
  void dispatch_parsed(Conn& c);
  void dispatch(Conn& c, const FrameView& f);
  void on_hello(Conn& c, const FrameView& f);
  void on_sample_chunk(Conn& c, const FrameView& f);
  void on_full_beat(Conn& c, const FrameView& f);
  void on_beat_summary(Conn& c, const FrameView& f);
  /// The model the session runs now: what its uploads are classified with.
  const embedded::EmbeddedClassifier& session_classifier(const Conn& c) const;
  /// The dup guard FULL_BEAT and BEAT_SUMMARY share (one upload seq
  /// space): counts a new seq in `fresh` and returns true, a seq at or
  /// below the connection's high-water in upload_dups.
  bool accept_upload(Conn& c, std::uint64_t seq,
                     std::atomic<std::uint64_t>& fresh);
  /// Answers an upload with its BEAT_VERDICT, the upload's only ack.
  void answer_upload(Conn& c, std::uint64_t seq, std::uint64_t r_peak,
                     std::uint8_t quality, ecg::BeatClass verdict);
  void on_model_push(Conn& c, const FrameView& f);
  void on_model_push_part(Conn& c, const FrameView& f);
  /// Answers the control connection with MODEL_ACK{status, version} and
  /// puts it into drain (one push per connection); counts ok/nack.
  void ack_push(Conn& c, ModelPushStatus status, std::uint64_t version);
  /// Digest-checks, decodes, admits and (on Ok) deploys the reassembled
  /// bundle image, then acks with the outcome.
  void finish_push(Conn& c);
  void offer_samples(Conn& c);
  void flush_conn(Conn& c);
  void enqueue_frame(Conn& c, FrameType type, std::uint64_t seq,
                     std::span<const unsigned char> payload);
  /// Tears the connection down. `deliver_tail` routes the session's final
  /// beats into the send buffer first (graceful Bye) — pointless on
  /// protocol errors where the socket is already untrusted/dead.
  void close_conn(Conn& c, bool deliver_tail);
  /// Unwatches + closes the socket and updates the gauges; the reaper
  /// frees the Conn at the end of the round.
  void finalize_close(Conn& c);
  /// Beat window length of the engine's models: what a Selective HELLO
  /// must announce and a FULL_BEAT upload must carry.
  std::size_t window_length() const {
    return engine_.default_model()->classifier.projector().expected_window();
  }

  GatewayConfig cfg_;
  service::FleetEngine engine_;
  TcpListener listener_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  ///< round-robin handoff; reactor 0 only
  /// How far a BEAT_SUMMARY's fiducials may lie from its R peak: the
  /// delineator's reach at the sessions' rate.
  delineation::Reach summary_reach_;
  /// Highest FULL_BEAT seq already counted as a drift escalation, per
  /// node_id. Unlike Conn::last_upload_seq this survives reconnects: the
  /// client keeps its upload seq space across reconnects, so a
  /// retransmitted escalation arriving on a fresh connection — possibly
  /// on a *different reactor* — is still recognized and the fleet rollup
  /// is counted exactly once. Mutex-guarded for exactly that reason.
  std::mutex drift_mutex_;
  std::map<std::uint32_t, std::uint64_t> drift_counted_high_;
  /// Versioned model store (slots, promote/rollback); internally locked.
  lifecycle::BundleRegistry registry_;
  /// Guards the deployment targets below. Pushes and HELLOs may land on
  /// any reactor, and enable_ab()/rollback_model() on any thread; all of
  /// them only read/replace shared_ptr handles here — cold path.
  mutable std::mutex models_mutex_;
  /// Model new sessions start on, per A/B arm (both point at the active
  /// model until a split is enabled and a candidate pushed).
  std::shared_ptr<const service::SessionModel> arm_model_[2];
  lifecycle::AbSplit ab_;
  bool ab_on_ = false;
  GatewayStats stats_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> open_conns_{0};
};

}  // namespace hbrp::net
