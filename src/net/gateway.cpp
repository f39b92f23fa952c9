#include "net/gateway.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "lifecycle/bundle.hpp"
#include "math/check.hpp"

namespace hbrp::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Adaptive reactor backoff: a step that moves frames resets the wait to
/// the base; every fruitless step doubles it up to the cap. Any readiness
/// event (or a wake-pipe notify) still interrupts the wait immediately, so
/// the cap costs nothing in latency for socket-driven work.
constexpr int kBaseWaitMs = 5;
constexpr int kMaxWaitMs = 320;

using service::append_field;

GatewayConfig sanitize_config(GatewayConfig cfg) {
  if (cfg.reactors == 0)
    cfg.reactors = std::max(1u, std::thread::hardware_concurrency());
  // Reactor r owns engine shard r outright — every session it opens is
  // pinned there and only it calls pump_shard(r), so sinks always run on
  // the reactor that owns the connection they write to. The engine's own
  // executor is never used by the gateway (reactor threads ARE the
  // parallelism), so it stays at one thread.
  cfg.fleet.shards = cfg.reactors;
  cfg.fleet.threads = 1;
  if (cfg.listen_backlog < 1) cfg.listen_backlog = 1;
  return cfg;
}

}  // namespace

std::string GatewayStats::json() const {
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::string out = "{";
  append_field(out, "schema_version", service::kTelemetrySchemaVersion,
               /*first=*/true);
  append_field(out, "conns_accepted", load(conns_accepted));
  append_field(out, "conns_closed", load(conns_closed));
  append_field(out, "conns_refused_capacity", load(conns_refused_capacity));
  append_field(out, "conns_dropped_protocol", load(conns_dropped_protocol));
  append_field(out, "conns_dropped_overflow", load(conns_dropped_overflow));
  append_field(out, "conns_dropped_idle", load(conns_dropped_idle));
  append_field(out, "bytes_rx", load(bytes_rx));
  append_field(out, "bytes_tx", load(bytes_tx));
  append_field(out, "frames_rx", load(frames_rx));
  append_field(out, "frames_tx", load(frames_tx));
  append_field(out, "frame_rejects", load(frame_rejects));
  append_field(out, "seq_rejects", load(seq_rejects));
  append_field(out, "chunks_rx", load(chunks_rx));
  append_field(out, "samples_rx", load(samples_rx));
  append_field(out, "full_beats_rx", load(full_beats_rx));
  append_field(out, "full_beat_dups", load(full_beat_dups));
  append_field(out, "drift_escalations_rx", load(drift_escalations_rx));
  append_field(out, "verdicts_tx", load(verdicts_tx));
  append_field(out, "heartbeats_rx", load(heartbeats_rx));
  append_field(out, "model_pushes_rx", load(model_pushes_rx));
  append_field(out, "model_push_parts_rx", load(model_push_parts_rx));
  append_field(out, "model_push_bytes_rx", load(model_push_bytes_rx));
  append_field(out, "model_pushes_ok", load(model_pushes_ok));
  append_field(out, "model_push_nacks", load(model_push_nacks));
  append_field(out, "ab_sessions_a", load(ab_sessions_a));
  append_field(out, "ab_sessions_b", load(ab_sessions_b));
  append_field(out, "wakeups", load(wakeups));
  append_field(out, "idle_wakeups", load(idle_wakeups));
  out += "}";
  return out;
}

struct GatewayServer::Conn {
  Reactor* owner = nullptr;
  Socket sock;
  FrameParser parser;
  std::vector<unsigned char> out;
  std::size_t out_head = 0;
  std::optional<service::SessionId> session;
  TxPolicy policy = TxPolicy::StreamEverything;
  std::uint32_t node_id = 0;
  bool hello_done = false;
  bool draining = false;  ///< flush `out`, then close
  bool alive = true;
  bool accept_verdicts = false;
  bool overflowed = false;
  std::uint64_t next_chunk_seq = 0;
  std::optional<std::uint64_t> last_full_seq;
  /// Control-connection (MODEL_PUSH) reassembly state. `ctrl` flips on the
  /// announce frame and is mutually exclusive with hello_done: a pusher
  /// never carries data traffic and vice versa.
  bool ctrl = false;
  std::uint64_t push_version = 0;
  std::uint64_t push_digest = 0;
  std::uint64_t push_total = 0;
  std::uint32_t push_parts = 0;
  std::uint32_t push_next_part = 0;
  std::uint32_t push_chunk = 0;
  std::vector<unsigned char> push_buf;
  /// Decoded samples the session queue has not accepted yet (deferred or
  /// rejected); while non-empty the socket is not read and later frames
  /// wait in the parser.
  std::vector<dsp::Sample> inbound;
  std::vector<dsp::Sample> window_scratch;
  Clock::time_point last_rx;
};

/// One event loop. Everything here is owned by the one thread running the
/// loop (or, in poll_once() mode, by the single calling thread) — except
/// the locked handoff inbox, the wake pipe, and the stats atomics.
struct GatewayServer::Reactor {
  std::size_t index = 0;
  EventPoller poller;
  WakePipe wake;
  std::mutex inbox_mutex;
  std::vector<Socket> inbox;  ///< connections handed over by reactor 0
  std::vector<std::unique_ptr<Conn>> conns;
  std::unordered_map<int, Conn*> by_fd;
  embedded::ClassifyScratch full_beat_scratch;
  std::vector<PollEvent> events;
  // Per-reactor rollup, single-writer (the loop), read by reactors_json().
  std::atomic<std::uint64_t> frames_rx{0};
  std::atomic<std::uint64_t> frames_tx{0};
  std::atomic<std::uint64_t> wakeups{0};
  std::atomic<std::uint64_t> idle_wakeups{0};
  std::atomic<std::uint64_t> conns_open{0};
};

GatewayServer::GatewayServer(embedded::EmbeddedClassifier classifier,
                             GatewayConfig cfg)
    : cfg_(sanitize_config(std::move(cfg))),
      engine_(std::move(classifier), cfg_.fleet),
      listener_(cfg_.port, cfg_.listen_backlog),
      registry_(cfg_.registry) {
  reactors_.reserve(cfg_.reactors);
  for (std::size_t i = 0; i < cfg_.reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>());
    reactors_.back()->index = i;
  }
  // Seed the registry with the construction-time classifier so pushes have
  // an incumbent to compare against (geometry, downgrade) and rollback has
  // a floor. Like the engine's default model it carries no drift seeds; a
  // pushed bundle brings its own. It is a copy of that model, not the
  // engine's pointer: the registry pins a version by its external use
  // count, and the engine holds its default model for its whole life.
  auto initial = std::make_shared<const service::SessionModel>(
      *engine_.default_model());
  const auto admitted = registry_.admit(initial, /*digest=*/0);
  HBRP_REQUIRE(admitted == lifecycle::AdmitResult::Ok,
               "GatewayServer: initial model admission failed");
  registry_.promote(initial->version);
  arm_model_[0] = initial;
  arm_model_[1] = std::move(initial);
}

GatewayServer::~GatewayServer() {
  // Abrupt teardown: no tails, no flushes. The engine's destructor closes
  // the remaining sessions with their sinks disabled, so the Conn pointers
  // captured there are never dereferenced.
  for (auto& r : reactors_) {
    for (auto& c : r->conns) {
      c->accept_verdicts = false;
      c->alive = false;
      c->sock.close();
    }
  }
}

std::string GatewayServer::reactors_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < reactors_.size(); ++i) {
    const Reactor& r = *reactors_[i];
    out += i == 0 ? "{" : ", {";
    append_field(out, "reactor", i, /*first=*/true);
    out += ", \"backend\": \"";
    out += r.poller.backend();
    out += '"';
    append_field(out, "conns_open",
                 r.conns_open.load(std::memory_order_relaxed));
    append_field(out, "frames_rx",
                 r.frames_rx.load(std::memory_order_relaxed));
    append_field(out, "frames_tx",
                 r.frames_tx.load(std::memory_order_relaxed));
    append_field(out, "wakeups", r.wakeups.load(std::memory_order_relaxed));
    append_field(out, "idle_wakeups",
                 r.idle_wakeups.load(std::memory_order_relaxed));
    out += "}";
  }
  out += "]";
  return out;
}

void GatewayServer::enqueue_frame(Conn& c, FrameType type, std::uint64_t seq,
                                  std::span<const unsigned char> payload) {
  if (!c.alive) return;
  append_frame(c.out, type, seq, payload);
  stats_.frames_tx.fetch_add(1, std::memory_order_relaxed);
  c.owner->frames_tx.fetch_add(1, std::memory_order_relaxed);
  if (c.out.size() - c.out_head > cfg_.send_buffer_cap) c.overflowed = true;
}

void GatewayServer::finalize_close(Conn& c) {
  c.alive = false;
  c.owner->poller.unwatch(c.sock.fd());
  c.owner->by_fd.erase(c.sock.fd());
  c.sock.close();
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  stats_.conns_closed.fetch_add(1, std::memory_order_relaxed);
  c.owner->conns_open.fetch_sub(1, std::memory_order_relaxed);
}

void GatewayServer::close_conn(Conn& c, bool deliver_tail) {
  if (!c.alive) return;
  if (c.session.has_value()) {
    c.accept_verdicts = deliver_tail;
    engine_.close_session(*c.session);
    c.session.reset();
    c.accept_verdicts = false;
  }
  if (deliver_tail) {
    // Stay alive until the send buffer (now holding the session tail)
    // drains; the flush phase finalizes the close.
    c.draining = true;
    return;
  }
  finalize_close(c);
}

void GatewayServer::adopt_conn(Reactor& r, Socket s) {
  auto c = std::make_unique<Conn>();
  c->owner = &r;
  c->sock = std::move(s);
  c->last_rx = Clock::now();
  r.by_fd.emplace(c->sock.fd(), c.get());
  r.conns.push_back(std::move(c));
  r.conns_open.fetch_add(1, std::memory_order_relaxed);
}

void GatewayServer::adopt_inbox(Reactor& r) {
  std::vector<Socket> handed;
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mutex);
    handed.swap(r.inbox);
  }
  for (Socket& s : handed) adopt_conn(r, std::move(s));
}

void GatewayServer::accept_pending() {
  while (true) {
    Socket s = listener_.accept();
    if (!s.valid()) return;
    if (connection_count() >= cfg_.max_connections) {
      stats_.conns_refused_capacity.fetch_add(1, std::memory_order_relaxed);
      continue;  // Socket destructor closes the refused connection
    }
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    stats_.conns_accepted.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target = next_reactor_;
    next_reactor_ = (next_reactor_ + 1) % reactors_.size();
    if (target == 0) {
      adopt_conn(*reactors_[0], std::move(s));
    } else {
      Reactor& r = *reactors_[target];
      {
        const std::lock_guard<std::mutex> lock(r.inbox_mutex);
        r.inbox.push_back(std::move(s));
      }
      r.wake.notify();
    }
  }
}

void GatewayServer::on_hello(Conn& c, const FrameView& f) {
  const auto hello = decode_hello(f.payload);
  if (c.hello_done || c.ctrl || !hello.has_value()) {
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
    return;
  }
  c.hello_done = true;
  c.policy = hello->policy;
  c.node_id = hello->node_id;
  HelloAckMsg ack;
  const std::size_t expected = window_length();
  if (hello->policy == TxPolicy::Selective && hello->window != expected) {
    ack.status = HelloStatus::BadWindow;
  } else {
    Conn* cp = &c;  // stable: the reactor's conns vector holds unique_ptrs
    // A/B arm assignment: a pure function of (split, node_id), resolved
    // once at HELLO. The session starts on its arm's current deployment
    // target and carries the arm tag for stage_swap_arm().
    service::SessionConfig scfg = cfg_.fleet.session;
    {
      const std::lock_guard<std::mutex> lock(models_mutex_);
      scfg.ab_arm = ab_on_ ? ab_.arm(hello->node_id) : std::uint8_t{0};
      scfg.model = arm_model_[scfg.ab_arm];
    }
    (scfg.ab_arm == 0 ? stats_.ab_sessions_a : stats_.ab_sessions_b)
        .fetch_add(1, std::memory_order_relaxed);
    // The session is pinned to this reactor's shard, so the sink below
    // only ever runs on the thread stepping this reactor (its pump_shard
    // or its close_conn) — never concurrently with the conn's owner.
    const auto id = engine_.open_session(
        [this, cp](const service::SessionResult& r) {
          if (!cp->accept_verdicts) return;
          BeatVerdictMsg v;
          v.r_peak = r.beat.r_peak;
          v.beat_class = static_cast<std::uint8_t>(r.beat.predicted);
          v.quality = static_cast<std::uint8_t>(r.beat.quality);
          enqueue_frame(*cp, FrameType::BeatVerdict, r.sequence,
                        encode_beat_verdict(v));
          stats_.verdicts_tx.fetch_add(1, std::memory_order_relaxed);
        },
        std::move(scfg), c.owner->index);
    if (id.has_value()) {
      c.session = *id;
      c.accept_verdicts = true;
      ack.session = *id;
    } else {
      ack.status = HelloStatus::FleetFull;
    }
  }
  enqueue_frame(c, FrameType::HelloAck, 0, encode_hello_ack(ack));
  if (ack.status != HelloStatus::Ok) c.draining = true;  // ack, then close
}

void GatewayServer::offer_samples(Conn& c) {
  if (c.inbound.empty() || !c.session.has_value()) return;
  const service::OfferOutcome out = engine_.offer(
      *c.session, std::span<const dsp::Sample>(c.inbound));
  if (out.accepted > 0)
    c.inbound.erase(c.inbound.begin(),
                    c.inbound.begin() +
                        static_cast<std::ptrdiff_t>(out.accepted));
  // Anything deferred (session queue full) or rejected (fleet-wide gauge)
  // stays parked for the next round's retry, and the socket is not read
  // meanwhile: nothing the node sent is dropped.
}

void GatewayServer::on_sample_chunk(Conn& c, const FrameView& f) {
  if (!c.hello_done || !c.session.has_value()) {
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
    return;
  }
  if (f.seq != c.next_chunk_seq) {
    // A gap or reorder in the dense chunk numbering: the stream can no
    // longer be trusted to be gap-free, so the link restarts.
    stats_.seq_rejects.fetch_add(1, std::memory_order_relaxed);
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
    return;
  }
  const std::size_t before = c.inbound.size();
  if (!decode_sample_chunk(f.payload, c.inbound)) {
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
    return;
  }
  ++c.next_chunk_seq;
  stats_.chunks_rx.fetch_add(1, std::memory_order_relaxed);
  stats_.samples_rx.fetch_add(c.inbound.size() - before,
                              std::memory_order_relaxed);
  offer_samples(c);
}

void GatewayServer::on_full_beat(Conn& c, const FrameView& f) {
  if (!c.hello_done) {
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
    return;
  }
  // At-least-once from the client: a seq at or below the high-water mark
  // was already processed — answer again (below) but do not count it.
  const bool dup =
      c.last_full_seq.has_value() && f.seq <= *c.last_full_seq;
  FullBeatMsg m;
  if (!decode_full_beat(f.payload, m, c.window_scratch)) {
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
    return;
  }
  if (m.count != 0 &&
      c.window_scratch.size() != window_length()) {
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
    return;
  }
  if (dup) {
    // The first transmission's verdict may have died with a previous
    // connection (the client holds an upload until its verdict arrives).
    // Recompute from this frame's own payload — classification is
    // deterministic, so the resent verdict is bit-identical — and answer
    // again; the client dedupes by seq. Counted as a dup, not a new beat.
    stats_.full_beat_dups.fetch_add(1, std::memory_order_relaxed);
  } else {
    c.last_full_seq = f.seq;
    stats_.full_beats_rx.fetch_add(1, std::memory_order_relaxed);
    if (m.count != 0 &&
        !ecg::is_pathological(static_cast<ecg::BeatClass>(
            m.beat_class & 0x3u)) &&
        static_cast<dsp::SignalQuality>(m.quality & 0x3u) ==
            dsp::SignalQuality::Good) {
      // The per-connection dup guard above forgets its high-water when a
      // killed connection is replaced, so a retransmitted escalation can
      // reach this branch looking fresh. The per-node map remembers what
      // was already counted across reconnects — which may land on a
      // different reactor, hence the mutex — keeping the fleet rollup
      // exactly-once.
      const std::lock_guard<std::mutex> lock(drift_mutex_);
      const auto [it, inserted] =
          drift_counted_high_.try_emplace(c.node_id, f.seq);
      if (inserted || f.seq > it->second) {
        it->second = f.seq;
        stats_.drift_escalations_rx.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Re-classify the uploaded window with this session's *current* model —
  // the check pass before the detailed delineation stage, and it must
  // agree with the model the session's streamed beats are classified
  // under (reading the session model here is safe: dispatch runs on the
  // reactor thread that owns the session's shard pump). A 0-sample
  // escalation (Suspect signal on the node) has no trustworthy window:
  // Unknown. The scratch is per-reactor, so concurrent FULL_BEATs on
  // different reactors never share it.
  const service::SessionModel* sm =
      c.session.has_value() ? engine_.session_model(*c.session) : nullptr;
  const embedded::EmbeddedClassifier& clf =
      sm != nullptr ? sm->classifier : engine_.default_model()->classifier;
  BeatVerdictMsg v;
  v.r_peak = m.r_peak;
  v.quality = m.quality;
  v.beat_class = static_cast<std::uint8_t>(
      m.count == 0 ? ecg::BeatClass::Unknown
                   : clf.classify_window(
                         std::span<const dsp::Sample>(c.window_scratch),
                         c.owner->full_beat_scratch));
  enqueue_frame(c, FrameType::BeatVerdict, f.seq, encode_beat_verdict(v));
  stats_.verdicts_tx.fetch_add(1, std::memory_order_relaxed);
}

void GatewayServer::dispatch(Conn& c, const FrameView& f) {
  switch (f.type) {
    case FrameType::Hello:
      on_hello(c, f);
      return;
    case FrameType::SampleChunk:
      on_sample_chunk(c, f);
      return;
    case FrameType::FullBeat:
      on_full_beat(c, f);
      return;
    case FrameType::Heartbeat:
      // Liveness only: reading it already refreshed the idle clock.
      stats_.heartbeats_rx.fetch_add(1, std::memory_order_relaxed);
      return;
    case FrameType::Bye:
      // Graceful close: flush the session tail as verdicts, drain, close.
      close_conn(c, /*deliver_tail=*/true);
      return;
    case FrameType::ModelPush:
      on_model_push(c, f);
      return;
    case FrameType::ModelPushPart:
      on_model_push_part(c, f);
      return;
    case FrameType::HelloAck:
    case FrameType::BeatVerdict:
    case FrameType::ModelAck:  // acks flow gateway -> pusher, never back
      stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
      close_conn(c, false);
      return;
  }
}

void GatewayServer::ack_push(Conn& c, ModelPushStatus status,
                             std::uint64_t version) {
  (status == ModelPushStatus::Ok ? stats_.model_pushes_ok
                                 : stats_.model_push_nacks)
      .fetch_add(1, std::memory_order_relaxed);
  enqueue_frame(c, FrameType::ModelAck, 0,
                encode_model_ack(ModelAckMsg{status, version}));
  c.push_buf.clear();
  c.push_buf.shrink_to_fit();
  // One push per control connection: answer, flush, close. The pusher
  // reads the verdict and decides whether to retry on a fresh connection.
  c.draining = true;
}

void GatewayServer::on_model_push(Conn& c, const FrameView& f) {
  const auto m = decode_model_push(f.payload);
  // MODEL_PUSH is only valid as the very first frame: a data connection
  // (hello_done) or a connection already mid-push cannot announce one.
  if (c.hello_done || c.ctrl || !m.has_value()) {
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
    return;
  }
  c.ctrl = true;
  stats_.model_pushes_rx.fetch_add(1, std::memory_order_relaxed);
  if (m->total_bytes == 0 || m->total_bytes > kMaxBundleBytes) {
    ack_push(c, ModelPushStatus::TooLarge, m->version);
    return;
  }
  const std::uint64_t chunk = m->chunk_bytes;
  const std::uint64_t want_parts =
      chunk == 0 ? 0 : (m->total_bytes + chunk - 1) / chunk;
  if (chunk == 0 || chunk > kMaxPayloadBytes || m->part_count == 0 ||
      m->part_count != want_parts) {
    ack_push(c, ModelPushStatus::Malformed, m->version);
    return;
  }
  c.push_version = m->version;
  c.push_digest = m->digest;
  c.push_total = m->total_bytes;
  c.push_parts = m->part_count;
  c.push_chunk = m->chunk_bytes;
  c.push_next_part = 0;
  c.push_buf.clear();
  c.push_buf.reserve(static_cast<std::size_t>(m->total_bytes));
}

void GatewayServer::on_model_push_part(Conn& c, const FrameView& f) {
  // Parts are only valid inside an announced push, in dense order, each
  // exactly chunk_bytes except a short final part.
  if (!c.ctrl || c.push_next_part >= c.push_parts ||
      f.seq != c.push_next_part) {
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
    return;
  }
  const std::uint64_t offset =
      static_cast<std::uint64_t>(c.push_next_part) * c.push_chunk;
  const std::uint64_t expected =
      std::min<std::uint64_t>(c.push_chunk, c.push_total - offset);
  if (f.payload.size() != expected) {
    ack_push(c, ModelPushStatus::Malformed, c.push_version);
    return;
  }
  c.push_buf.insert(c.push_buf.end(), f.payload.begin(), f.payload.end());
  ++c.push_next_part;
  stats_.model_push_parts_rx.fetch_add(1, std::memory_order_relaxed);
  stats_.model_push_bytes_rx.fetch_add(f.payload.size(),
                                       std::memory_order_relaxed);
  if (c.push_next_part == c.push_parts) finish_push(c);
}

void GatewayServer::finish_push(Conn& c) {
  // End-to-end integrity first: the announced digest must match the
  // reassembled image regardless of what the per-frame CRCs said.
  if (lifecycle::bundle_digest(c.push_buf) != c.push_digest) {
    ack_push(c, ModelPushStatus::BadDigest, c.push_version);
    return;
  }
  std::shared_ptr<const service::SessionModel> model;
  try {
    lifecycle::ModelBundle bundle = lifecycle::decode_bundle(c.push_buf);
    if (bundle.version != c.push_version) {
      ack_push(c, ModelPushStatus::Malformed, c.push_version);
      return;
    }
    model = lifecycle::instantiate_bundle(bundle);
  } catch (const hbrp::Error&) {
    ack_push(c, ModelPushStatus::Malformed, c.push_version);
    return;
  }
  switch (registry_.admit(model, c.push_digest)) {
    case lifecycle::AdmitResult::Duplicate:
      ack_push(c, ModelPushStatus::Duplicate, c.push_version);
      return;
    case lifecycle::AdmitResult::Downgrade:
      ack_push(c, ModelPushStatus::Downgrade, c.push_version);
      return;
    case lifecycle::AdmitResult::BadGeometry:
      ack_push(c, ModelPushStatus::BadGeometry, c.push_version);
      return;
    case lifecycle::AdmitResult::RegistryFull:
      ack_push(c, ModelPushStatus::RegistryFull, c.push_version);
      return;
    case lifecycle::AdmitResult::Ok:
      break;
  }
  // Deploy. Staging only sets each session's pending-swap slot; the swap
  // itself is applied by the session's owning pump thread at its next
  // round boundary, so in-flight beats finish on the old model and no new
  // hot-path lock is taken here.
  {
    const std::lock_guard<std::mutex> lock(models_mutex_);
    if (ab_on_) {
      // Candidate deployment: arm B only, not promoted — graduation to
      // fleet-wide active is promote_candidate()'s explicit decision.
      arm_model_[1] = model;
      engine_.stage_swap_arm(1, model);
    } else {
      registry_.promote(model->version);
      arm_model_[0] = model;
      arm_model_[1] = model;
      engine_.stage_swap_all(model);
    }
  }
  ack_push(c, ModelPushStatus::Ok, c.push_version);
}

void GatewayServer::enable_ab(lifecycle::AbSplit split) {
  const std::lock_guard<std::mutex> lock(models_mutex_);
  ab_ = split;
  ab_on_ = true;
}

bool GatewayServer::ab_enabled() const {
  const std::lock_guard<std::mutex> lock(models_mutex_);
  return ab_on_;
}

bool GatewayServer::promote_candidate() {
  const std::lock_guard<std::mutex> lock(models_mutex_);
  const std::shared_ptr<const service::SessionModel> cand = arm_model_[1];
  if (cand == nullptr || cand->version == registry_.active_version())
    return false;
  registry_.promote(cand->version);
  arm_model_[0] = cand;
  engine_.stage_swap_all(cand);
  return true;
}

bool GatewayServer::rollback_model() {
  const std::lock_guard<std::mutex> lock(models_mutex_);
  if (!registry_.rollback()) return false;
  std::shared_ptr<const service::SessionModel> m = registry_.active();
  HBRP_REQUIRE(m != nullptr, "rollback_model: active version has no slot");
  arm_model_[0] = m;
  arm_model_[1] = m;
  engine_.stage_swap_all(std::move(m));
  return true;
}

void GatewayServer::read_conn(Conn& c) {
  unsigned char buf[16384];
  // Bounded reads per round so one firehose node cannot starve the rest;
  // level-triggered readiness re-reports anything left for the next round.
  for (int round = 0; round < 4 && c.alive && !c.draining; ++round) {
    if (!c.inbound.empty()) return;  // backpressured: stop reading
    const IoResult r = recv_some(c.sock.fd(), buf);
    if (r.n > 0) {
      stats_.bytes_rx.fetch_add(r.n, std::memory_order_relaxed);
      c.last_rx = Clock::now();
      if (!c.parser.feed(std::span<const unsigned char>(buf, r.n))) {
        stats_.frame_rejects.fetch_add(1, std::memory_order_relaxed);
        stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
        close_conn(c, false);
        return;
      }
      dispatch_parsed(c);
      continue;
    }
    if (r.would_block) return;
    // EOF without BYE or a hard error: the peer is gone; no tail.
    close_conn(c, false);
    return;
  }
}

void GatewayServer::dispatch_parsed(Conn& c) {
  FrameView f;
  auto st = FrameParser::Status::NeedMore;
  while (c.alive && !c.draining && c.inbound.empty()) {
    st = c.parser.next(f);
    if (st != FrameParser::Status::Ok) break;
    stats_.frames_rx.fetch_add(1, std::memory_order_relaxed);
    c.owner->frames_rx.fetch_add(1, std::memory_order_relaxed);
    dispatch(c, f);
  }
  if (c.alive && st == FrameParser::Status::Corrupt) {
    stats_.frame_rejects.fetch_add(1, std::memory_order_relaxed);
    stats_.conns_dropped_protocol.fetch_add(1, std::memory_order_relaxed);
    close_conn(c, false);
  }
}

void GatewayServer::flush_conn(Conn& c) {
  while (c.alive && c.out_head < c.out.size()) {
    const IoResult r = send_some(
        c.sock.fd(),
        std::span<const unsigned char>(c.out).subspan(c.out_head));
    if (r.n > 0) {
      c.out_head += r.n;
      stats_.bytes_tx.fetch_add(r.n, std::memory_order_relaxed);
      continue;
    }
    if (r.would_block) break;
    close_conn(c, false);
    return;
  }
  if (c.out_head >= c.out.size()) {
    c.out.clear();
    c.out_head = 0;
  } else if (c.out_head > (1u << 16)) {
    c.out.erase(c.out.begin(),
                c.out.begin() + static_cast<std::ptrdiff_t>(c.out_head));
    c.out_head = 0;
  }
}

std::size_t GatewayServer::step_reactor(Reactor& r, int timeout_ms) {
  const std::uint64_t frames_before =
      r.frames_rx.load(std::memory_order_relaxed) +
      r.frames_tx.load(std::memory_order_relaxed);
  r.wakeups.fetch_add(1, std::memory_order_relaxed);
  stats_.wakeups.fetch_add(1, std::memory_order_relaxed);

  // Phase -1: adopt connections reactor 0 handed over since last step.
  adopt_inbox(r);

  // Phase 0: retry ingest parked by backpressure (pump freed queue space),
  // then dispatch the frames that waited in the parser behind it.
  bool parked = false;
  for (auto& c : r.conns) {
    if (!c->alive || c->inbound.empty()) continue;
    offer_samples(*c);
    dispatch_parsed(*c);
    if (c->alive && !c->inbound.empty()) parked = true;
  }

  // Phase 1: declare interest and wait for readiness. A reactor with
  // latent pump work (parked ingest or an undrained shard queue) must not
  // sleep — its own pump is the only thing that makes progress.
  if (r.index == 0) r.poller.watch(listener_.fd(), true, false);
  r.poller.watch(r.wake.fd(), true, false);
  for (auto& c : r.conns) {
    if (!c->alive) continue;
    const bool want_read = !c->draining && c->inbound.empty();
    const bool want_write = c->out_head < c->out.size();
    r.poller.watch(c->sock.fd(), want_read, want_write);
  }
  const bool pump_pending =
      parked || engine_.shard_queued_samples(r.index) > 0;
  (void)r.poller.wait(pump_pending ? 0 : timeout_ms, r.events);

  // Phase 2: accept (reactor 0) + read + dispatch (feeds ingest queues).
  for (const PollEvent& e : r.events) {
    if (r.index == 0 && e.fd == listener_.fd()) {
      if (e.readable) accept_pending();
      continue;
    }
    if (e.fd == r.wake.fd()) {
      r.wake.consume();
      adopt_inbox(r);
      continue;
    }
    const auto it = r.by_fd.find(e.fd);
    if (it == r.by_fd.end()) continue;
    Conn& c = *it->second;
    if (!c.alive) continue;
    // A broken fd still reads: the recv drains any final bytes and then
    // surfaces the EOF/error, which closes the connection properly.
    if (e.readable || e.broken) read_conn(c);
  }

  // Phase 3: one engine round for this reactor's own shard; the sinks
  // append verdict frames to this reactor's connections in order.
  engine_.pump_shard(r.index);

  // Phase 4: flush, enforce caps, finalize drains, reap.
  const auto now = Clock::now();
  for (auto& c : r.conns) {
    if (!c->alive) continue;
    if (c->overflowed) {
      stats_.conns_dropped_overflow.fetch_add(1, std::memory_order_relaxed);
      close_conn(*c, false);
      continue;
    }
    flush_conn(*c);
    if (!c->alive) continue;
    if (c->draining && c->out_head >= c->out.size()) {
      finalize_close(*c);
      continue;
    }
    if (cfg_.idle_timeout_ms > 0 && !c->draining &&
        now - c->last_rx > std::chrono::milliseconds(cfg_.idle_timeout_ms)) {
      stats_.conns_dropped_idle.fetch_add(1, std::memory_order_relaxed);
      close_conn(*c, false);
    }
  }
  std::erase_if(r.conns, [](const std::unique_ptr<Conn>& c) {
    return !c->alive;
  });

  return static_cast<std::size_t>(
      r.frames_rx.load(std::memory_order_relaxed) +
      r.frames_tx.load(std::memory_order_relaxed) - frames_before);
}

std::size_t GatewayServer::poll_once(int timeout_ms) {
  std::size_t moved = 0;
  for (std::size_t i = 0; i < reactors_.size(); ++i)
    moved += step_reactor(*reactors_[i], i == 0 ? timeout_ms : 0);
  return moved;
}

void GatewayServer::run_reactor(Reactor& r) {
  int wait_ms = kBaseWaitMs;
  int cap_ms = kMaxWaitMs;
  if (cfg_.idle_timeout_ms > 0)
    cap_ms = std::clamp(cfg_.idle_timeout_ms / 4, kBaseWaitMs, kMaxWaitMs);
  while (!stop_.load(std::memory_order_relaxed)) {
    const std::size_t moved = step_reactor(r, wait_ms);
    if (moved > 0) {
      wait_ms = kBaseWaitMs;
    } else {
      r.idle_wakeups.fetch_add(1, std::memory_order_relaxed);
      stats_.idle_wakeups.fetch_add(1, std::memory_order_relaxed);
      wait_ms = std::min(wait_ms * 2, cap_ms);
    }
  }
}

void GatewayServer::serve() {
  std::vector<std::thread> threads;
  threads.reserve(reactors_.size() - 1);
  for (std::size_t i = 1; i < reactors_.size(); ++i)
    threads.emplace_back([this, i] { run_reactor(*reactors_[i]); });
  run_reactor(*reactors_[0]);
  for (std::thread& t : threads) t.join();
}

void GatewayServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& r : reactors_) r->wake.notify();
}

}  // namespace hbrp::net
