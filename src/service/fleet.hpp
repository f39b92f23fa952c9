// FleetEngine: the host-side multi-session streaming service.
//
// The paper's deployment story is a fleet of WBSN nodes, each running the
// embedded classifier and shipping beats to a collector. This engine is the
// collector's ingest path: it multiplexes N concurrent patient sessions —
// each an independent fault-tolerant core::StreamingBeatMonitor with its own
// SQI/degradation state — over a sharded core::Executor worker pool.
//
// Sessions have *stable shard affinity*: open_session() pins each session
// to one shard (round-robin by default, or by explicit hint — the gateway
// pins a connection's session to its owning reactor's shard) and it never
// migrates. One shard pump body is a deterministic three-phase schedule:
//   1. drain + window: the shard drains up to each member session's rate
//      cap from its ingest queue, runs the monitor in
//      deferred-classification mode, and appends every finalized beat
//      window to the shard's window vector — the cross-session batch
//      that is this layer's throughput headline;
//   2. batch classification: the shard classifies its batch in one
//      embedded::classify_batch sweep with reusable per-shard scratch —
//      zero per-beat allocation in steady state;
//   3. in-order delivery (serial *per shard*, not globally): the shard's
//      sessions are visited in id order and each delivers its pending
//      beats to its result sink with a dense, strictly increasing
//      per-session sequence number. Shards never wait on each other's
//      delivery, which is what lets N reactor threads pump N shards
//      without serializing.
//
// pump() runs every shard body through the executor (one whole-fleet
// round); pump_shard() runs exactly one shard body on the calling thread —
// the multi-reactor gateway's path, where reactor r owns shard r. Distinct
// shards may be pumped concurrently; a per-shard mutex serializes
// same-shard pumps.
//
// Determinism: a session's stream is consumed identically regardless of the
// shard/thread/reactor count (the rate cap and queue state are
// caller-driven, each beat's classification depends only on its own window,
// and drift observation order is per-session), so per-session result
// sequences are bit-identical for any threads/shards setting — bench_fleet
// gates on exactly this.
//
// Admission control: open_session() refuses beyond max_sessions; offer()
// refuses when the fleet-wide queued-sample gauge would exceed
// max_queued_samples (a soft bound under concurrent producers); within a
// session the bounded queue accepts what fits and defers the rest to the
// producer, losslessly (see session.hpp). Telemetry for all of it is
// lock-free (telemetry.hpp) and snapshot-able as JSON while the engine
// runs.
//
// Threading contract: offer() is safe from any number of producer threads
// concurrently with pump()/pump_shard()/drain() drivers; open/close are
// serialized against both. A session's result sink runs on whichever thread
// pumps (or closes) that session's shard — serialized per session, but
// sinks of sessions on *different* shards may run concurrently, so a sink
// shared across sessions must synchronize its own state. Sinks must not
// call back into the engine.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "service/session.hpp"
#include "service/telemetry.hpp"

namespace hbrp::service {

struct FleetConfig {
  /// Executor threads (0 = hardware concurrency, 1 = fully serial).
  std::size_t threads = 1;
  /// Session shards per pump round (0 = one per executor thread).
  std::size_t shards = 0;
  /// Admission: maximum concurrently open sessions.
  std::size_t max_sessions = 64;
  /// Admission: fleet-wide bound on queued samples across all sessions.
  std::size_t max_queued_samples = 1u << 22;
  /// Per-session defaults for open_session() (queue bound, rate cap,
  /// monitor geometry).
  SessionConfig session;
  /// Version stamped on the engine's construction-time classifier (the
  /// default SessionModel every session starts on unless its SessionConfig
  /// names another). Hot-swapped bundles must carry a newer version.
  std::uint64_t initial_model_version = 1;
};

class FleetEngine {
 public:
  explicit FleetEngine(embedded::EmbeddedClassifier classifier,
                       FleetConfig cfg = {});
  /// Closes every remaining session WITHOUT invoking result sinks (their
  /// captures may already be dead). Close explicitly to get the tail beats.
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Admits a new session with the fleet-default SessionConfig; nullopt
  /// when the fleet is at max_sessions. Shard affinity is round-robin
  /// unless a hint pins it (hint is taken modulo shard_count()).
  std::optional<SessionId> open_session(ResultSink sink);
  std::optional<SessionId> open_session(ResultSink sink, SessionConfig cfg);
  std::optional<SessionId> open_session(ResultSink sink, SessionConfig cfg,
                                        std::size_t shard_hint);

  /// Flushes the session's remaining stream through the classifier,
  /// delivers the tail in order, and frees the slot. False if unknown.
  bool close_session(SessionId id);

  /// Enqueues ADC codes for `id`, applying fleet admission control; the
  /// session queue accepts the prefix that fits and defers the rest to
  /// the caller, who retries it after a pump. The session's monitor clamps
  /// codes outside the rails; a producer holding doubles converts them at
  /// its own edge (dsp::sanitize_lead). Safe from any thread.
  OfferOutcome offer(SessionId id, std::span<const dsp::Sample> samples);

  /// Runs one whole-fleet scheduling round — every shard body, through the
  /// executor (see file header); returns beats delivered.
  std::size_t pump();

  /// Runs one shard's pump body on the calling thread; returns beats
  /// delivered. Safe to call concurrently for *distinct* shards (the
  /// multi-reactor gateway pumps shard r from reactor thread r); same-shard
  /// calls serialize on the shard mutex. The shard's sinks run on the
  /// calling thread.
  std::size_t pump_shard(std::size_t shard);

  /// Pumps until every ingest queue is empty; returns beats delivered.
  /// Deferred samples live on the producer side and are not waited for.
  std::size_t drain();

  /// The engine's construction-time classifier wrapped as a versioned
  /// SessionModel (version = FleetConfig::initial_model_version, no
  /// bundled centroids, so sessions on it run with drift off).
  const std::shared_ptr<const SessionModel>& default_model() const {
    return default_model_;
  }

  // --- model hot-swap ------------------------------------------------------
  // Staging is thread-safe and non-blocking for the hot path: the new
  // model lands in a per-session mutex-guarded slot and is *applied* by
  // the session's owning pump thread at the top of its next pump round (a
  // beat boundary — in-flight beats finish on the old bundle). The model
  // must match the engine's geometry (window length and coefficient
  // count); version ordering is the registry's concern, not the engine's.

  /// Stages `model` onto one session; false when the id is unknown.
  bool stage_swap(SessionId id, std::shared_ptr<const SessionModel> model);
  /// Stages `model` onto every open session; returns how many were staged.
  std::size_t stage_swap_all(std::shared_ptr<const SessionModel> model);
  /// Stages `model` onto every open session whose SessionConfig::ab_arm
  /// equals `arm`; returns how many were staged.
  std::size_t stage_swap_arm(std::uint8_t arm,
                             std::shared_ptr<const SessionModel> model);
  /// The session's current model (nullptr when unknown). Single-writer
  /// pump-thread state: call only from the thread that pumps the
  /// session's shard, or while no pump is running.
  const SessionModel* session_model(SessionId id) const;

  std::size_t session_count() const;
  std::size_t queued_samples() const {
    return queued_samples_.load(std::memory_order_relaxed);
  }
  /// Queued samples across the sessions pinned to one shard (a reactor
  /// uses this to tell whether its own shard still has pump work).
  std::size_t shard_queued_samples(std::size_t shard) const;
  const FleetTelemetry& telemetry() const { return fleet_; }
  /// Live per-session counters; nullptr if unknown. The pointer is valid
  /// until the session is closed.
  const SessionTelemetry* session_telemetry(SessionId id) const;
  /// The session's drift tracker (nullptr when unknown or tracking is
  /// off). Safe to *read* only while no pump()/drain()/close is running —
  /// it is live pump-thread state, unlike the mirrored telemetry.
  const drift::DriftTracker* session_drift(SessionId id) const;
  /// Full snapshot: {"fleet": {...}, "sessions": [{...}, ...]}.
  std::string telemetry_json() const;

  const core::Executor& executor() const { return executor_; }
  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    /// Serializes pump bodies on this shard (distinct shards run freely).
    std::mutex mutex;
    /// Stable membership, id-sorted. Mutated only under the registry
    /// *unique* lock (open/close), read under the shared lock — so pump
    /// bodies and snapshots never race the list itself.
    std::vector<Session*> members;
    /// This round's windows to classify, back to back (slot i at
    /// [i * window, (i + 1) * window)).
    std::vector<dsp::Sample> windows;
    std::vector<ecg::BeatClass> classes;
    embedded::ClassifyScratch scratch;
    /// Cumulative slot count after each member's phase-1 drain: member i
    /// owns slots [run_ends[i-1], run_ends[i]). Lets phase 2 classify
    /// contiguous same-model runs when sessions run different bundles.
    std::vector<std::size_t> run_ends;
    /// Row-major integer projections for the whole batch (row = slot),
    /// gathered across the per-run classify calls so phase 3's drift
    /// observation indexes by slot exactly as before.
    std::vector<std::int32_t> u_all;
    /// Queued-sample gauge across member sessions (same soft-bound
    /// semantics as the fleet-wide gauge); O(1) for a reactor asking
    /// whether its own shard still has pump work.
    std::atomic<std::uint64_t> queued{0};
    // Rollup counters: written under `mutex`, read lock-free by snapshots.
    std::atomic<std::uint64_t> pumps{0};
    std::atomic<std::uint64_t> beats{0};
    std::atomic<std::uint64_t> drain_ns{0};
    std::atomic<std::uint64_t> classify_ns{0};
    std::atomic<std::uint64_t> deliver_ns{0};
  };

  /// Shard body: phases 1-3 for one shard. Caller holds the registry
  /// shared lock; the shard mutex is taken inside.
  std::size_t pump_shard_body(std::size_t shard);
  /// Admission + placement under the registry unique lock (held by caller).
  std::optional<SessionId> open_session_locked(ResultSink sink,
                                               SessionConfig cfg,
                                               std::size_t shard);
  /// Geometry guard + per-session staging (caller holds any registry lock).
  void stage_on(Session& session, std::shared_ptr<const SessionModel> model);
  /// The engine's window length and coefficient count: the default model's.
  const rp::BeatProjector& geometry() const {
    return default_model_->classifier.projector();
  }
  /// True when `model` has the engine's window length and coefficient count.
  bool same_geometry(const SessionModel& model) const {
    const rp::BeatProjector& p = model.classifier.projector();
    return p.expected_window() == geometry().expected_window() &&
           p.coefficients() == geometry().coefficients();
  }

  FleetConfig cfg_;
  /// The construction-time classifier — the engine's only copy — and the
  /// geometry every session and staged model must match.
  std::shared_ptr<const SessionModel> default_model_;
  core::Executor executor_;
  std::vector<std::unique_ptr<Shard>> shards_;  // non-movable: stable slots

  mutable std::shared_mutex registry_mutex_;
  std::map<SessionId, std::unique_ptr<Session>> sessions_;  // id order
  SessionId next_id_ = 1;
  std::size_t next_shard_ = 0;  // round-robin affinity cursor (unique lock)

  std::mutex pump_mutex_;  // one whole-fleet pump() round at a time
  std::atomic<std::uint64_t> queued_samples_{0};
  FleetTelemetry fleet_;
};

}  // namespace hbrp::service
