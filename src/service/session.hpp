// One patient stream inside the fleet engine.
//
// A Session owns everything that is per-patient: the fault-tolerant
// StreamingBeatMonitor (with its own SQI/degradation state), a bounded
// MPSC ingest queue of ADC codes (dsp::Sample, 2 bytes each: a producer
// holding doubles sanitizes them at its own edge before it offers), the
// monotonically sequenced result log, and the session's telemetry
// counters. Producers (radio threads, replay harnesses) call
// FleetEngine::offer() from any thread; the engine's pump()
// drains each session on exactly one shard per round, so all monitor state
// is single-writer and needs no lock — only the ingest queue itself is
// mutex-guarded, and only for the few microseconds of a bulk enqueue or
// dequeue.
//
// Ingest is lossless. When an offer does not fit the bounded queue, the
// queue accepts the prefix that fits and returns the remainder as
// *deferred* (un-consumed): the producer stalls its stream and retries
// after the next pump. The queue never drops a sample, so a producer that
// retries its deferred remainder loses nothing.
//
// Each session classifies and observes drift in one place. The monitor only
// finds and grades beats; their windows go back to back into one sample
// vector — the shard's on a pump round, a local one in close() — one
// classify_batch call labels them, and deliver() patches the classes in,
// feeds each projection to the drift tracker and hands the beats out in
// sequence order.
//
// Per-beat latency is measured end to end (sample enqueued -> result
// delivered): each offer is stamped with its arrival time and the stamp
// rides along until the beat it finalizes is handed to the result sink.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/streaming.hpp"
#include "drift/tracker.hpp"
#include "service/telemetry.hpp"

namespace hbrp::service {

using SessionId = std::uint64_t;

/// A versioned, immutable deployment unit: the quantized classifier plus
/// the drift centroid seeds it was exported with, under one monotonic
/// version. Sessions hold these by shared_ptr so a whole ward references
/// one instance per version; the lifecycle registry (src/lifecycle) pins
/// and reclaims them by that same ref-count. The model is the only source
/// of a session's drift seeds, which is what keeps a classifier and its
/// seeds from ever skewing after a hot-swap.
struct SessionModel {
  std::uint64_t version = 0;
  embedded::EmbeddedClassifier classifier;
  /// Drift seeds exported alongside the classifier; null disables drift
  /// tracking for sessions running this model.
  std::shared_ptr<const drift::TrainingCentroids> centroids;
};

struct SessionConfig {
  core::MonitorConfig monitor;
  /// Ingest queue bound, in samples (default ~45 s at 360 Hz).
  std::size_t queue_capacity = 1u << 14;
  /// Per-session rate cap: at most this many queued samples are serviced
  /// per FleetEngine::pump() round, so one chatty node cannot starve the
  /// rest of its shard.
  std::size_t max_samples_per_pump = 1u << 13;
  /// Tuning for opt-in RP-space morphology drift tracking. When the
  /// session's model carries centroids (SessionModel::centroids), the
  /// session owns a drift::DriftTracker seeded from them and observes every
  /// classified beat's projection in deliver(), the serial delivery phase
  /// that pump rounds and close() share — so the observation order equals
  /// the delivery order and the tracker state is bit-identical for any
  /// thread/shard count. Tracker state is mirrored into SessionTelemetry
  /// after every delivery.
  drift::DriftConfig drift;
  /// Versioned model this session starts on; when null the engine's
  /// default model (its construction-time classifier at version
  /// `FleetConfig::initial_model_version`) is used.
  std::shared_ptr<const SessionModel> model;
  /// A/B arm assignment (0 = incumbent arm). Set by the gateway at HELLO
  /// from the lifecycle AbSplit; FleetEngine::stage_swap_arm() targets
  /// sessions by this tag.
  std::uint8_t ab_arm = 0;
};

/// What happened to the `n` samples of one offer: accepted + deferred +
/// rejected == n. The session queue accepts the prefix that fits and
/// defers the rest; admission (unknown session, the fleet-wide queued
/// sample bound) rejects the whole offer.
struct OfferOutcome {
  std::size_t accepted = 0;
  std::size_t deferred = 0;
  std::size_t rejected = 0;
};

/// One classified beat leaving the fleet engine. `sequence` is dense and
/// strictly increasing per session — the delivery order contract.
struct SessionResult {
  SessionId session = 0;
  std::uint64_t sequence = 0;
  /// Version of the SessionModel that classified this beat — the verdict's
  /// provenance tag (telemetry schema v4).
  std::uint64_t model_version = 0;
  core::MonitorBeat beat;
};

using ResultSink = std::function<void(const SessionResult&)>;

class Session {
 public:
  /// `model` must be non-null; its centroids seed the optional drift
  /// tracker.
  Session(SessionId id, std::shared_ptr<const SessionModel> model,
          SessionConfig cfg, ResultSink sink);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SessionId id() const { return id_; }
  const SessionConfig& config() const { return cfg_; }
  const SessionTelemetry& telemetry() const { return telemetry_; }
  /// Current ingest queue depth (thread-safe).
  std::size_t queued() const;
  /// Results delivered so far (single-writer: pump/close thread).
  std::uint64_t delivered() const { return next_sequence_; }
  /// The model currently classifying this session's beats. Read it only
  /// between pump rounds (single-writer: the pump thread).
  const SessionModel& model() const { return *model_; }
  /// Applied hot-swaps so far (single-writer: the pump thread).
  std::uint64_t swap_count() const { return swap_count_; }
  /// The session's drift tracker, or nullptr when tracking is disabled.
  /// Read it only between pump rounds (single-writer: the pump thread).
  const drift::DriftTracker* drift_tracker() const {
    return drift_.has_value() ? &*drift_ : nullptr;
  }

 private:
  friend class FleetEngine;

  using Clock = std::chrono::steady_clock;

  /// A beat finalized during this pump round, awaiting classification
  /// and in-order delivery. `slot` indexes the owning shard's windows.
  struct Pending {
    core::MonitorBeat beat;
    std::uint32_t slot = 0;
    bool needs_classification = false;
    Clock::time_point enqueued_at;
  };

  /// Enqueues the prefix of `samples` (ADC codes) that fits under the
  /// queue lock and defers the rest; the queue grows by exactly `accepted`.
  OfferOutcome enqueue(std::span<const dsp::Sample> samples,
                       Clock::time_point now);
  /// Moves up to `limit` queued samples (and their arrival stamps) into the
  /// drain buffers; returns how many. Pump rounds pass
  /// max_samples_per_pump, close() the whole queue.
  std::size_t begin_drain(std::size_t limit);
  /// Feeds the drained samples through the monitor — then, when `flush`,
  /// its buffered tail — appending windows that need classification to
  /// `windows`, back to back, and recording a Pending for every finalized
  /// beat. Called from the owning pump shard, or by close().
  void process_drained(std::vector<dsp::Sample>& windows, bool flush = false);
  /// Delivers this round's pending beats in order, patching predictions
  /// from `shard_classes` (classify_batch's output over the windows the
  /// pending slots index: the shard's, or close()'s own) and — when drift
  /// tracking is on — observing each batch-classified beat's projection
  /// out of `shard_u` (that call's count x `coefficients` row-major integer
  /// coefficients; row index = Pending::slot). Returns the number of beats
  /// delivered.
  std::size_t deliver(std::span<const ecg::BeatClass> shard_classes,
                      std::span<const std::int32_t> shard_u,
                      std::size_t coefficients);
  /// Drains whatever is still queued and the monitor's flush tail down the
  /// pump round's path — windows, classify_batch, deliver() — on the calling
  /// thread; returns the number of queued samples consumed (for the
  /// fleet-wide gauge).
  std::size_t close();

  void deliver_one(const core::MonitorBeat& beat, Clock::time_point enq);
  void mirror_monitor_stats();
  void mirror_drift();
  /// (Re)seeds the drift tracker from the current model's centroids, or
  /// drops it when the model has none. Owning pump thread only.
  void reseed_drift();
  /// If a swap is staged, installs it: switches the session's model,
  /// re-seeds the drift tracker from the new bundle's centroids, and bumps
  /// model_version/swap_count telemetry. Called by the owning pump thread
  /// at the top of its pump round (and by close()), i.e. at a beat
  /// boundary — every beat delivered before the call carries the old
  /// version, every beat after it the new one.
  void apply_pending_swap();

  const SessionId id_;
  const SessionConfig cfg_;
  /// Current model; written only by the owning pump thread (apply), read
  /// by the same thread during classify/deliver.
  std::shared_ptr<const SessionModel> model_;
  std::optional<drift::DriftTracker> drift_;
  core::StreamingBeatMonitor monitor_;
  ResultSink sink_;

  // Hot-swap staging: any thread may stage (mutex-guarded), only the
  // owning pump thread applies. The atomic flag is a cheap hint so the
  // pump round's fast path never takes the mutex.
  std::mutex swap_mutex_;
  std::shared_ptr<const SessionModel> pending_swap_;
  std::atomic<bool> swap_pending_{false};
  std::uint64_t swap_count_ = 0;
  SessionTelemetry telemetry_;
  /// Fleet-wide rollup (latency histogram); set by the engine at admission,
  /// null for a free-standing Session.
  FleetTelemetry* fleet_telemetry_ = nullptr;
  /// Stable shard affinity, assigned once at open_session() and never
  /// migrated, so the same shard (and under the gateway, the same reactor
  /// thread) services this session on every pump round.
  std::size_t shard_ = 0;

  // Ingest queue of ADC codes. `front_pos_` is the absolute stream index of
  // queue_[0]; stamps_ maps absolute index ranges (everything up to `upto`)
  // to the offer arrival time, compressed to one entry per offer call.
  mutable std::mutex queue_mutex_;
  std::deque<dsp::Sample> queue_;
  struct Stamp {
    std::uint64_t upto = 0;
    Clock::time_point at;
  };
  std::deque<Stamp> stamps_;
  std::uint64_t ingested_ = 0;
  std::uint64_t front_pos_ = 0;

  // Drain buffers, touched only by the owning pump shard.
  std::vector<dsp::Sample> drain_buf_;
  std::vector<Stamp> drain_stamps_;
  std::uint64_t drain_base_ = 0;
  std::vector<Pending> pending_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace hbrp::service
