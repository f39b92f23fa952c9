// Lock-free telemetry for the fleet service layer.
//
// Every counter a production collector wants from a multi-patient streaming
// deployment, with the constraint that recording must never serialize the
// hot path: all state is relaxed std::atomic — per-session counters are
// written only by the pump shard that owns the session (so they are
// uncontended in steady state) and read by snapshot_json() from any thread
// without stopping the engine. Latencies go into a fixed power-of-two
// bucket histogram (no allocation, no locks) from which p50/p99 are read
// as bucket upper edges — exact enough for fleet dashboards, O(1) to
// record, and safely concurrent.
//
// Snapshots are emitted as JSON (see DESIGN.md §9 for the schema) so a
// host-side collector can scrape the engine without linking against it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace hbrp::service {

/// Relaxed-atomic running maximum (queue-depth high-water marks).
class AtomicMax {
 public:
  void note(std::uint64_t v) {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> max_{0};
};

/// Fixed-bucket latency histogram: bucket 0 holds [0, 1) us, bucket i >= 1
/// holds [2^(i-1), 2^i) us, the last bucket saturates (~33 s). Quantiles
/// are reported as the upper edge of the bucket containing the requested
/// rank, so they are conservative (never under-report latency).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 26;

  void record_us(double us);
  std::uint64_t count() const {
    return total_.load(std::memory_order_relaxed);
  }
  /// Upper bucket edge (us) at quantile q in (0, 1]; 0 when empty.
  double quantile_us(double q) const;
  double mean_us() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// Per-session counters. Ingest-side fields are updated under the session's
/// queue lock (offer path); processing-side fields are written only by the
/// pump shard currently servicing the session.
struct SessionTelemetry {
  std::atomic<std::uint64_t> samples_offered{0};
  std::atomic<std::uint64_t> samples_accepted{0};
  std::atomic<std::uint64_t> samples_deferred{0};  ///< queue full: retry later
  std::atomic<std::uint64_t> samples_rejected{0};  ///< admission refusal
  std::atomic<std::uint64_t> samples_processed{0};
  std::atomic<std::uint64_t> beats_out{0};
  std::atomic<std::uint64_t> pathological_beats{0};
  std::atomic<std::uint64_t> suspect_beats{0};
  /// Mirrored from core::MonitorStats after each pump round.
  std::atomic<std::uint64_t> sqi_degradations{0};
  std::atomic<std::uint64_t> sqi_recoveries{0};
  std::atomic<std::uint64_t> samples_clamped{0};  ///< out-of-rail codes
  std::atomic<std::uint64_t> bad_signal_samples{0};  ///< suppressed while Bad
  /// Mirrored from the session's drift::DriftTracker after each pump
  /// round; all zero when drift tracking is disabled.
  std::atomic<std::uint64_t> drift_beats{0};
  std::atomic<std::uint64_t> drift_novel_beats{0};
  std::atomic<std::uint64_t> drift_alarms{0};       ///< rising edges
  std::atomic<std::uint64_t> drift_alarm_active{0};  ///< 0/1 latch
  std::atomic<std::uint64_t> drift_score_ppm{0};  ///< windowed score * 1e6
  /// Version of the SessionModel currently classifying this session and
  /// the number of hot-swaps applied so far (schema v4; written by the
  /// owning pump thread when a staged swap lands at a beat boundary).
  std::atomic<std::uint64_t> model_version{0};
  std::atomic<std::uint64_t> swap_count{0};
  AtomicMax queue_high_water;
  LatencyHistogram latency;  ///< sample-ingest to result-delivery, per beat

  /// Fraction of delivered beats flagged pathological (V/L/Unknown).
  double pathological_rate() const;
  /// One JSON object (no trailing newline); `id` and the live queue depth
  /// are supplied by the engine.
  std::string json(std::uint64_t id, std::uint64_t queue_depth) const;
};

/// Fleet-level counters (admission control and pump activity).
struct FleetTelemetry {
  std::atomic<std::uint64_t> sessions_opened{0};
  std::atomic<std::uint64_t> sessions_closed{0};
  std::atomic<std::uint64_t> sessions_rejected{0};  ///< admission: max_sessions
  std::atomic<std::uint64_t> offers_rejected{0};    ///< admission: queue bound
  std::atomic<std::uint64_t> pumps{0};        ///< whole-fleet pump() rounds
  std::atomic<std::uint64_t> shard_pumps{0};  ///< per-shard pump bodies run
  std::atomic<std::uint64_t> batches{0};        ///< non-empty classify rounds
  std::atomic<std::uint64_t> batched_beats{0};  ///< windows classified in batch
  std::atomic<std::uint64_t> beats_out{0};
  /// Cumulative wall time spent in each pump phase, summed over shard
  /// bodies (so with S shards pumping concurrently the totals grow S times
  /// faster than wall clock — they measure work, not elapsed time). The
  /// drain/classify phases are the parallel halves of a shard body; the
  /// deliver phase is the per-shard serial half whose fraction decides how
  /// far the engine can scale.
  std::atomic<std::uint64_t> drain_ns{0};
  std::atomic<std::uint64_t> classify_ns{0};
  std::atomic<std::uint64_t> deliver_ns{0};
  /// Model-lifecycle rollup: swaps staged (by pushes/rollbacks) and swaps
  /// actually applied at a beat boundary (schema v4).
  std::atomic<std::uint64_t> swaps_staged{0};
  std::atomic<std::uint64_t> swaps_applied{0};
  /// Fleet-wide beat latency (sample-ingest to result-delivery), the union
  /// of every session's per-session histogram.
  LatencyHistogram latency;

  /// The drift arguments are the fleet-level novel-morphology rollup,
  /// aggregated over live sessions by the engine at snapshot time (they
  /// are per-session tracker state, not fleet counters).
  std::string json(std::uint64_t sessions_open, std::uint64_t queued_samples,
                   std::uint64_t drift_alarm_sessions = 0,
                   std::uint64_t drift_novel_beats = 0) const;
};

/// Version stamp for every telemetry/stats JSON snapshot this layer (and
/// the gateway) emits. Bump when fields change shape or meaning — readers
/// warn-skip keys they do not know, but use this to detect a format they
/// should not silently reinterpret. Version 2 added the drift_* fields;
/// version 3 added the pump phase timers, the per-shard rollup array and
/// the fleet-wide beat-latency histogram; version 4 added the model
/// lifecycle fields (per-session model_version/swap_count, fleet
/// swaps_staged/swaps_applied, gateway bundle-push counters); version 5
/// removed the per-session drift cluster count (the drift tracker keeps
/// no cluster map); version 6 removed the per-session eviction count
/// (session ingest is lossless: a queued sample is never evicted); version
/// 7 removed the per-session nonfinite_rejected count (sessions take ADC
/// codes; a producer holding doubles sanitizes them at its own edge);
/// version 8 added the per-session samples_clamped and bad_signal_samples
/// counts, mirrored from the session's monitor; version 9 added the
/// gateway's beat_summaries_rx and renamed its full_beat_dups to
/// upload_dups, which counts duplicate uploads of either frame.
inline constexpr std::uint64_t kTelemetrySchemaVersion = 9;

/// The snapshot writers' one field formatter: appends `"key": v` to `out`,
/// preceded by ", " unless `first` (a double never opens an object).
/// Integers print exactly, doubles as %.6g.
void append_field(std::string& out, const char* key, std::uint64_t v,
                  bool first = false);
void append_field(std::string& out, const char* key, double v);

}  // namespace hbrp::service
