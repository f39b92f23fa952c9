#include "service/telemetry.hpp"

#include <cmath>

namespace hbrp::service {

void append_field(std::string& out, const char* key, std::uint64_t v,
                  bool first) {
  if (!first) out += ", ";
  out += '"';
  out += key;
  out += "\": ";
  out += std::to_string(v);
}

void append_field(std::string& out, const char* key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += ", \"";
  out += key;
  out += "\": ";
  out += buf;
}

void LatencyHistogram::record_us(double us) {
  std::size_t idx = 0;
  if (us >= 1.0) {
    idx = 1 + static_cast<std::size_t>(std::floor(std::log2(us)));
    if (idx >= kBuckets) idx = kBuckets - 1;
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us > 0.0 ? static_cast<std::uint64_t>(us + 0.5) : 0,
                    std::memory_order_relaxed);
}

double LatencyHistogram::quantile_us(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * total));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return std::ldexp(1.0, static_cast<int>(i));
  }
  return std::ldexp(1.0, static_cast<int>(kBuckets - 1));
}

double LatencyHistogram::mean_us() const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
         static_cast<double>(total);
}

double SessionTelemetry::pathological_rate() const {
  const std::uint64_t beats = beats_out.load(std::memory_order_relaxed);
  if (beats == 0) return 0.0;
  return static_cast<double>(
             pathological_beats.load(std::memory_order_relaxed)) /
         static_cast<double>(beats);
}

std::string SessionTelemetry::json(std::uint64_t id,
                                   std::uint64_t queue_depth) const {
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::string out = "{";
  append_field(out, "schema_version", kTelemetrySchemaVersion,
               /*first=*/true);
  append_field(out, "id", id);
  append_field(out, "samples_offered", load(samples_offered));
  append_field(out, "samples_accepted", load(samples_accepted));
  append_field(out, "samples_deferred", load(samples_deferred));
  append_field(out, "samples_rejected", load(samples_rejected));
  append_field(out, "samples_processed", load(samples_processed));
  append_field(out, "beats_out", load(beats_out));
  append_field(out, "pathological_beats", load(pathological_beats));
  append_field(out, "pathological_rate", pathological_rate());
  append_field(out, "suspect_beats", load(suspect_beats));
  append_field(out, "sqi_degradations", load(sqi_degradations));
  append_field(out, "sqi_recoveries", load(sqi_recoveries));
  append_field(out, "nonfinite_rejected", load(nonfinite_rejected));
  append_field(out, "drift_beats", load(drift_beats));
  append_field(out, "drift_novel_beats", load(drift_novel_beats));
  append_field(out, "drift_alarms", load(drift_alarms));
  append_field(out, "drift_alarm_active", load(drift_alarm_active));
  append_field(out, "drift_score",
               static_cast<double>(load(drift_score_ppm)) / 1e6);
  append_field(out, "model_version", load(model_version));
  append_field(out, "swap_count", load(swap_count));
  append_field(out, "queue_depth", queue_depth);
  append_field(out, "queue_high_water", queue_high_water.value());
  append_field(out, "beat_latency_count", latency.count());
  append_field(out, "beat_latency_mean_us", latency.mean_us());
  append_field(out, "beat_latency_p50_us", latency.quantile_us(0.50));
  append_field(out, "beat_latency_p99_us", latency.quantile_us(0.99));
  out += "}";
  return out;
}

std::string FleetTelemetry::json(std::uint64_t sessions_open,
                                 std::uint64_t queued_samples,
                                 std::uint64_t drift_alarm_sessions,
                                 std::uint64_t drift_novel_beats) const {
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::string out = "{";
  append_field(out, "schema_version", kTelemetrySchemaVersion,
               /*first=*/true);
  append_field(out, "sessions_open", sessions_open);
  append_field(out, "sessions_opened", load(sessions_opened));
  append_field(out, "sessions_closed", load(sessions_closed));
  append_field(out, "sessions_rejected", load(sessions_rejected));
  append_field(out, "offers_rejected", load(offers_rejected));
  append_field(out, "queued_samples", queued_samples);
  append_field(out, "pumps", load(pumps));
  append_field(out, "shard_pumps", load(shard_pumps));
  append_field(out, "batches", load(batches));
  append_field(out, "batched_beats", load(batched_beats));
  append_field(out, "beats_out", load(beats_out));
  append_field(out, "pump_drain_s", static_cast<double>(load(drain_ns)) / 1e9);
  append_field(out, "pump_classify_s",
               static_cast<double>(load(classify_ns)) / 1e9);
  append_field(out, "pump_deliver_s",
               static_cast<double>(load(deliver_ns)) / 1e9);
  append_field(out, "swaps_staged", load(swaps_staged));
  append_field(out, "swaps_applied", load(swaps_applied));
  append_field(out, "beat_latency_count", latency.count());
  append_field(out, "beat_latency_p50_us", latency.quantile_us(0.50));
  append_field(out, "beat_latency_p99_us", latency.quantile_us(0.99));
  append_field(out, "drift_alarm_sessions", drift_alarm_sessions);
  append_field(out, "drift_novel_beats", drift_novel_beats);
  out += "}";
  return out;
}

}  // namespace hbrp::service
