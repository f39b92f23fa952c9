#include "service/session.hpp"

#include <algorithm>
#include <limits>

#include "ecg/types.hpp"
#include "math/check.hpp"

namespace hbrp::service {

namespace {
// Checked before monitor_ dereferences the model in the initializer list.
std::shared_ptr<const SessionModel> require_model(
    std::shared_ptr<const SessionModel> m) {
  HBRP_REQUIRE(m != nullptr, "Session: model must be non-null");
  return m;
}
}  // namespace

Session::Session(SessionId id, std::shared_ptr<const SessionModel> model,
                 SessionConfig cfg, ResultSink sink)
    : id_(id),
      cfg_(std::move(cfg)),
      model_(require_model(std::move(model))),
      monitor_(model_->classifier, cfg_.monitor),
      sink_(std::move(sink)) {
  HBRP_REQUIRE(cfg_.queue_capacity >= 1, "Session: queue_capacity must be >= 1");
  HBRP_REQUIRE(cfg_.max_samples_per_pump >= 1,
               "Session: max_samples_per_pump must be >= 1");
  reseed_drift();
  telemetry_.model_version.store(model_->version, std::memory_order_relaxed);
}

void Session::reseed_drift() {
  if (model_->centroids != nullptr)
    drift_.emplace(*model_->centroids, cfg_.drift);
  else
    drift_.reset();
}

void Session::apply_pending_swap() {
  if (!swap_pending_.load(std::memory_order_relaxed)) return;
  std::shared_ptr<const SessionModel> next;
  {
    const std::lock_guard<std::mutex> lock(swap_mutex_);
    next = std::move(pending_swap_);
    swap_pending_.store(false, std::memory_order_relaxed);
  }
  if (next == nullptr || next == model_) return;
  // The monitor holds no classifier, so the swap is this pointer move:
  // every beat classified from here on, close() tail included, runs on the
  // new bundle. Geometry equality was enforced when the swap was staged.
  model_ = std::move(next);
  // Fresh tracker, new seeds: the drift baseline is part of the bundle,
  // so alarms re-arm against the new centroids rather than comparing new
  // projections to the old model's geometry.
  reseed_drift();
  ++swap_count_;
  telemetry_.model_version.store(model_->version, std::memory_order_relaxed);
  telemetry_.swap_count.store(swap_count_, std::memory_order_relaxed);
  mirror_drift();
  if (fleet_telemetry_ != nullptr)
    fleet_telemetry_->swaps_applied.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Session::queued() const {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

OfferOutcome Session::enqueue(std::span<const dsp::Sample> samples,
                              Clock::time_point now) {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  OfferOutcome out;
  out.accepted =
      std::min(samples.size(), cfg_.queue_capacity - queue_.size());
  out.deferred = samples.size() - out.accepted;
  if (out.accepted > 0) {
    queue_.insert(queue_.end(), samples.begin(),
                  samples.begin() + static_cast<std::ptrdiff_t>(out.accepted));
    ingested_ += out.accepted;
    stamps_.push_back({ingested_, now});
  }

  telemetry_.samples_offered.fetch_add(samples.size(),
                                       std::memory_order_relaxed);
  telemetry_.samples_accepted.fetch_add(out.accepted,
                                        std::memory_order_relaxed);
  telemetry_.samples_deferred.fetch_add(out.deferred,
                                        std::memory_order_relaxed);
  telemetry_.queue_high_water.note(queue_.size());
  return out;
}

std::size_t Session::begin_drain(std::size_t limit) {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  const std::size_t take = std::min(limit, queue_.size());
  drain_buf_.assign(queue_.begin(),
                    queue_.begin() + static_cast<std::ptrdiff_t>(take));
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(take));
  drain_base_ = front_pos_;
  front_pos_ += take;
  drain_stamps_.clear();
  for (const Stamp& s : stamps_) {
    drain_stamps_.push_back(s);
    if (s.upto >= front_pos_) break;
  }
  while (!stamps_.empty() && stamps_.front().upto <= front_pos_)
    stamps_.pop_front();
  return take;
}

void Session::process_drained(std::vector<dsp::Sample>& windows,
                              bool flush) {
  std::size_t stamp_i = 0;
  Clock::time_point current_stamp{};
  if (!drain_stamps_.empty()) current_stamp = drain_stamps_.front().at;
  const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
    Pending p;
    p.beat = pb.beat;
    p.needs_classification = pb.needs_classification;
    p.enqueued_at = current_stamp;
    if (pb.needs_classification) {
      p.slot = static_cast<std::uint32_t>(windows.size() / pb.window.size());
      windows.insert(windows.end(), pb.window.begin(), pb.window.end());
    }
    pending_.push_back(p);
  };
  // Feed the drained samples in stamp-delimited blocks: every sample in a
  // block shares its enqueue stamp, so the monitor's block path (which
  // batches conditioning across the whole run) sees the same per-beat
  // stamps the old per-sample loop produced.
  std::size_t i = 0;
  while (i < drain_buf_.size()) {
    const std::uint64_t absolute = drain_base_ + i;
    while (stamp_i < drain_stamps_.size() &&
           drain_stamps_[stamp_i].upto <= absolute)
      ++stamp_i;
    std::size_t end = drain_buf_.size();
    if (stamp_i < drain_stamps_.size()) {
      current_stamp = drain_stamps_[stamp_i].at;
      const std::uint64_t upto = drain_stamps_[stamp_i].upto;
      if (upto - drain_base_ < end)
        end = static_cast<std::size_t>(upto - drain_base_);
    }
    monitor_.push_block(
        std::span<const dsp::Sample>(drain_buf_.data() + i, end - i), sink);
    i = end;
  }
  telemetry_.samples_processed.fetch_add(drain_buf_.size(),
                                         std::memory_order_relaxed);
  drain_buf_.clear();
  if (flush) {
    // No queued sample finalized the flush's beats: stamp them now.
    current_stamp = Clock::now();
    monitor_.flush(sink);
  }
}

std::size_t Session::deliver(std::span<const ecg::BeatClass> shard_classes,
                             std::span<const std::int32_t> shard_u,
                             std::size_t coefficients) {
  for (Pending& p : pending_) {
    if (p.needs_classification) {
      p.beat.predicted = shard_classes[p.slot];
      if (drift_.has_value()) {
        // The batch's projections are observed here, in the serial
        // delivery phase, so the tracker sees beats in per-session
        // sequence order regardless of how the parallel classify phase
        // was sharded. Suspect beats (needs_classification == false)
        // carry no projection and are skipped.
        drift_->observe(shard_u.subspan(p.slot * coefficients, coefficients),
                        !ecg::is_pathological(p.beat.predicted));
      }
    }
    deliver_one(p.beat, p.enqueued_at);
  }
  const std::size_t n = pending_.size();
  pending_.clear();
  mirror_monitor_stats();
  mirror_drift();
  return n;
}

void Session::deliver_one(const core::MonitorBeat& beat,
                          Clock::time_point enqueued_at) {
  SessionResult result;
  result.session = id_;
  result.sequence = next_sequence_++;
  result.model_version = model_->version;
  result.beat = beat;
  telemetry_.beats_out.fetch_add(1, std::memory_order_relaxed);
  if (ecg::is_pathological(beat.predicted))
    telemetry_.pathological_beats.fetch_add(1, std::memory_order_relaxed);
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - enqueued_at)
          .count();
  telemetry_.latency.record_us(us);
  if (fleet_telemetry_ != nullptr) fleet_telemetry_->latency.record_us(us);
  if (sink_) sink_(result);
}

void Session::mirror_monitor_stats() {
  const core::MonitorStats& stats = monitor_.stats();
  telemetry_.suspect_beats.store(stats.suspect_beats,
                                 std::memory_order_relaxed);
  telemetry_.sqi_degradations.store(stats.degradations,
                                    std::memory_order_relaxed);
  telemetry_.sqi_recoveries.store(stats.recoveries,
                                  std::memory_order_relaxed);
  telemetry_.samples_clamped.store(stats.clamped, std::memory_order_relaxed);
  telemetry_.bad_signal_samples.store(stats.bad_signal_samples,
                                      std::memory_order_relaxed);
}

void Session::mirror_drift() {
  if (!drift_.has_value()) return;
  const drift::DriftTracker& t = *drift_;
  telemetry_.drift_beats.store(t.beats(), std::memory_order_relaxed);
  telemetry_.drift_novel_beats.store(t.novel_beats(),
                                     std::memory_order_relaxed);
  telemetry_.drift_alarms.store(t.alarms(), std::memory_order_relaxed);
  telemetry_.drift_alarm_active.store(t.alarm_active() ? 1 : 0,
                                      std::memory_order_relaxed);
  telemetry_.drift_score_ppm.store(
      static_cast<std::uint64_t>(t.score() * 1e6 + 0.5),
      std::memory_order_relaxed);
}

std::size_t Session::close() {
  // Close is a beat boundary too: a swap staged after the session's last
  // pump round still lands before the tail is drained, so the tail's
  // verdicts carry the version the fleet believes is deployed.
  apply_pending_swap();
  // The tail takes the pump round's own path over a close-local batch: the
  // whole queue (no rate cap) and the monitor's flush, one classify_batch,
  // one deliver().
  const std::size_t removed =
      begin_drain(std::numeric_limits<std::size_t>::max());
  const embedded::EmbeddedClassifier& classifier = model_->classifier;
  std::vector<dsp::Sample> windows;
  process_drained(windows, /*flush=*/true);
  const std::size_t count =
      windows.size() / classifier.projector().expected_window();
  std::vector<ecg::BeatClass> classes(count);
  embedded::ClassifyScratch scratch;
  if (count > 0)
    classifier.classify_batch(windows, count, classes, scratch);
  deliver(classes, scratch.u, classifier.projector().coefficients());
  return removed;
}

}  // namespace hbrp::service
