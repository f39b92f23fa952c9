#include "service/fleet.hpp"

#include <algorithm>
#include <chrono>

#include "math/check.hpp"

namespace hbrp::service {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t ns_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

FleetEngine::FleetEngine(embedded::EmbeddedClassifier classifier,
                         FleetConfig cfg)
    : cfg_(std::move(cfg)),
      // No bundled centroids on the default model: sessions opened against
      // it run with drift off. Drift seeds arrive only via
      // SessionConfig::model or a staged swap.
      default_model_(std::make_shared<const SessionModel>(SessionModel{
          cfg_.initial_model_version, std::move(classifier), nullptr})),
      executor_(cfg_.threads) {
  HBRP_REQUIRE(cfg_.max_sessions >= 1, "FleetEngine: max_sessions must be >= 1");
  const std::size_t shards =
      std::max<std::size_t>(1, cfg_.shards != 0 ? cfg_.shards
                                                : executor_.threads());
  const std::size_t window = geometry().expected_window();
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    shards_.push_back(std::make_unique<Shard>(window));
}

FleetEngine::~FleetEngine() {
  const std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  for (auto& [id, session] : sessions_) {
    // Sinks may capture state that outlives the engine only if the caller
    // closed the session explicitly; at destruction they must not fire.
    session->sink_ = nullptr;
    session->close();
    fleet_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  }
  sessions_.clear();
  for (auto& shard : shards_) shard->members.clear();
}

std::optional<SessionId> FleetEngine::open_session(ResultSink sink) {
  return open_session(std::move(sink), cfg_.session);
}

std::optional<SessionId> FleetEngine::open_session(ResultSink sink,
                                                   SessionConfig cfg) {
  const std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  const std::size_t shard = next_shard_;
  next_shard_ = (next_shard_ + 1) % shards_.size();
  return open_session_locked(std::move(sink), std::move(cfg), shard);
}

std::optional<SessionId> FleetEngine::open_session(ResultSink sink,
                                                   SessionConfig cfg,
                                                   std::size_t shard_hint) {
  const std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  return open_session_locked(std::move(sink), std::move(cfg),
                             shard_hint % shards_.size());
}

std::optional<SessionId> FleetEngine::open_session_locked(ResultSink sink,
                                                          SessionConfig cfg,
                                                          std::size_t shard) {
  if (sessions_.size() >= cfg_.max_sessions) {
    fleet_.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const SessionId id = next_id_++;
  std::shared_ptr<const SessionModel> model =
      cfg.model != nullptr ? cfg.model : default_model_;
  HBRP_REQUIRE(same_geometry(*model),
               "FleetEngine: session model geometry differs from the engine");
  auto session = std::make_unique<Session>(id, std::move(model),
                                           std::move(cfg), std::move(sink));
  session->fleet_telemetry_ = &fleet_;
  session->shard_ = shard;
  // Session ids are monotonic, so push_back keeps the member list id-sorted.
  shards_[shard]->members.push_back(session.get());
  sessions_.emplace(id, std::move(session));
  fleet_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  return id;
}

bool FleetEngine::close_session(SessionId id) {
  std::unique_ptr<Session> victim;
  {
    const std::unique_lock<std::shared_mutex> lock(registry_mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    victim = std::move(it->second);
    sessions_.erase(it);
    auto& members = shards_[victim->shard_]->members;
    members.erase(std::remove(members.begin(), members.end(), victim.get()),
                  members.end());
  }
  // The tail flush classifies and delivers on the calling thread, outside
  // the registry lock so producers and the pumps are not stalled by it. The
  // victim is already invisible to every shard body, so no pump races it.
  const std::uint64_t before = victim->delivered();
  const std::size_t removed = victim->close();
  queued_samples_.fetch_sub(removed, std::memory_order_relaxed);
  shards_[victim->shard_]->queued.fetch_sub(removed,
                                            std::memory_order_relaxed);
  fleet_.beats_out.fetch_add(victim->delivered() - before,
                             std::memory_order_relaxed);
  fleet_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FleetEngine::stage_on(Session& session,
                           std::shared_ptr<const SessionModel> model) {
  HBRP_REQUIRE(model != nullptr, "FleetEngine: staged model must be non-null");
  HBRP_REQUIRE(same_geometry(*model),
               "FleetEngine: staged model geometry differs from the engine");
  {
    const std::lock_guard<std::mutex> lock(session.swap_mutex_);
    session.pending_swap_ = std::move(model);
  }
  session.swap_pending_.store(true, std::memory_order_relaxed);
  fleet_.swaps_staged.fetch_add(1, std::memory_order_relaxed);
}

bool FleetEngine::stage_swap(SessionId id,
                             std::shared_ptr<const SessionModel> model) {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  stage_on(*it->second, std::move(model));
  return true;
}

std::size_t FleetEngine::stage_swap_all(
    std::shared_ptr<const SessionModel> model) {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  for (auto& [id, session] : sessions_) stage_on(*session, model);
  return sessions_.size();
}

std::size_t FleetEngine::stage_swap_arm(
    std::uint8_t arm, std::shared_ptr<const SessionModel> model) {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  std::size_t staged = 0;
  for (auto& [id, session] : sessions_) {
    if (session->config().ab_arm != arm) continue;
    stage_on(*session, model);
    ++staged;
  }
  return staged;
}

const SessionModel* FleetEngine::session_model(SessionId id) const {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second->model();
}

OfferOutcome FleetEngine::offer(SessionId id,
                                std::span<const dsp::Sample> samples) {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  const auto it = sessions_.find(id);
  OfferOutcome out;
  if (it == sessions_.end()) {
    out.rejected = samples.size();
    return out;
  }
  Session& session = *it->second;
  if (queued_samples_.load(std::memory_order_relaxed) + samples.size() >
      cfg_.max_queued_samples) {
    fleet_.offers_rejected.fetch_add(1, std::memory_order_relaxed);
    session.telemetry_.samples_offered.fetch_add(samples.size(),
                                                 std::memory_order_relaxed);
    session.telemetry_.samples_rejected.fetch_add(samples.size(),
                                                  std::memory_order_relaxed);
    out.rejected = samples.size();
    return out;
  }
  out = session.enqueue(samples, Session::Clock::now());
  queued_samples_.fetch_add(out.accepted, std::memory_order_relaxed);
  shards_[session.shard_]->queued.fetch_add(out.accepted,
                                            std::memory_order_relaxed);
  return out;
}

std::size_t FleetEngine::pump_shard_body(std::size_t s) {
  Shard& shard = *shards_[s];
  const std::lock_guard<std::mutex> shard_lock(shard.mutex);
  if (shard.members.empty()) return 0;
  const SteadyClock::time_point t0 = SteadyClock::now();

  // Phase 1: drain + window. Each member session is serviced by exactly
  // this shard and the shard writes only its own batch and scratch — the
  // core::Executor single-writer discipline, now held per reactor too.
  // Staged model swaps are installed first, before any sample of this
  // round is drained: the pump-round edge is a beat boundary, so every
  // beat delivered last round carries the old bundle's version and every
  // beat from here on the new one.
  shard.batch.clear();
  shard.run_ends.clear();
  std::uint64_t drained = 0;
  for (Session* session : shard.members) {
    session->apply_pending_swap();
    drained += session->begin_drain(session->config().max_samples_per_pump);
    session->process_drained(shard.batch);
    shard.run_ends.push_back(shard.batch.size());
  }
  queued_samples_.fetch_sub(drained, std::memory_order_relaxed);
  shard.queued.fetch_sub(drained, std::memory_order_relaxed);
  const SteadyClock::time_point t1 = SteadyClock::now();

  // Phase 2: classify the cross-session batch. Members drain in order, so
  // each session's windows are a contiguous slot run; consecutive members
  // sharing one SessionModel collapse into a single classify_batch sweep —
  // with a fleet on one model (the steady state) this is exactly the old
  // whole-batch call. Per-run projections are gathered into u_all so slot
  // indexing survives the split.
  const std::size_t k = geometry().coefficients();
  const std::size_t window = geometry().expected_window();
  shard.classes.resize(shard.batch.size());
  shard.u_all.resize(shard.batch.size() * k);
  if (!shard.batch.empty()) {
    const std::span<const dsp::Sample> windows = shard.batch.windows();
    std::size_t begin_slot = 0;
    std::size_t m = 0;
    while (m < shard.members.size()) {
      const SessionModel* model = &shard.members[m]->model();
      std::size_t m_end = m + 1;
      while (m_end < shard.members.size() &&
             &shard.members[m_end]->model() == model)
        ++m_end;
      const std::size_t end_slot = shard.run_ends[m_end - 1];
      const std::size_t count = end_slot - begin_slot;
      if (count > 0) {
        model->classifier.classify_batch(
            windows.subspan(begin_slot * window, count * window), count,
            std::span<ecg::BeatClass>(shard.classes.data() + begin_slot,
                                      count),
            shard.scratch);
        std::copy_n(shard.scratch.u.data(), count * k,
                    shard.u_all.data() + begin_slot * k);
      }
      begin_slot = end_slot;
      m = m_end;
    }
  }
  const SteadyClock::time_point t2 = SteadyClock::now();

  // Phase 3: in-order delivery, serial within the shard only. u_all holds
  // this round's row-major integer projections (row = slot), so
  // drift-enabled sessions observe them here at zero extra projection
  // cost — in per-session delivery order, keeping tracker state
  // bit-identical across thread/shard/reactor counts.
  std::size_t beats = 0;
  for (Session* session : shard.members)
    beats += session->deliver(
        shard.classes,
        std::span<const std::int32_t>(shard.u_all.data(), shard.u_all.size()),
        k);
  const SteadyClock::time_point t3 = SteadyClock::now();

  shard.pumps.fetch_add(1, std::memory_order_relaxed);
  shard.beats.fetch_add(beats, std::memory_order_relaxed);
  shard.drain_ns.fetch_add(ns_between(t0, t1), std::memory_order_relaxed);
  shard.classify_ns.fetch_add(ns_between(t1, t2), std::memory_order_relaxed);
  shard.deliver_ns.fetch_add(ns_between(t2, t3), std::memory_order_relaxed);

  fleet_.shard_pumps.fetch_add(1, std::memory_order_relaxed);
  fleet_.drain_ns.fetch_add(ns_between(t0, t1), std::memory_order_relaxed);
  fleet_.classify_ns.fetch_add(ns_between(t1, t2), std::memory_order_relaxed);
  fleet_.deliver_ns.fetch_add(ns_between(t2, t3), std::memory_order_relaxed);
  if (!shard.batch.empty()) {
    fleet_.batches.fetch_add(1, std::memory_order_relaxed);
    fleet_.batched_beats.fetch_add(shard.batch.size(),
                                   std::memory_order_relaxed);
  }
  fleet_.beats_out.fetch_add(beats, std::memory_order_relaxed);
  return beats;
}

std::size_t FleetEngine::pump_shard(std::size_t shard) {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  HBRP_REQUIRE(shard < shards_.size(), "FleetEngine: shard out of range");
  return pump_shard_body(shard);
}

std::size_t FleetEngine::pump() {
  const std::lock_guard<std::mutex> pump_lock(pump_mutex_);
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  fleet_.pumps.fetch_add(1, std::memory_order_relaxed);
  if (sessions_.empty()) return 0;

  std::atomic<std::uint64_t> beats{0};
  executor_.parallel_for(shards_.size(), [&](std::size_t s) {
    beats.fetch_add(pump_shard_body(s), std::memory_order_relaxed);
  });
  return static_cast<std::size_t>(beats.load(std::memory_order_relaxed));
}

std::size_t FleetEngine::drain() {
  std::size_t beats = 0;
  std::uint64_t before = queued_samples();
  while (before > 0) {
    const std::size_t delivered = pump();
    beats += delivered;
    const std::uint64_t after = queued_samples();
    // Defensive: a round that consumed nothing and delivered nothing means
    // the gauge and the queues disagree — stop instead of spinning.
    if (after >= before && delivered == 0) break;
    before = after;
  }
  return beats;
}

std::size_t FleetEngine::session_count() const {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  return sessions_.size();
}

std::size_t FleetEngine::shard_queued_samples(std::size_t shard) const {
  if (shard >= shards_.size()) return 0;
  return shards_[shard]->queued.load(std::memory_order_relaxed);
}

const SessionTelemetry* FleetEngine::session_telemetry(SessionId id) const {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second->telemetry();
}

const drift::DriftTracker* FleetEngine::session_drift(SessionId id) const {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second->drift_tracker();
}

std::string FleetEngine::telemetry_json() const {
  const std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  // Fleet-level novel-morphology rollup, aggregated from the per-session
  // mirrors (relaxed atomics — never the live trackers, which belong to
  // the pump thread).
  std::uint64_t alarm_sessions = 0;
  std::uint64_t novel_beats = 0;
  for (const auto& [id, session] : sessions_) {
    const SessionTelemetry& t = session->telemetry();
    alarm_sessions +=
        t.drift_alarm_active.load(std::memory_order_relaxed) != 0 ? 1 : 0;
    novel_beats += t.drift_novel_beats.load(std::memory_order_relaxed);
  }
  std::string out = "{\n  \"fleet\": ";
  out += fleet_.json(sessions_.size(), queued_samples(), alarm_sessions,
                     novel_beats);
  out += ",\n  \"shards\": [";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    const auto load = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    const auto seconds = [&load](const std::atomic<std::uint64_t>& ns) {
      return static_cast<double>(load(ns)) / 1e9;
    };
    out += s == 0 ? "\n    {" : ",\n    {";
    append_field(out, "shard", s, /*first=*/true);
    append_field(out, "sessions", shard.members.size());
    append_field(out, "pumps", load(shard.pumps));
    append_field(out, "beats", load(shard.beats));
    append_field(out, "drain_s", seconds(shard.drain_ns));
    append_field(out, "classify_s", seconds(shard.classify_ns));
    append_field(out, "deliver_s", seconds(shard.deliver_ns));
    out += "}";
  }
  out += shards_.empty() ? "]" : "\n  ]";
  out += ",\n  \"sessions\": [";
  bool first = true;
  for (const auto& [id, session] : sessions_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += session->telemetry().json(id, session->queued());
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace hbrp::service
