#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <thread>

#include "math/check.hpp"
#include "net/gateway.hpp"
#include "service/fleet.hpp"

namespace hbrp::scenario {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::vector<Verdict> run_direct(const embedded::EmbeddedClassifier& clf,
                                const ScenarioStream& stream,
                                std::size_t threads, std::size_t shards) {
  // The codes the wire path's node admits for the same doubles.
  const auto codes =
      dsp::sanitize_lead(stream.samples, core::MonitorConfig{}.quality);
  service::FleetConfig cfg;
  cfg.threads = threads;
  cfg.shards = shards;
  service::FleetEngine engine(clf, cfg);
  std::vector<Verdict> out;
  const auto id = engine.open_session([&out](const service::SessionResult& r) {
    out.push_back(Verdict{r.sequence,
                          static_cast<std::uint64_t>(r.beat.r_peak),
                          static_cast<std::uint8_t>(r.beat.predicted),
                          static_cast<std::uint8_t>(r.beat.quality)});
  });
  HBRP_REQUIRE(id.has_value(), "run_direct: session refused");
  std::size_t off = 0;
  const std::span<const dsp::Sample> all(codes);
  while (off < codes.size()) {
    const std::size_t n = std::min<std::size_t>(1024, codes.size() - off);
    const auto res = engine.offer(*id, all.subspan(off, n));
    off += res.accepted;
    engine.pump();
  }
  engine.drain();
  HBRP_REQUIRE(engine.close_session(*id), "run_direct: close failed");
  return out;
}

WireRunResult run_wire(const embedded::EmbeddedClassifier& clf,
                       const ScenarioStream& stream, net::TxPolicy policy,
                       const ChaosConfig* chaos, std::size_t threads,
                       std::size_t shards, int drain_budget_ms,
                       const net::NodeConfig* node_template) {
  net::GatewayConfig gcfg;
  // The gateway's parallelism knob is its reactor count (fleet shards are
  // pinned 1:1 to reactors by its config sanitizer), so map the wider of
  // the grid's threads/shards onto it — the sweeps keep varying the wire
  // path's parallel layout.
  gcfg.reactors = std::max<std::size_t>(1, std::max(threads, shards));
  net::GatewayServer gw(clf, gcfg);
  std::thread gw_thread([&gw] { gw.serve(); });

  std::unique_ptr<ChaosProxy> proxy;
  std::thread proxy_thread;
  if (chaos != nullptr) {
    ChaosConfig ccfg = *chaos;
    ccfg.upstream_port = gw.port();
    proxy = std::make_unique<ChaosProxy>(ccfg);
    proxy_thread = std::thread([&proxy] { proxy->serve(); });
  }

  WireRunResult out;
  {
    net::NodeConfig ncfg =
        node_template != nullptr ? *node_template : net::NodeConfig{};
    ncfg.port = proxy ? proxy->port() : gw.port();
    ncfg.policy = policy;
    net::SensorNodeClient client(clf, ncfg);
    client.set_verdict_sink(
        [&out](std::uint64_t seq, const net::BeatVerdictMsg& v) {
          out.verdicts.push_back(
              Verdict{seq, v.r_peak, v.beat_class, v.quality});
        });

    // Push in slices with interleaved polls so the send queue stays under
    // its cap even while chaos stalls or kills the link.
    const std::span<const double> all(stream.samples);
    std::size_t off = 0;
    while (off < all.size()) {
      const std::size_t n = std::min<std::size_t>(2048, all.size() - off);
      client.push(all.subspan(off, n));
      off += n;
      client.poll_once(0);
      while (client.pending_bytes() > (1u << 19)) client.poll_once(2);
    }
    client.finish();
    const bool drained = client.drain(drain_budget_ms);
    client.close(5000);
    out.completed = drained && client.state() == net::LinkState::Closed &&
                    client.unacked_full_beats() == 0;
    out.tx = client.stats();
    out.local_log = client.local_log();
  }

  if (proxy) {
    proxy->stop();
    proxy_thread.join();
    out.chaos_kills = proxy->stats().conns_killed.load();
    out.chaos_bit_flips = proxy->stats().bits_flipped.load();
  }
  gw.stop();
  gw_thread.join();
  out.gateway_full_beat_dups = gw.stats().full_beat_dups.load();
  out.gateway_drift_escalations = gw.stats().drift_escalations_rx.load();
  return out;
}

ScenarioScore score_verdicts(const ScenarioStream& stream,
                             const std::vector<Verdict>& verdicts,
                             double tolerance_s) {
  ScenarioScore score;
  score.truth_beats = stream.truth.size();
  const auto tol = static_cast<std::uint64_t>(
      std::lround(tolerance_s * stream.fs_hz));

  // Verdicts arrive in r_peak order (the monitor emits beats in stream
  // order); truth is built sorted. Greedy nearest-match under `tol` with
  // each truth beat claimable once is then a two-pointer sweep.
  std::vector<bool> claimed(stream.truth.size(), false);
  std::size_t cursor = 0;
  for (const Verdict& v : verdicts) {
    // Advance past truth beats that can no longer match anything.
    while (cursor < stream.truth.size() &&
           stream.truth[cursor].sample + tol < v.r_peak)
      ++cursor;
    // Candidates: cursor (first within reach) and its successor; pick the
    // closer unclaimed one.
    std::size_t best = stream.truth.size();
    std::uint64_t best_dist = tol + 1;
    for (std::size_t j = cursor;
         j < stream.truth.size() && j < cursor + 2; ++j) {
      if (claimed[j]) continue;
      const std::uint64_t t = stream.truth[j].sample;
      const std::uint64_t dist = t > v.r_peak ? t - v.r_peak : v.r_peak - t;
      if (dist <= tol && dist < best_dist) {
        best = j;
        best_dist = dist;
      }
    }
    const auto pred =
        core::to_aami(static_cast<ecg::BeatClass>(v.beat_class));
    if (best < stream.truth.size()) {
      claimed[best] = true;
      ++score.matched;
      score.confusion.add(stream.truth[best].aami, pred);
    } else {
      ++score.false_detections;
      score.confusion.add_false_detection(pred);
    }
  }
  for (std::size_t j = 0; j < stream.truth.size(); ++j) {
    if (claimed[j]) continue;
    if (stream.truth[j].obscured) {
      ++score.obscured;
      continue;  // physically undetectable; not a detector failure
    }
    ++score.missed;
    score.confusion.add_missed(stream.truth[j].aami);
  }
  score.ndr = score.confusion.ndr();
  score.arr = score.confusion.arr();
  const std::size_t eligible = score.truth_beats - score.obscured;
  score.miss_rate = eligible == 0
                        ? 0.0
                        : static_cast<double>(score.missed) /
                              static_cast<double>(eligible);
  score.false_rate = verdicts.empty()
                         ? 0.0
                         : static_cast<double>(score.false_detections) /
                               static_cast<double>(verdicts.size());
  return score;
}

}  // namespace hbrp::scenario
