// Fleet collector demo: K simulated WBSN nodes streaming concurrently.
//
// Replays K synthetic MIT-BIH-style records (different "patients" with
// different rhythm profiles, one with an injected flaky electrode) as
// concurrent sessions of a service::FleetEngine — the host-side aggregation
// path of the paper's deployment story. Samples arrive interleaved in
// small chunks, exactly like radio packets from a ward full of nodes; the
// engine shards the sessions over a worker pool, batches beat windows
// across sessions for classification, and delivers per-session results in
// order. At the end the per-session summary table and the fleet telemetry
// JSON snapshot are printed.
//
// Usage: fleet_server [nodes] [seconds] [threads]   (default 8 nodes, 30 s,
//                                                    hardware threads)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <span>
#include <vector>

#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "service/fleet.hpp"
#include "testing/fault_inject.hpp"

namespace {

const char* profile_name(hbrp::ecg::RecordProfile p) {
  using hbrp::ecg::RecordProfile;
  switch (p) {
    case RecordProfile::NormalSinus: return "normal sinus";
    case RecordProfile::PvcOccasional: return "occasional PVC";
    case RecordProfile::PvcBigeminy: return "PVC bigeminy";
    case RecordProfile::Lbbb: return "LBBB";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbrp;
  const std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 8;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 30.0;
  const std::size_t threads =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 0;

  std::printf("Training classifier...\n");
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 180.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 71;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 100;
  dcfg.seed = 72;
  const auto ts2 = ecg::build_dataset({2500, 220, 280}, dcfg);
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 8;
  tcfg.ga.generations = 6;
  tcfg.seed = 73;
  const core::TwoStepTrainer trainer(ts1, ts2, tcfg);
  const auto classifier = trainer.run().quantize();

  // --- generate the ward: one record per node, node 0 gets a flaky lead --
  const ecg::RecordProfile profiles[] = {
      ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
      ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};
  std::vector<dsp::Signal> streams(nodes);
  std::vector<ecg::RecordProfile> node_profile(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    ecg::SynthConfig scfg;
    scfg.profile = profiles[i % std::size(profiles)];
    scfg.duration_s = seconds;
    scfg.num_leads = 1;
    scfg.seed = 5000 + i;
    node_profile[i] = scfg.profile;
    const auto rec = ecg::generate_record(scfg);
    const auto& lead = rec.leads[0];
    if (i == 0) {
      // Node 0's electrode detaches briefly and its driver emits NaN: the
      // session's SQI gating and telemetry must absorb it. The driver's
      // doubles become ADC codes at this edge (dsp::sanitize_lead).
      testing::FaultInjectorConfig fcfg;
      fcfg.seed = 7;
      fcfg.events = {
          {testing::FaultKind::LeadOff, lead.size() / 3,
           static_cast<std::size_t>(4 * rec.fs_hz), 0.0, 0.0},
          {testing::FaultKind::NonFinite, 2 * lead.size() / 3,
           static_cast<std::size_t>(rec.fs_hz), 0.0, 0.25},
      };
      streams[i] =
          dsp::sanitize_lead(testing::FaultInjector::apply(lead, fcfg),
                             core::MonitorConfig{}.quality);
    } else {
      streams[i] = lead;
    }
  }

  // --- the fleet engine -------------------------------------------------
  service::FleetConfig fcfg;
  fcfg.threads = threads;
  fcfg.max_sessions = nodes;
  service::FleetEngine engine(classifier, fcfg);
  std::printf("\nFleet engine: %zu sessions, %zu executor threads, "
              "%zu shards\n",
              nodes, engine.executor().threads(), engine.shard_count());

  std::vector<std::size_t> beats(nodes, 0), pathological(nodes, 0);
  std::vector<service::SessionId> ids;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto id =
        engine.open_session([&, i](const service::SessionResult& r) {
          ++beats[i];
          pathological[i] += ecg::is_pathological(r.beat.predicted);
        });
    if (!id) {
      std::fprintf(stderr, "session %zu refused by admission control\n", i);
      return 1;
    }
    ids.push_back(*id);
  }
  // One node beyond capacity: admission control refuses it.
  if (engine.open_session({}).has_value()) {
    std::fprintf(stderr, "admission control failed to cap the fleet\n");
    return 1;
  }
  std::printf("admission control: node %zu of %zu refused (fleet full)\n",
              nodes + 1, nodes);

  // --- interleaved replay: 512-sample radio packets, round-robin --------
  constexpr std::size_t kPacket = 512;
  std::size_t offset = 0;
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < nodes; ++i) {
      if (offset >= streams[i].size()) continue;
      any = true;
      const std::size_t n = std::min(kPacket, streams[i].size() - offset);
      std::span<const dsp::Sample> packet(streams[i].data() + offset, n);
      // The bounded queue defers what does not fit: retry until it has
      // taken the whole packet.
      while (true) {
        const auto res = engine.offer(ids[i], packet);
        if (res.deferred == 0) break;
        packet = packet.last(res.deferred);
        engine.pump();
      }
    }
    offset += kPacket;
    engine.pump();
  }
  engine.drain();

  std::printf("\n%-4s %-16s %7s %7s %8s %9s %10s %10s\n", "node", "profile",
              "beats", "path%", "suspect", "degraded", "p50 (us)",
              "p99 (us)");
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto* t = engine.session_telemetry(ids[i]);
    if (t == nullptr) continue;
    std::printf("%-4zu %-16s %7zu %6.1f%% %8llu %9llu %10.0f %10.0f\n", i,
                profile_name(node_profile[i]), beats[i],
                100.0 * t->pathological_rate(),
                static_cast<unsigned long long>(t->suspect_beats.load()),
                static_cast<unsigned long long>(t->sqi_degradations.load()),
                t->latency.quantile_us(0.50), t->latency.quantile_us(0.99));
  }

  std::printf("\nFleet telemetry snapshot:\n%s",
              engine.telemetry_json().c_str());

  for (const service::SessionId id : ids) engine.close_session(id);
  return 0;
}
