// Gateway ward demo: a net::GatewayServer and N sensor-node clients
// talking the WBSN wire protocol over loopback TCP.
//
// The end-to-end deployment story of the paper: every node samples its own
// synthetic patient, half the ward runs the selective-transmission policy
// (classify on the node, upload only pathological/Unknown windows), the
// other half streams every sample to the gateway for central
// classification. Node 0 additionally suffers an injected flaky electrode
// (lead-off plus NaN bursts from the driver) to show the fault path end to
// end: sanitization into ADC codes at the driver edge, SQI gating in the
// pipeline, suspect-signal escalation records on the wire.
//
// At the end a per-node table compares bytes on the wire and the implied
// radio energy (platform::PowerModel) against the stream-everything
// baseline for the same samples, followed by the gateway's stats and the
// fleet telemetry snapshot.
//
// Usage: gateway_ward [nodes] [seconds] [reactors]  (default 8 nodes, 30 s,
//                                                    hardware reactors)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <span>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "platform/energy.hpp"
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

struct NodeReport {
  hbrp::net::TxPolicy policy{};
  hbrp::net::LinkState final_state{};
  hbrp::net::TxStats stats;
  std::uint64_t verdicts = 0;
  std::uint64_t pathological = 0;
  std::size_t local_records = 0;
};

/// Bytes a StreamEverything link would have spent on the same samples:
/// one HELLO plus dense SAMPLE_CHUNK frames (heartbeats excluded — an
/// active link never idles long enough to send one).
std::uint64_t stream_baseline_bytes(std::uint64_t samples,
                                    std::size_t chunk_samples) {
  using namespace hbrp::net;
  const std::uint64_t tail = samples % chunk_samples;
  return (kHeaderBytes + kHelloPayloadBytes) +
         samples / chunk_samples * sample_chunk_frame_bytes(chunk_samples) +
         (tail == 0 ? 0 : sample_chunk_frame_bytes(tail));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbrp;
  const std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 8;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 30.0;
  const std::size_t reactors =
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

  // --- the ward: one record per node, node 0 gets a flaky electrode ------
  const ecg::RecordProfile profiles[] = {
      ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
      ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};
  std::vector<dsp::Signal> streams(nodes);
  std::vector<ecg::RecordProfile> node_profile(nodes);
  std::size_t nonfinite = 0;  // node 0's driver output held at the edge
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
      testing::FaultInjectorConfig fcfg;
      fcfg.seed = 7;
      fcfg.events = {
          {testing::FaultKind::LeadOff, lead.size() / 3,
           static_cast<std::size_t>(4 * rec.fs_hz), 0.0, 0.0},
          {testing::FaultKind::NonFinite, 2 * lead.size() / 3,
           static_cast<std::size_t>(rec.fs_hz), 0.0, 0.25},
      };
      // The driver hands up doubles; they become codes here, under the
      // node's rails, before the node sees them.
      testing::FaultInjector injector(fcfg);
      const dsp::QualityConfig rails = net::NodeConfig{}.monitor.quality;
      dsp::Sample hold = dsp::mid_rail(rails);
      for (const auto x : lead)
        for (const double y : injector.feed(x)) {
          dsp::SampleFix fix = dsp::SampleFix::None;
          streams[i].push_back(dsp::sanitize_sample(y, rails, hold, fix));
          nonfinite += fix == dsp::SampleFix::Held;
        }
    } else {
      streams[i] = lead;
    }
  }

  // --- gateway on an ephemeral loopback port -----------------------------
  net::GatewayConfig gcfg;
  gcfg.reactors = reactors;
  gcfg.fleet.max_sessions = nodes;
  // Ward liveness: a node silent for 5 s (no samples, no heartbeat — the
  // client default heartbeats at 1 s) is presumed dead and evicted, so a
  // crashed sensor can never pin a fleet session forever.
  gcfg.idle_timeout_ms = 5000;
  net::GatewayServer gateway(classifier, gcfg);
  std::printf("\nGateway on 127.0.0.1:%u — %zu reactor threads, one fleet "
              "shard each\n",
              gateway.port(), gateway.reactor_count());
  std::thread serve_thread([&gateway] { gateway.serve(); });

  // --- one client thread per node, alternating transmission policies -----
  std::vector<NodeReport> reports(nodes);
  std::vector<std::thread> node_threads;
  node_threads.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    node_threads.emplace_back([&, i] {
      net::NodeConfig ncfg;
      ncfg.port = gateway.port();
      ncfg.node_id = static_cast<std::uint32_t>(i);
      ncfg.policy = (i % 2 == 0) ? net::TxPolicy::Selective
                                 : net::TxPolicy::StreamEverything;
      net::SensorNodeClient client(classifier, ncfg);
      NodeReport& rep = reports[i];
      rep.policy = ncfg.policy;
      client.set_verdict_sink(
          [&rep](std::uint64_t, const net::BeatVerdictMsg& v) {
            ++rep.verdicts;
            rep.pathological += ecg::is_pathological(
                static_cast<ecg::BeatClass>(v.beat_class));
          });

      constexpr std::size_t kPacket = 512;  // one radio packet per push
      const dsp::Signal& lead = streams[i];
      for (std::size_t off = 0; off < lead.size(); off += kPacket) {
        const std::size_t n = std::min(kPacket, lead.size() - off);
        client.push(std::span<const dsp::Sample>(lead.data() + off, n));
        client.poll_once(0);
      }
      client.close(/*deadline_ms=*/30000);

      rep.final_state = client.state();
      rep.stats = client.stats();
      rep.local_records = client.local_log().size();
    });
  }
  for (auto& t : node_threads) t.join();
  gateway.stop();
  serve_thread.join();

  // --- per-node radio accounting ----------------------------------------
  const platform::PowerModel power;
  std::printf("\n%-4s %-14s %-10s %6s %6s %7s %8s %9s %10s %7s\n", "node",
              "profile", "policy", "local", "uploads", "verdicts", "path",
              "bytes_tx", "radio (mJ)", "saved");
  std::uint64_t selective_bytes = 0, selective_baseline = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeReport& r = reports[i];
    const bool selective = r.policy == net::TxPolicy::Selective;
    const std::uint64_t baseline =
        stream_baseline_bytes(r.stats.samples_in,
                              net::NodeConfig{}.chunk_samples);
    if (selective) {
      selective_bytes += r.stats.bytes_tx;
      selective_baseline += baseline;
    }
    char saved[16] = "    --";
    if (selective && baseline > 0)
      std::snprintf(saved, sizeof saved, "%5.1f%%",
                    100.0 * (1.0 - static_cast<double>(r.stats.bytes_tx) /
                                       static_cast<double>(baseline)));
    std::printf("%-4zu %-14s %-10s %6zu %6llu %7llu %8llu %9llu %10.3f %7s\n",
                i, profile_name(node_profile[i]),
                selective ? "selective" : "stream", r.local_records,
                static_cast<unsigned long long>(r.stats.beats_uploaded),
                static_cast<unsigned long long>(r.verdicts),
                static_cast<unsigned long long>(r.pathological),
                static_cast<unsigned long long>(r.stats.bytes_tx),
                1e3 * net::radio_energy_j(r.stats, power), saved);
    if (r.final_state != net::LinkState::Closed) {
      std::fprintf(stderr, "node %zu did not close cleanly (state %s)\n", i,
                   net::to_string(r.final_state));
      return 1;
    }
    if (r.stats.verdict_seq_gaps != 0) {
      std::fprintf(stderr, "node %zu saw a verdict sequence gap\n", i);
      return 1;
    }
  }
  if (selective_baseline > 0) {
    const double saved =
        1.0 - static_cast<double>(selective_bytes) /
                  static_cast<double>(selective_baseline);
    std::printf("\nselective policy: %llu bytes on the wire vs %llu "
                "streaming the same samples — %.1f%% of the radio budget "
                "saved (%.3f mJ)\n",
                static_cast<unsigned long long>(selective_bytes),
                static_cast<unsigned long long>(selective_baseline),
                100.0 * saved,
                1e3 * static_cast<double>(selective_baseline -
                                          selective_bytes) *
                    power.radio_j_per_byte);
  }
  std::printf("node 0's flaky electrode: %zu non-finite samples "
              "sanitized at the driver edge\n",
              nonfinite);

  std::printf("\nGateway stats:\n%s\n", gateway.stats().json().c_str());
  std::printf("\nFleet telemetry snapshot:\n%s",
              gateway.engine().telemetry_json().c_str());
  return 0;
}
