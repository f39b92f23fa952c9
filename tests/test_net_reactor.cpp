// Multi-reactor gateway tests: per-session verdict bit-identity across
// reactor counts (with concurrent mixed wards), the same identity through
// chaos-proxy fragmentation, FULL_BEAT exactly-once dedup when kills force
// reconnects onto different reactors, the adaptive idle backoff, and the
// poll(2) fallback backend.
#include <gtest/gtest.h>

#include <cstdlib>
#include <chrono>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "scenario/chaos.hpp"
#include "scenario/episodes.hpp"
#include "scenario/runner.hpp"
#include "service/fleet.hpp"

namespace {

using namespace hbrp;
using Clock = std::chrono::steady_clock;
using scenario::ChaosConfig;
using scenario::ScenarioSpec;

class NetReactorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 191;
    const auto ts1 = ecg::build_dataset({150, 150, 150}, cfg);
    cfg.max_per_record_per_class = 80;
    cfg.seed = 192;
    const auto ts2 = ecg::build_dataset({1200, 120, 150}, cfg);
    core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 19;
    const core::TwoStepTrainer trainer(ts1, ts2, tcfg);
    bundle_ = new embedded::EmbeddedClassifier(trainer.run().quantize());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static const embedded::EmbeddedClassifier* bundle_;
};

const embedded::EmbeddedClassifier* NetReactorTest::bundle_ = nullptr;

std::vector<double> patient_lead(std::uint64_t seed, double seconds = 15.0) {
  ecg::SynthConfig cfg;
  cfg.profile = seed % 2 == 0 ? ecg::RecordProfile::PvcOccasional
                              : ecg::RecordProfile::NormalSinus;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  const auto rec = ecg::generate_record(cfg);
  return {rec.leads[0].begin(), rec.leads[0].end()};
}

std::vector<dsp::Sample> wire_codes(const std::vector<double>& lead) {
  return dsp::sanitize_lead(lead, core::MonitorConfig{}.quality);
}

struct VerdictSig {
  std::uint64_t sequence;
  std::uint64_t r_peak;
  std::uint8_t beat_class;
  std::uint8_t quality;
  bool operator==(const VerdictSig&) const = default;
};

std::vector<VerdictSig> direct_ingest(
    const embedded::EmbeddedClassifier& classifier,
    std::span<const dsp::Sample> codes) {
  service::FleetEngine engine(classifier, {});
  std::vector<VerdictSig> out;
  const auto id = engine.open_session([&out](const service::SessionResult& r) {
    out.push_back(VerdictSig{r.sequence,
                             static_cast<std::uint64_t>(r.beat.r_peak),
                             static_cast<std::uint8_t>(r.beat.predicted),
                             static_cast<std::uint8_t>(r.beat.quality)});
  });
  EXPECT_TRUE(id.has_value());
  std::size_t off = 0;
  while (off < codes.size()) {
    const std::size_t n = std::min<std::size_t>(1024, codes.size() - off);
    off += engine.offer(*id, codes.subspan(off, n)).accepted;
    engine.pump();
  }
  engine.drain();
  EXPECT_TRUE(engine.close_session(*id));
  return out;
}

struct GatewayHarness {
  net::GatewayServer gw;
  std::thread thread;

  GatewayHarness(const embedded::EmbeddedClassifier& classifier,
                 net::GatewayConfig cfg)
      : gw(classifier, std::move(cfg)), thread([this] { gw.serve(); }) {}
  ~GatewayHarness() {
    gw.stop();
    thread.join();
  }
};

// The tentpole contract: a ward of concurrent mixed-policy clients gets
// bit-identical per-session verdict streams no matter how many reactor
// threads the gateway shards them across.
TEST_F(NetReactorTest, VerdictStreamsAreReactorCountInvariant) {
  constexpr std::size_t kClients = 6;
  std::vector<std::vector<double>> leads;
  std::vector<std::vector<VerdictSig>> reference(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    leads.push_back(patient_lead(40 + i));
    reference[i] = direct_ingest(*bundle_, wire_codes(leads[i]));
    ASSERT_FALSE(reference[i].empty()) << "client " << i;
  }

  for (const std::size_t reactors : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
    net::GatewayConfig gcfg;
    gcfg.reactors = reactors;
    GatewayHarness harness(*bundle_, gcfg);
    ASSERT_EQ(harness.gw.reactor_count(), reactors);

    std::vector<std::vector<VerdictSig>> got(kClients);
    std::vector<net::TxStats> stats(kClients);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        net::NodeConfig ncfg;
        ncfg.port = harness.gw.port();
        ncfg.node_id = static_cast<std::uint32_t>(i);
        ncfg.policy = net::TxPolicy::StreamEverything;
        net::SensorNodeClient client(*bundle_, ncfg);
        client.set_verdict_sink(
            [&got, i](std::uint64_t seq, const net::BeatVerdictMsg& v) {
              got[i].push_back(
                  VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
            });
        client.push(std::span<const double>(leads[i]));
        client.finish();
        EXPECT_TRUE(client.drain(30000))
            << "client " << i << " reactors " << reactors;
        client.close(5000);
        stats[i] = client.stats();
      });
    }
    for (auto& t : threads) t.join();

    for (std::size_t i = 0; i < kClients; ++i) {
      EXPECT_EQ(got[i], reference[i])
          << "client " << i << " diverges at " << reactors << " reactors";
      EXPECT_EQ(stats[i].verdict_seq_gaps, 0u);
      EXPECT_EQ(stats[i].frames_dropped, 0u);
    }
    // The per-reactor snapshot is well-formed and names the backend.
    const std::string rj = harness.gw.reactors_json();
    EXPECT_NE(rj.find("\"backend\""), std::string::npos) << rj;
  }
}

// Worst-case framing through the chaos proxy: every relay write is capped
// to a prime burst size, so frames arrive shredded across reads. The
// verdict stream must match the unfragmented wire run bit for bit, on one
// reactor and on several.
TEST_F(NetReactorTest, FragmentedStreamIsReactorInvariant) {
  ScenarioSpec spec;
  spec.name = "reactor_fragmentation";
  spec.seed = 501;
  spec.duration_s = 30.0;
  const auto stream = scenario::build_scenario(spec);

  const auto clean = scenario::run_wire(
      *bundle_, stream, net::TxPolicy::StreamEverything, nullptr, 1, 1);
  ASSERT_TRUE(clean.completed);
  ASSERT_FALSE(clean.verdicts.empty());

  ChaosConfig chaos;
  chaos.seed = 11;
  chaos.max_burst = 89;
  for (const std::size_t reactors : {std::size_t{1}, std::size_t{2}}) {
    const auto wire = scenario::run_wire(
        *bundle_, stream, net::TxPolicy::StreamEverything, &chaos, reactors,
        reactors);
    ASSERT_TRUE(wire.completed) << reactors << " reactors";
    EXPECT_EQ(wire.verdicts, clean.verdicts)
        << "fragmentation changed the verdict stream at " << reactors
        << " reactors";
    EXPECT_EQ(wire.tx.verdict_seq_gaps, 0u);
  }
}

// Seeded connection kills force the client through reconnects; each
// reconnect may land its connection (and thus its session) on a different
// reactor. The at-least-once upload contract must still dedup to
// exactly-once verdicts, with no duplicate FULL_BEAT counted fleet-side.
TEST_F(NetReactorTest, KillsAndReconnectsKeepUploadsExactlyOnce) {
  // PVC background + a VT run: a dense supply of pathological beats, i.e.
  // of FULL_BEAT uploads for the kills to land inside.
  ScenarioSpec spec;
  spec.name = "reactor_kill_chaos";
  spec.seed = 502;
  spec.duration_s = 40.0;
  spec.background = ecg::RecordProfile::PvcOccasional;
  spec.episodes.push_back(
      {scenario::EpisodeKind::SustainedVt, 10.0, 15.0, 1.0});
  const auto stream = scenario::build_scenario(spec);

  ChaosConfig chaos;
  chaos.seed = 17;
  chaos.kill_probability = 0.6;
  chaos.kill_after_min_bytes = 1500;
  chaos.kill_after_max_bytes = 6000;
  const auto wire = scenario::run_wire(
      *bundle_, stream, net::TxPolicy::Selective, &chaos, 3, 3,
      /*drain_budget_ms=*/60000);

  ASSERT_TRUE(wire.completed) << "drain must finish despite kills";
  EXPECT_GT(wire.chaos_kills, 0u) << "the chaos must actually bite";
  EXPECT_GT(wire.tx.reconnects, 0u);
  EXPECT_GT(wire.tx.beats_uploaded, 0u);

  // Exactly-once downstream of at-least-once uploads: unique verdict seqs
  // covering every upload, and the fleet counted no duplicate windows.
  std::set<std::uint64_t> seqs;
  for (const auto& v : wire.verdicts) seqs.insert(v.seq);
  EXPECT_EQ(seqs.size(), wire.verdicts.size());
  EXPECT_EQ(wire.tx.verdicts_rx, wire.tx.beats_uploaded);
}

// The idle backoff: a gateway with nothing to do must widen its poll
// timeout instead of spinning at the base cadence, yet still notice and
// serve a late client promptly.
TEST_F(NetReactorTest, IdleBackoffBoundsWakeupsAndStaysResponsive) {
  net::GatewayConfig gcfg;
  gcfg.reactors = 2;
  GatewayHarness harness(*bundle_, gcfg);

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const std::uint64_t idle = harness.gw.stats().idle_wakeups.load();
  EXPECT_GT(idle, 0u);
  // At the 5 ms base cadence two reactors would burn ~200 wakeups in
  // 500 ms; the exponential backoff (5 -> 320 ms) keeps each reactor to a
  // handful. Generous bound: sleep scheduling jitter must not flake this.
  EXPECT_LT(idle, 60u) << "idle backoff is not widening the poll timeout";

  // A late client still gets full service with prompt verdicts.
  const auto lead = patient_lead(77, 10.0);
  const auto reference = direct_ingest(*bundle_, wire_codes(lead));
  net::NodeConfig ncfg;
  ncfg.port = harness.gw.port();
  net::SensorNodeClient client(*bundle_, ncfg);
  std::vector<VerdictSig> got;
  client.set_verdict_sink(
      [&got](std::uint64_t seq, const net::BeatVerdictMsg& v) {
        got.push_back(VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
      });
  client.push(std::span<const double>(lead));
  client.finish();
  EXPECT_TRUE(client.drain(20000));
  client.close(5000);
  EXPECT_EQ(got, reference);
}

// HBRP_NET_POLL=1 swaps every reactor onto the poll(2) fallback backend;
// results must be indistinguishable from the epoll path.
TEST_F(NetReactorTest, PollFallbackBackendIsBitIdentical) {
  const auto lead = patient_lead(88);
  const auto reference = direct_ingest(*bundle_, wire_codes(lead));
  ASSERT_FALSE(reference.empty());

  ::setenv("HBRP_NET_POLL", "1", 1);
  {
    net::GatewayConfig gcfg;
    gcfg.reactors = 2;
    GatewayHarness harness(*bundle_, gcfg);
    const std::string rj = harness.gw.reactors_json();
    EXPECT_NE(rj.find("\"backend\": \"poll\""), std::string::npos) << rj;

    net::NodeConfig ncfg;
    ncfg.port = harness.gw.port();
    net::SensorNodeClient client(*bundle_, ncfg);
    std::vector<VerdictSig> got;
    client.set_verdict_sink(
        [&got](std::uint64_t seq, const net::BeatVerdictMsg& v) {
          got.push_back(VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
        });
    client.push(std::span<const double>(lead));
    client.finish();
    EXPECT_TRUE(client.drain(20000));
    client.close(5000);
    EXPECT_EQ(got, reference);
  }
  ::unsetenv("HBRP_NET_POLL");
}

}  // namespace
