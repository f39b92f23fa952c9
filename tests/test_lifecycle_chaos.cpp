// Chaos tests for the model-lifecycle wire path: MODEL_PUSH through the
// PR-6 fault-injecting proxy. Kills mid-transfer and flipped bits must
// leave the gateway serving its old version with zero disturbance to
// concurrent beat traffic; forced fragmentation must not stop a healthy
// push; and a hot-swap landing mid morphology-shift must re-arm the drift
// alarm against the NEW bundle's seeds.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "lifecycle/bundle.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "net/push.hpp"
#include "scenario/chaos.hpp"
#include "service/fleet.hpp"

namespace {

using namespace hbrp;
using scenario::ChaosConfig;
using scenario::ChaosProxy;

class LifecycleChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 191;
    ts1_ = new ecg::BeatDataset(ecg::build_dataset({150, 150, 150}, cfg));
    cfg.max_per_record_per_class = 80;
    cfg.seed = 192;
    const auto ts2 = ecg::build_dataset({1200, 120, 150}, cfg);
    core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 19;
    trained_a_ = new core::TrainedClassifier(
        core::TwoStepTrainer(*ts1_, ts2, tcfg).run());
    tcfg.seed = 29;
    trained_b_ = new core::TrainedClassifier(
        core::TwoStepTrainer(*ts1_, ts2, tcfg).run());
    clf_a_ = new embedded::EmbeddedClassifier(trained_a_->quantize());
    clf_b_ = new embedded::EmbeddedClassifier(trained_b_->quantize());
    centroids_a_ = std::make_shared<const drift::TrainingCentroids>(
        core::compute_training_centroids(*clf_a_, *ts1_));
    centroids_b_ = std::make_shared<const drift::TrainingCentroids>(
        core::compute_training_centroids(*clf_b_, *ts1_));
  }
  static void TearDownTestSuite() {
    centroids_a_.reset();
    centroids_b_.reset();
    delete clf_a_;
    delete clf_b_;
    delete trained_a_;
    delete trained_b_;
    delete ts1_;
    clf_a_ = clf_b_ = nullptr;
    trained_a_ = trained_b_ = nullptr;
    ts1_ = nullptr;
  }

  static lifecycle::ModelBundle bundle_b(std::uint64_t version = 2) {
    return lifecycle::ModelBundle{
        .version = version, .model = *trained_b_, .centroids = *centroids_b_};
  }

  static ecg::BeatDataset* ts1_;
  static core::TrainedClassifier* trained_a_;
  static core::TrainedClassifier* trained_b_;
  static embedded::EmbeddedClassifier* clf_a_;
  static embedded::EmbeddedClassifier* clf_b_;
  static std::shared_ptr<const drift::TrainingCentroids> centroids_a_;
  static std::shared_ptr<const drift::TrainingCentroids> centroids_b_;
};

ecg::BeatDataset* LifecycleChaosTest::ts1_ = nullptr;
core::TrainedClassifier* LifecycleChaosTest::trained_a_ = nullptr;
core::TrainedClassifier* LifecycleChaosTest::trained_b_ = nullptr;
embedded::EmbeddedClassifier* LifecycleChaosTest::clf_a_ = nullptr;
embedded::EmbeddedClassifier* LifecycleChaosTest::clf_b_ = nullptr;
std::shared_ptr<const drift::TrainingCentroids>
    LifecycleChaosTest::centroids_a_;
std::shared_ptr<const drift::TrainingCentroids>
    LifecycleChaosTest::centroids_b_;

dsp::Signal patient_lead(std::uint64_t seed, double seconds) {
  ecg::SynthConfig cfg;
  cfg.profile = ecg::RecordProfile::PvcOccasional;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  return ecg::generate_record(cfg).leads[0];
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

struct ChaosHarness {
  ChaosProxy proxy;
  std::thread thread;
  explicit ChaosHarness(ChaosConfig cfg)
      : proxy(std::move(cfg)), thread([this] { proxy.serve(); }) {}
  ~ChaosHarness() {
    proxy.stop();
    thread.join();
  }
};

// A connection killed mid-transfer — wherever the byte budget lands — must
// never move the gateway off its old version, and a client streaming beats
// directly alongside the carnage must see the bit-identical old-model
// verdict stream with no drops.
TEST_F(LifecycleChaosTest, KilledPushLeavesGatewayOnOldVersion) {
  const auto lead = patient_lead(120, 15.0);
  const auto ref_a = direct_ingest(*clf_a_, lead);
  ASSERT_FALSE(ref_a.empty());

  net::GatewayConfig gcfg;
  gcfg.reactors = 1;
  GatewayHarness harness(*clf_a_, gcfg);

  // Every proxied connection dies after a few hundred relayed bytes —
  // always inside the bundle image, which is tens of KB.
  ChaosConfig ccfg;
  ccfg.upstream_port = harness.gw.port();
  ccfg.seed = 21;
  ccfg.kill_probability = 1.0;
  ccfg.kill_after_min_bytes = 256;
  ccfg.kill_after_max_bytes = 1024;
  ChaosHarness chaos(ccfg);

  const auto image = lifecycle::encode_bundle(bundle_b());
  ASSERT_GT(image.size(), ccfg.kill_after_max_bytes)
      << "the kill budget must land inside the transfer";

  std::vector<VerdictSig> got;
  std::atomic<bool> pushes_done{false};
  std::atomic<bool> half_done{false};
  std::thread client_thread([&] {
    net::NodeConfig ncfg;
    ncfg.port = harness.gw.port();  // direct: the chaos is pushes-only
    ncfg.policy = net::TxPolicy::StreamEverything;
    net::SensorNodeClient client(*clf_a_, ncfg);
    client.set_verdict_sink(
        [&got](std::uint64_t seq, const net::BeatVerdictMsg& v) {
          got.push_back(VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
        });
    const std::span<const dsp::Sample> span(lead);
    // Feed past the halfway mark until the first verdict lands so the
    // chaos-harassed pushes provably target a live session (detector
    // warm-up is signal-dependent).
    std::size_t fed = span.size() / 2;
    client.push(span.first(fed));
    while (got.empty() && fed < span.size()) {
      const std::size_t step = std::min<std::size_t>(360, span.size() - fed);
      client.push(span.subspan(fed, step));
      fed += step;
      for (int i = 0; i < 50 && got.empty(); ++i) client.poll_once(5);
    }
    EXPECT_FALSE(got.empty());
    half_done.store(true);
    while (!pushes_done.load()) {
      client.poll_once(5);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.push(span.subspan(fed));
    client.finish();
    EXPECT_TRUE(client.drain(30000));
    client.close(5000);
  });
  while (!half_done.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  for (int attempt = 0; attempt < 3; ++attempt) {
    const net::PushResult r =
        net::push_image(chaos.proxy.port(), 2, image, /*timeout_ms=*/8000);
    EXPECT_FALSE(r.delivered)
        << "attempt " << attempt << " should die mid-transfer, got status "
        << static_cast<int>(r.status);
  }
  // Under load a dying connection can tear down through a path the proxy
  // does not count as a kill, so require the kill budget to have fired at
  // least once; the per-attempt delivery failures above are the real gate.
  EXPECT_GE(chaos.proxy.stats().conns_killed.load(), 1u)
      << "the chaos must actually bite";
  EXPECT_EQ(harness.gw.active_model_version(), 1u);
  EXPECT_EQ(harness.gw.stats().model_pushes_ok.load(), 0u);
  EXPECT_EQ(harness.gw.engine().telemetry().swaps_staged.load(), 0u);

  pushes_done.store(true);
  client_thread.join();
  EXPECT_EQ(got, ref_a)
      << "killed pushes must not disturb concurrent beat traffic";
}

// Flipped bits anywhere in the transfer die on a CRC — the per-frame
// wire CRC or the bundle's own — and the gateway keeps its old version.
TEST_F(LifecycleChaosTest, BitFlippedPushIsRejected) {
  net::GatewayConfig gcfg;
  gcfg.reactors = 1;
  GatewayHarness harness(*clf_a_, gcfg);

  ChaosConfig ccfg;
  ccfg.upstream_port = harness.gw.port();
  ccfg.seed = 33;
  ccfg.bit_flip_rate = 5e-4;  // ~dozens of flips across a multi-KB image
  ChaosHarness chaos(ccfg);

  const auto image = lifecycle::encode_bundle(bundle_b());
  const net::PushResult r =
      net::push_image(chaos.proxy.port(), 2, image, /*timeout_ms=*/8000);
  EXPECT_TRUE(!r.delivered || r.status != net::ModelPushStatus::Ok)
      << "a corrupted transfer must never be acknowledged Ok";
  EXPECT_GT(chaos.proxy.stats().bits_flipped.load(), 0u)
      << "the chaos must actually bite";
  EXPECT_EQ(harness.gw.active_model_version(), 1u);
  EXPECT_EQ(harness.gw.stats().model_pushes_ok.load(), 0u);
}

// Forced worst-case TCP fragmentation (every relay write capped to a prime
// burst) only slows a healthy push down — it must still deliver, verify
// and swap.
TEST_F(LifecycleChaosTest, FragmentedPushStillDelivers) {
  net::GatewayConfig gcfg;
  gcfg.reactors = 1;
  GatewayHarness harness(*clf_a_, gcfg);

  ChaosConfig ccfg;
  ccfg.upstream_port = harness.gw.port();
  ccfg.seed = 47;
  ccfg.max_burst = 89;
  ChaosHarness chaos(ccfg);

  const net::PushResult r =
      net::push_bundle(chaos.proxy.port(), bundle_b(), /*timeout_ms=*/30000);
  EXPECT_TRUE(r.delivered) << r.error;
  EXPECT_EQ(r.status, net::ModelPushStatus::Ok);
  EXPECT_EQ(r.version, 2u);
  EXPECT_EQ(harness.gw.active_model_version(), 2u);
  EXPECT_GT(chaos.proxy.stats().bytes_relayed.load(), 0u);
}

// Satellite (b): a hot-swap landing while the drift alarm is latched must
// re-seed the tracker from the NEW bundle's centroids and re-arm the
// alarm — the new model's tracker starts fresh and trips again on its own
// evidence, not the old model's.
TEST_F(LifecycleChaosTest, SwapDuringDriftAlarmReArmsAgainstNewSeeds) {
  const auto lead = patient_lead(130, 60.0);

  service::FleetConfig fcfg;
  // Mechanical alarm tuning: with the novelty gate far below the clean
  // band (~0.8 sigmas) every normal beat reads as novel, so the alarm
  // latches as soon as min_beats of history exist — on old and new seeds
  // alike. This test is about the re-arm mechanics, not the thresholds.
  fcfg.session.drift.novelty_threshold = 0.3;
  fcfg.session.drift.min_beats = 8;
  fcfg.session.model = std::make_shared<const service::SessionModel>(
      service::SessionModel{1, *clf_a_, centroids_a_});
  service::FleetEngine engine(*clf_a_, fcfg);
  const auto id = engine.open_session([](const service::SessionResult&) {});
  ASSERT_TRUE(id.has_value());
  const service::SessionTelemetry* t = engine.session_telemetry(*id);
  ASSERT_NE(t, nullptr);

  const std::span<const dsp::Sample> span(lead);
  const std::size_t pre_swap = lead.size() * 2 / 3;
  std::size_t off = 0;
  while (off < pre_swap) {
    const std::size_t n = std::min<std::size_t>(2048, pre_swap - off);
    off += engine.offer(*id, span.subspan(off, n)).accepted;
    engine.pump();
  }
  const std::uint64_t alarms_before = t->drift_alarms.load();
  const std::uint64_t beats_before = t->drift_beats.load();
  ASSERT_GE(alarms_before, 1u) << "the alarm must be armed before the swap";
  ASSERT_EQ(t->drift_alarm_active.load(), 1u);

  ASSERT_TRUE(engine.stage_swap(
      *id, std::make_shared<const service::SessionModel>(
               service::SessionModel{2, *clf_b_, centroids_b_})));
  engine.pump();  // applies the swap: fresh tracker on the new seeds

  while (off < lead.size()) {
    const std::size_t n = std::min<std::size_t>(2048, lead.size() - off);
    off += engine.offer(*id, span.subspan(off, n)).accepted;
    engine.pump();
  }
  engine.drain();

  EXPECT_EQ(t->swap_count.load(), 1u);
  EXPECT_EQ(t->model_version.load(), 2u);
  EXPECT_LT(t->drift_beats.load(), beats_before)
      << "the tracker must have restarted from the new bundle's seeds";
  EXPECT_GE(t->drift_alarms.load(), 1u)
      << "the alarm must re-trip on the new tracker's own evidence";
  EXPECT_EQ(t->drift_alarm_active.load(), 1u)
      << "the shift is still present, so the re-armed alarm must latch";
  EXPECT_TRUE(engine.close_session(*id));
}

}  // namespace
