// Heap footprint per stream: live heap bytes per core::StreamingBeatMonitor
// and per drift-enabled service::FleetEngine session, after 60 s of
// synthetic ECG in 512-sample packets; the bytes a session's ingest queue
// spends per queued sample; the drift tracker's own heap, which must not
// grow per beat; the classifier copies a FleetEngine keeps; the per-thread
// DSP workspace itself; the uploads a selective sensor node holds while
// its link is down; and what a two-step trainer keeps of its splits.
//
// The conditioning and detection intermediates are per thread
// (kernels::DspWorkspace), so each per-stream test warms the thread's
// workspace with one monitor before it starts counting: what remains is
// per-stream state. The bounds catch any workspace that creeps back into a
// monitor or a session, where ~85 KB of scratch would be copied per
// stream. Each bound sits below what the same test measured while
// dsp::Sample was 32 bits wide, so a sample buffer that widens again fails
// here.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "drift/tracker.hpp"
#include "ecg/synth.hpp"
#include "math/rng.hpp"
#include "net/client.hpp"
#include "service/fleet.hpp"

namespace {
// Live operator-new bytes and operator-new calls, process-wide. Every block
// carries its requested size in a header one max_align_t wide (so the
// returned pointer keeps malloc's alignment), which operator delete
// subtracts again.
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_new_calls{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

// Both out of line, so GCC never sees a malloc() from an inlined new meet
// an operator delete (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  auto* base = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &n, sizeof n);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return base + kHeader;
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  std::size_t n = 0;
  std::memcpy(&n, base, sizeof n);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
  std::free(base);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace hbrp;

constexpr std::size_t kStreams = 16;
constexpr std::size_t kPacket = 512;
// Live heap per monitor: 12,472 B measured (23,632 B with 32-bit samples).
constexpr std::int64_t kMonitorBudget = 16 * 1024;
// A session adds its ingest queue, drift tracker and telemetry: 24,351 B
// measured (43,029 B with 32-bit samples).
constexpr std::int64_t kSessionBudget = 32 * 1024;
// Seed means, per-seed norms and the score window at k = 8 with 3 seeds.
constexpr std::int64_t kTrackerBudget = 1024;
// A thread's DSP workspace at the default MonitorConfig: the conditioner
// over a 512-sample packet plus the wavelet detector over an 8 s chunk.
// 86,864 B measured (148,000 B with 32-bit samples): it fits the paper's
// 96 KB node.
constexpr std::int64_t kWorkspaceBudget = 96 * 1024;

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

std::uint64_t new_calls() {
  return g_new_calls.load(std::memory_order_relaxed);
}

// Untrained but well-formed: k coefficients over a 200-sample window
// (50 columns, downsample 4) matches the default MonitorConfig geometry.
// The monitor's footprint does not depend on what the classifier decides;
// a selective node's does. Widening the memberships makes the classes
// overlap, and at alpha 1.0 a beat is then nearly always Unknown, which a
// selective node uploads.
embedded::EmbeddedClassifier make_classifier(std::size_t k = 8,
                                             double alpha = 0.25,
                                             double width = 1.0) {
  math::Rng rng(7);
  auto p = rp::make_achlioptas(k, 50, rng);
  nfc::NeuroFuzzyClassifier nfc(k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t l = 0; l < 3; ++l)
      nfc.mf(i, l) = {rng.normal(0, 200), width * rng.uniform(5.0, 150.0)};
  return core::TrainedClassifier{rp::BeatProjector(std::move(p), 4),
                                 std::move(nfc), alpha}
      .quantize();
}

std::shared_ptr<const drift::TrainingCentroids> make_centroids() {
  math::Rng rng(8);
  auto tc = std::make_shared<drift::TrainingCentroids>();
  tc->coefficients = 8;
  tc->scale = 100.0;
  for (int c = 0; c < 3; ++c) {
    drift::TrainingCentroids::Centroid ct;
    for (std::size_t i = 0; i < tc->coefficients; ++i)
      ct.mean.push_back(rng.normal(0, 300));
    ct.mass = 100.0;
    ct.sigma = 50.0;
    tc->centroids.push_back(std::move(ct));
  }
  return tc;
}

dsp::Signal synth_lead(double seconds = 60.0) {
  ecg::SynthConfig cfg;
  cfg.profile = ecg::RecordProfile::PvcOccasional;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = 31;
  return ecg::generate_record(cfg).leads[0];
}

std::span<const dsp::Sample> packet(const dsp::Signal& lead, std::size_t k) {
  const std::size_t off = k * kPacket;
  return {lead.data() + off, std::min(kPacket, lead.size() - off)};
}

std::size_t packet_count(const dsp::Signal& lead) {
  return (lead.size() + kPacket - 1) / kPacket;
}

// Brings this thread's DSP workspace to its steady-state size: one monitor
// over the same lead and configuration the measured streams use.
void warm_workspace(const embedded::EmbeddedClassifier& clf,
                    const dsp::Signal& lead) {
  core::StreamingBeatMonitor warm(clf);
  const core::PendingBeatSink sink = [](const core::PendingBeat&) {};
  for (std::size_t k = 0; k < packet_count(lead); ++k)
    warm.push_block(packet(lead, k), sink);
}

// Live heap per monitor while kStreams monitors on `clf` are alive and have
// been fed `lead` in packets; `beats` counts the beats they surrendered.
std::int64_t heap_per_monitor(const embedded::EmbeddedClassifier& clf,
                              const dsp::Signal& lead, std::size_t& beats) {
  const core::PendingBeatSink sink = [&beats](const core::PendingBeat&) {
    ++beats;
  };
  const std::int64_t before = live_bytes();
  std::vector<core::StreamingBeatMonitor> monitors;
  monitors.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) monitors.emplace_back(clf);
  for (std::size_t k = 0; k < packet_count(lead); ++k)
    for (core::StreamingBeatMonitor& m : monitors)
      m.push_block(packet(lead, k), sink);
  return (live_bytes() - before) / static_cast<std::int64_t>(kStreams);
}

TEST(Footprint, StreamingMonitorHeapPerMonitor) {
  const auto clf = make_classifier();
  const dsp::Signal lead = synth_lead();
  warm_workspace(clf, lead);

  std::size_t beats = 0;
  const std::int64_t per_monitor = heap_per_monitor(clf, lead, beats);
  EXPECT_LE(per_monitor, kMonitorBudget)
      << "live heap per monitor: " << per_monitor << " bytes";
  // 60 s at ~75 bpm, minus the beats still inside each rolling buffer.
  EXPECT_GE(beats, kStreams * 50);
}

// A monitor only finds beats: it holds no copy of the classifier and no
// classify scratch, so its heap does not grow with the coefficient count.
// (A k = 32 classifier alone holds ~3 KB more heap than a k = 8 one.)
TEST(Footprint, MonitorHeapIndependentOfClassifier) {
  const auto small = make_classifier(8);
  const auto large = make_classifier(32);
  const dsp::Signal lead = synth_lead();
  warm_workspace(small, lead);

  std::size_t beats_small = 0, beats_large = 0;
  const std::int64_t per_small = heap_per_monitor(small, lead, beats_small);
  const std::int64_t per_large = heap_per_monitor(large, lead, beats_large);
  EXPECT_LT(std::abs(per_large - per_small), 512)
      << "live heap per monitor: " << per_small << " bytes at k = 8, "
      << per_large << " bytes at k = 32";
  EXPECT_EQ(beats_small, beats_large);
  EXPECT_GE(beats_small, kStreams * 50);
}

TEST(Footprint, FleetSessionHeapPerSession) {
  const auto clf = make_classifier();
  const dsp::Signal lead = synth_lead();
  warm_workspace(clf, lead);

  service::FleetConfig cfg;
  cfg.threads = 1;  // every pump on this (warmed) thread
  cfg.shards = 1;
  cfg.session.model = std::make_shared<const service::SessionModel>(
      service::SessionModel{cfg.initial_model_version, clf, make_centroids()});
  service::FleetEngine engine(clf, cfg);

  std::size_t beats = 0;
  const std::int64_t before = live_bytes();
  std::vector<service::SessionId> ids;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const auto id =
        engine.open_session([&beats](const service::SessionResult&) {
          ++beats;
        });
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  for (std::size_t k = 0; k < packet_count(lead); ++k) {
    for (const service::SessionId id : ids)
      ASSERT_EQ(engine.offer(id, packet(lead, k)).accepted,
                packet(lead, k).size());
    engine.pump();
  }
  for (const service::SessionId id : ids)
    ASSERT_NE(engine.session_drift(id), nullptr) << "drift must be on";

  const std::int64_t per_session =
      (live_bytes() - before) / static_cast<std::int64_t>(kStreams);
  EXPECT_LE(per_session, kSessionBudget)
      << "live heap per session: " << per_session << " bytes";
  EXPECT_GE(beats, kStreams * 50);
  for (const service::SessionId id : ids) EXPECT_TRUE(engine.close_session(id));
}

// A session queues ADC codes. Filled to its default capacity and never
// pumped, its queue grows the heap by the 2 bytes of each int16 code plus
// the deque's block map (2.10 B per sample measured, 4.18 with 32-bit
// codes), where a queue of doubles would need 8 or more.
TEST(Footprint, SessionQueueHoldsCodes) {
  const auto clf = make_classifier();
  const dsp::Signal lead = synth_lead();
  service::FleetEngine engine(clf);
  const auto id = engine.open_session({});
  ASSERT_TRUE(id.has_value());
  const std::size_t capacity = service::SessionConfig{}.queue_capacity;
  ASSERT_GE(lead.size(), capacity);

  const std::int64_t before = live_bytes();
  std::size_t queued = 0;
  for (std::size_t k = 0; queued < capacity; ++k)
    queued += engine.offer(*id, packet(lead, k)).accepted;
  const std::int64_t growth = live_bytes() - before;
  ASSERT_EQ(engine.queued_samples(), capacity);
  const double per_sample =
      static_cast<double>(growth) / static_cast<double>(capacity);
  EXPECT_LT(per_sample, 2.5)
      << "queue heap: " << growth << " bytes for " << capacity << " samples";
}

// A FleetEngine keeps one copy of its construction-time classifier: the
// default model sessions start on. A classifier moved into the engine costs
// no further copy, so the engine's heap does not grow with the coefficient
// count the way a classifier copy's does.
TEST(Footprint, FleetEngineHoldsOneClassifierCopy) {
  // Live heap of one classifier copy at coefficient count k.
  const auto copy_heap = [](std::size_t k) {
    const auto clf = make_classifier(k);
    const std::int64_t before = live_bytes();
    const embedded::EmbeddedClassifier copy = clf;
    return live_bytes() - before;
  };
  // Live heap of an engine that the classifier, built before counting,
  // was moved into.
  const auto engine_heap = [](std::size_t k) {
    auto clf = make_classifier(k);
    const std::int64_t before = live_bytes();
    const service::FleetEngine engine(std::move(clf));
    return live_bytes() - before;
  };
  const std::int64_t copy_growth = copy_heap(32) - copy_heap(8);
  const std::int64_t engine_growth = engine_heap(32) - engine_heap(8);
  ASSERT_GT(copy_growth, 0);
  EXPECT_LT(engine_growth, copy_growth / 2)
      << "engine heap grows " << engine_growth << " bytes from k = 8 to "
      << "k = 32; one classifier copy grows " << copy_growth << " bytes";
}

// What one default-config monitor leaves behind on a fresh thread, once it
// has run and been destroyed, is the thread's DSP workspace. The wavelet
// detector keeps one threshold per 2 s block, not one per sample.
TEST(Footprint, ThreadWorkspaceAtDefaultConfig) {
  const auto clf = make_classifier();
  const dsp::Signal lead = synth_lead();
  std::int64_t kept = 0;
  std::thread([&] {
    const std::int64_t before = live_bytes();
    warm_workspace(clf, lead);
    kept = live_bytes() - before;
  }).join();
  EXPECT_GT(kept, 0) << "the monitor never borrowed the thread's workspace";
  EXPECT_LE(kept, kWorkspaceBudget)
      << "thread workspace: " << kept << " bytes";
}

// The payload of each upload a selective node (drift off) makes on `lead`
// in packets, in upload order: its monitor and policy — classify, keep a
// normal beat on Good signal local, upload the rest — with each window
// encoded as the node encodes it. A payload's size depends on its codes.
std::vector<std::int64_t> upload_payloads(
    const embedded::EmbeddedClassifier& clf, const dsp::Signal& lead) {
  std::vector<std::int64_t> sizes;
  embedded::ClassifyScratch scratch;
  core::StreamingBeatMonitor monitor(clf);
  const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
    const ecg::BeatClass c = pb.needs_classification
                                 ? clf.classify_window(pb.window, scratch)
                                 : pb.beat.predicted;
    if (!ecg::is_pathological(c) &&
        pb.beat.quality == dsp::SignalQuality::Good)
      return;
    sizes.push_back(static_cast<std::int64_t>(
        net::encode_full_beat(net::FullBeatMsg{}, pb.window).size()));
  };
  for (std::size_t k = 0; k < packet_count(lead); ++k)
    monitor.push_block(packet(lead, k), sink);
  return sizes;
}

// A selective node holds each upload once, in its retransmit window. This
// one is never polled (port 1, like the e2e ledger's node), so it never
// connects: nothing is sent, nothing is acknowledged, and once the window
// is full each new upload pushes out the oldest, which is counted as
// dropped.
TEST(Footprint, SelectiveNodeHoldsEachUploadOnce) {
  const auto clf = make_classifier(8, 1.0, 10.0);
  const dsp::Signal lead = synth_lead(600.0);
  warm_workspace(clf, lead);
  const std::vector<std::int64_t> payloads = upload_payloads(clf, lead);

  net::NodeConfig cfg;
  cfg.port = 1;
  cfg.policy = net::TxPolicy::Selective;
  cfg.heartbeat_interval_ms = 0;
  net::SensorNodeClient node(clf, cfg);
  const std::size_t window = cfg.max_unacked_full_beats;
  std::size_t k = 0;
  const auto push_until = [&](const auto& done) {
    while (!done() && k < packet_count(lead)) node.push(packet(lead, k++));
    return done();
  };
  // Payload bytes of the uploads the node holds: its newest ones.
  const auto held_payload = [&] {
    const std::size_t end = node.stats().beats_uploaded;
    std::int64_t sum = 0;
    for (std::size_t u = end - node.unacked_full_beats(); u < end; ++u)
      sum += payloads.at(u);
    return sum;
  };

  // Start counting once the node's own buffers are in steady state.
  ASSERT_TRUE(push_until([&] { return node.unacked_full_beats() >= 8; }));
  const std::int64_t base = live_bytes();
  const std::int64_t base_payload = held_payload();
  const std::size_t base_held = node.unacked_full_beats();
  ASSERT_TRUE(
      push_until([&] { return node.unacked_full_beats() == window; }));
  const std::int64_t full = live_bytes();
  const std::int64_t full_payload = held_payload();
  // Another window's worth of uploads: the held set turns over, the heap
  // follows its payload bytes.
  const std::uint64_t uploads_at_full = node.stats().beats_uploaded;
  ASSERT_TRUE(push_until([&] {
    return node.stats().beats_uploaded >= uploads_at_full + window;
  }));
  const std::int64_t later = live_bytes();
  const std::int64_t later_payload = held_payload();

  const auto added = static_cast<std::int64_t>(window - base_held);
  const std::int64_t per_upload = (full - base) / added;
  const std::int64_t mean_payload = (full_payload - base_payload) / added;
  // One held upload is its payload plus a map node and allocator rounding;
  // a second copy of each (> kNodeOverhead more) would exceed this bound.
  constexpr std::int64_t kNodeOverhead = 96;
  ASSERT_GT(mean_payload, kNodeOverhead);
  EXPECT_LT(per_upload - mean_payload, kNodeOverhead)
      << "live heap per held upload: " << per_upload << " bytes for "
      << mean_payload << " payload bytes";
  EXPECT_LT((later - full) - (later_payload - full_payload),
            static_cast<std::int64_t>(net::kHeaderBytes) + mean_payload)
      << "live heap grew " << (later - full) << " bytes over " << window
      << " uploads past a full window, its payloads "
      << (later_payload - full_payload);
  EXPECT_EQ(node.unacked_full_beats(), window);
  const net::TxStats& s = node.stats();
  EXPECT_EQ(s.frames_dropped, s.beats_uploaded - window);
  EXPECT_EQ(s.frames_tx, 0u);
  EXPECT_GT(s.beats_uploaded, 20 * s.beats_local)
      << "alpha 1.0 should upload nearly every beat";
}

TEST(Footprint, DriftTrackerHeap) {
  const auto seeds = make_centroids();
  const std::size_t k = seeds->coefficients;
  // Runs of 50 beats alternate between in-distribution projections (near
  // a seed) and novel ones (far from every seed); every seventh beat is
  // classified pathological.
  constexpr std::size_t kBeats = 2000;
  math::Rng rng(9);
  std::vector<std::int32_t> us;
  std::vector<std::uint8_t> normal;
  us.reserve(kBeats * k);
  normal.reserve(kBeats);
  for (std::size_t b = 0; b < kBeats; ++b) {
    const auto& c = seeds->centroids[b % seeds->centroids.size()];
    const double spread = (b / 50) % 2 == 0 ? 20.0 : 400.0;
    for (std::size_t i = 0; i < k; ++i)
      us.push_back(
          static_cast<std::int32_t>(c.mean[i] + rng.normal(0, spread)));
    normal.push_back(b % 7 != 0 ? 1 : 0);
  }

  // Both counts are taken before any assertion: a failing one allocates.
  const std::int64_t before = live_bytes();
  drift::DriftTracker tracker(*seeds);
  const std::int64_t held = live_bytes() - before;
  const std::uint64_t calls_before = new_calls();
  for (std::size_t b = 0; b < kBeats; ++b)
    tracker.observe(std::span<const std::int32_t>(us.data() + b * k, k),
                    normal[b] != 0);
  const std::uint64_t observe_calls = new_calls() - calls_before;

  EXPECT_LE(held, kTrackerBudget) << "tracker heap: " << held << " bytes";
  EXPECT_EQ(observe_calls, 0u) << "operator new calls inside observe()";
  // The mix reached every branch: novel and familiar normals, alarms.
  EXPECT_GT(tracker.novel_beats(), 0u);
  EXPECT_LT(tracker.novel_beats(), kBeats / 2);
  EXPECT_GT(tracker.alarms(), 0u);
}

// A trainer keeps references to its two splits: constructing one adds
// under 1% of their window bytes to the live heap, where a trainer that
// copied both splits into arenas of its own would add all of them.
TEST(Footprint, TrainerHoldsNoCopyOfItsSplits) {
  const auto split = [](std::size_t beats) {
    ecg::BeatDataset ds;
    for (std::size_t i = 0; i < beats; ++i) {
      for (std::size_t s = 0; s < ds.window_size(); ++s)
        ds.samples.push_back(static_cast<dsp::Sample>((i * 31 + s) % 401));
      ds.labels.push_back(static_cast<ecg::BeatClass>(i % 3));
    }
    return ds;
  };
  const ecg::BeatDataset ts1 = split(450);
  const ecg::BeatDataset ts2 = split(1200);
  const auto window_bytes = static_cast<std::int64_t>(
      (ts1.samples.size() + ts2.samples.size()) * sizeof(dsp::Sample));
  core::TwoStepConfig cfg;

  const std::int64_t before = live_bytes();
  const core::TwoStepTrainer trainer(ts1, ts2, std::move(cfg));
  const std::int64_t grown = live_bytes() - before;
  EXPECT_LT(grown * 100, window_bytes)
      << "trainer construction grew the heap by " << grown << " B over "
      << window_bytes << " B of windows";
}

}  // namespace
