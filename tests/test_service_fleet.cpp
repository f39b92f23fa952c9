// Fleet service layer: determinism across shard/thread counts, equivalence
// with a standalone monitor, admission control, lossless backpressure under
// clean and fault-injected input, rate caps, in-order delivery,
// close/re-open mid-stream, and a close-only session matching a pumped one.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "service/fleet.hpp"
#include "testing/fault_inject.hpp"

namespace {

using hbrp::dsp::Sample;
using hbrp::dsp::Signal;
using hbrp::service::FleetConfig;
using hbrp::service::FleetEngine;
using hbrp::service::OfferOutcome;
using hbrp::service::SessionConfig;
using hbrp::service::SessionId;
using hbrp::service::SessionResult;

class FleetEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hbrp::ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 181;
    const auto ts1 = hbrp::ecg::build_dataset({150, 150, 150}, cfg);
    cfg.max_per_record_per_class = 80;
    cfg.seed = 182;
    const auto ts2 = hbrp::ecg::build_dataset({1200, 120, 150}, cfg);
    hbrp::core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 18;
    const hbrp::core::TwoStepTrainer trainer(ts1, ts2, tcfg);
    bundle_ = new hbrp::embedded::EmbeddedClassifier(trainer.run().quantize());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static const hbrp::embedded::EmbeddedClassifier* bundle_;
};

const hbrp::embedded::EmbeddedClassifier* FleetEngineTest::bundle_ = nullptr;

Signal patient_lead(std::uint64_t seed, double seconds = 45.0) {
  hbrp::ecg::SynthConfig cfg;
  cfg.profile = seed % 2 == 0 ? hbrp::ecg::RecordProfile::PvcOccasional
                              : hbrp::ecg::RecordProfile::NormalSinus;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  return hbrp::ecg::generate_record(cfg).leads[0];
}

/// The per-session output signature the determinism tests compare.
struct BeatSig {
  std::uint64_t sequence;
  std::size_t r_peak;
  hbrp::ecg::BeatClass predicted;
  hbrp::dsp::SignalQuality quality;
  bool operator==(const BeatSig&) const = default;
};

BeatSig signature(const SessionResult& r) {
  return {r.sequence, r.beat.r_peak, r.beat.predicted, r.beat.quality};
}

/// Replays `leads` as concurrent sessions against one engine configuration:
/// chunked round-robin offers with a pump after every round, then drain and
/// close. Returns one signature sequence per input lead.
std::vector<std::vector<BeatSig>> replay_fleet(
    const hbrp::embedded::EmbeddedClassifier& classifier,
    const std::vector<Signal>& leads, std::size_t threads,
    std::size_t shards, std::size_t chunk = 1024) {
  FleetConfig cfg;
  cfg.threads = threads;
  cfg.shards = shards;
  cfg.max_sessions = leads.size();
  FleetEngine engine(classifier, cfg);

  std::vector<std::vector<BeatSig>> out(leads.size());
  std::vector<SessionId> ids;
  for (std::size_t i = 0; i < leads.size(); ++i) {
    auto id = engine.open_session([&out, i](const SessionResult& r) {
      out[i].push_back(signature(r));
    });
    EXPECT_TRUE(id.has_value());
    ids.push_back(*id);
  }

  std::size_t offset = 0;
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < leads.size(); ++i) {
      if (offset >= leads[i].size()) continue;
      any = true;
      const std::size_t n = std::min(chunk, leads[i].size() - offset);
      const auto res = engine.offer(
          ids[i], std::span<const Sample>(leads[i].data() + offset, n));
      EXPECT_EQ(res.accepted, n);  // queues are sized for the schedule
    }
    offset += chunk;
    engine.pump();
  }
  engine.drain();
  for (const SessionId id : ids) EXPECT_TRUE(engine.close_session(id));
  return out;
}

TEST_F(FleetEngineTest, MatchesStandaloneMonitor) {
  const auto lead = patient_lead(7);

  // Reference: a monitor fed directly, each window classified on its own
  // with classify_window — independent of the fleet's classify_batch.
  hbrp::core::StreamingBeatMonitor monitor(*bundle_);
  std::vector<hbrp::core::MonitorBeat> reference;
  hbrp::embedded::ClassifyScratch scratch;
  const hbrp::core::PendingBeatSink ref_sink =
      [&](const hbrp::core::PendingBeat& pb) {
        hbrp::core::MonitorBeat beat = pb.beat;
        if (pb.needs_classification)
          beat.predicted = bundle_->classify_window(pb.window, scratch);
        reference.push_back(beat);
      };
  for (const Sample x : lead) monitor.push(x, ref_sink);
  monitor.flush(ref_sink);

  const auto fleet = replay_fleet(*bundle_, {lead}, 2, 2);
  ASSERT_EQ(fleet.size(), 1u);
  ASSERT_EQ(fleet[0].size(), reference.size());
  ASSERT_GT(reference.size(), 20u);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(fleet[0][i].sequence, i);
    EXPECT_EQ(fleet[0][i].r_peak, reference[i].r_peak);
    EXPECT_EQ(fleet[0][i].predicted, reference[i].predicted);
    EXPECT_EQ(fleet[0][i].quality, reference[i].quality);
  }
}

TEST_F(FleetEngineTest, DeterministicAcrossThreadsAndShards) {
  std::vector<Signal> leads;
  for (std::uint64_t s = 1; s <= 6; ++s) leads.push_back(patient_lead(s));

  const auto serial = replay_fleet(*bundle_, leads, 1, 1);
  std::size_t beats = 0;
  for (const auto& seq : serial) beats += seq.size();
  ASSERT_GT(beats, 100u);

  for (const auto& [threads, shards] :
       {std::pair<std::size_t, std::size_t>{2, 3}, {4, 4}, {3, 1}}) {
    const auto sharded = replay_fleet(*bundle_, leads, threads, shards);
    ASSERT_EQ(sharded.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(sharded[i], serial[i])
          << "session " << i << " diverged at threads=" << threads
          << " shards=" << shards;
  }
}

TEST_F(FleetEngineTest, InOrderDenseSequencedDelivery) {
  std::vector<Signal> leads = {patient_lead(11), patient_lead(12)};
  const auto out = replay_fleet(*bundle_, leads, 4, 2, 357);
  for (const auto& seq : out) {
    ASSERT_GT(seq.size(), 10u);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].sequence, i);  // dense, strictly increasing
      if (i > 0) {
        EXPECT_GT(seq[i].r_peak, seq[i - 1].r_peak);
      }
    }
  }
}

TEST_F(FleetEngineTest, AdmissionControlMaxSessions) {
  FleetConfig cfg;
  cfg.max_sessions = 2;
  FleetEngine engine(*bundle_, cfg);

  const auto a = engine.open_session({});
  const auto b = engine.open_session({});
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(engine.open_session({}).has_value());
  EXPECT_EQ(engine.telemetry().sessions_rejected.load(), 1u);
  EXPECT_EQ(engine.session_count(), 2u);

  EXPECT_TRUE(engine.close_session(*a));
  const auto c = engine.open_session({});
  EXPECT_TRUE(c.has_value());
  EXPECT_NE(*c, *a);  // ids are never reused
}

TEST_F(FleetEngineTest, AdmissionControlQueueBound) {
  FleetConfig cfg;
  cfg.max_queued_samples = 1000;
  FleetEngine engine(*bundle_, cfg);
  const auto id = engine.open_session({});
  ASSERT_TRUE(id);

  const std::vector<Sample> big(800, 1024);
  EXPECT_EQ(engine.offer(*id, std::span<const Sample>(big)).accepted, 800u);
  const std::vector<Sample> more(300, 1024);
  const auto res = engine.offer(*id, std::span<const Sample>(more));
  EXPECT_EQ(res.accepted, 0u);
  EXPECT_EQ(res.rejected, 300u);
  EXPECT_EQ(engine.telemetry().offers_rejected.load(), 1u);

  engine.pump();  // frees the gauge
  EXPECT_EQ(engine.queued_samples(), 0u);
  EXPECT_EQ(engine.offer(*id, std::span<const Sample>(more)).accepted, 300u);
}

TEST_F(FleetEngineTest, UnknownSessionOfferIsRejected) {
  FleetEngine engine(*bundle_, {});
  const std::vector<Sample> x(10, 0);
  const auto res = engine.offer(SessionId{999}, std::span<const Sample>(x));
  EXPECT_EQ(res.accepted, 0u);
  EXPECT_EQ(res.rejected, 10u);
  EXPECT_FALSE(engine.close_session(SessionId{999}));
}

TEST_F(FleetEngineTest, BackpressureBlockDefersWithoutLoss) {
  FleetConfig cfg;
  cfg.session.queue_capacity = 500;
  FleetEngine engine(*bundle_, cfg);
  const auto id = engine.open_session({});
  ASSERT_TRUE(id);

  const auto lead = patient_lead(21, 20.0);
  std::size_t offset = 0;
  while (offset < lead.size()) {
    const auto res = engine.offer(
        *id, std::span<const Sample>(lead.data() + offset,
                                     lead.size() - offset));
    EXPECT_EQ(res.rejected, 0u);
    EXPECT_EQ(res.accepted + res.deferred, lead.size() - offset);
    offset += res.accepted;
    if (res.deferred > 0) engine.pump();  // make room, then retry
  }
  engine.drain();

  const auto* t = engine.session_telemetry(*id);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->samples_accepted.load(), lead.size());
  EXPECT_EQ(t->samples_processed.load(), lead.size());
  EXPECT_EQ(t->samples_rejected.load(), 0u);
  EXPECT_GT(t->samples_deferred.load(), 0u);  // backpressure did engage
  EXPECT_LE(t->queue_high_water.value(), 500u);
}

TEST_F(FleetEngineTest, FaultInjectedBurstsHonorBackpressure) {
  // Bursty, corrupt input: NaN garbage, lead-off, duplicated samples, fed
  // in irregular chunk sizes against a small queue. The engine must absorb
  // it all with bounded queues, coherent accounting and no loss.
  const auto lead = patient_lead(31, 30.0);
  hbrp::testing::FaultInjectorConfig fcfg;
  fcfg.seed = 404;
  const auto n = lead.size();
  fcfg.events = {
      {hbrp::testing::FaultKind::NonFinite, n / 10, n / 20, 0.0, 0.3},
      {hbrp::testing::FaultKind::LeadOff, n / 2, n / 10, 0.0, 0.0},
      {hbrp::testing::FaultKind::DupSamples, 3 * n / 4, n / 10, 0.0, 0.0},
  };
  // The injector's doubles become codes at the edge, as a driver's do.
  const Signal corrupted =
      hbrp::dsp::sanitize_lead(hbrp::testing::FaultInjector::apply(lead, fcfg),
                               hbrp::core::MonitorConfig{}.quality);

  FleetConfig cfg;
  cfg.session.queue_capacity = 700;
  cfg.session.max_samples_per_pump = 512;
  FleetEngine engine(*bundle_, cfg);
  std::size_t delivered = 0;
  const auto id =
      engine.open_session([&](const SessionResult&) { ++delivered; });
  ASSERT_TRUE(id);

  std::size_t offset = 0, burst = 97, deferrals = 0;
  while (offset < corrupted.size()) {
    const std::size_t take = std::min(burst, corrupted.size() - offset);
    const OfferOutcome res = engine.offer(
        *id, std::span<const Sample>(corrupted.data() + offset, take));
    EXPECT_EQ(res.accepted + res.deferred, take);
    EXPECT_EQ(res.rejected, 0u);
    offset += res.accepted;
    burst = burst * 31 % 1203 + 64;  // deterministic irregular burst sizes
    if (res.deferred > 0) {
      ++deferrals;
      engine.pump();  // make room, then retry the remainder
    } else if (burst % 3 == 0) {
      engine.pump();
    }
  }
  engine.drain();
  const auto* t = engine.session_telemetry(*id);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->samples_accepted.load(), corrupted.size());
  EXPECT_EQ(t->samples_processed.load(), corrupted.size());
  EXPECT_LE(t->queue_high_water.value(), 700u);
  EXPECT_TRUE(engine.close_session(*id));

  EXPECT_GT(deferrals, 0u);  // the bursts did overrun the queue
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(engine.queued_samples(), 0u);
  EXPECT_EQ(engine.telemetry().beats_out.load(), delivered);
}

TEST_F(FleetEngineTest, RateCapBoundsWorkPerPump) {
  FleetConfig cfg;
  cfg.session.max_samples_per_pump = 1000;
  FleetEngine engine(*bundle_, cfg);
  const auto id = engine.open_session({});
  ASSERT_TRUE(id);

  const std::vector<Sample> x(5000, 1024);
  ASSERT_EQ(engine.offer(*id, std::span<const Sample>(x)).accepted, 5000u);
  engine.pump();
  EXPECT_EQ(engine.queued_samples(), 4000u);
  engine.pump();
  EXPECT_EQ(engine.queued_samples(), 3000u);
  engine.drain();
  EXPECT_EQ(engine.queued_samples(), 0u);
}

TEST_F(FleetEngineTest, CloseMidStreamDeliversTailThenReopenIsClean) {
  const auto lead = patient_lead(41);

  FleetEngine engine(*bundle_, {});
  std::vector<BeatSig> first, second;
  const auto a = engine.open_session(
      [&](const SessionResult& r) { first.push_back(signature(r)); });
  ASSERT_TRUE(a);
  // Half the record, then close mid-stream: the buffered tail must come out.
  const std::size_t half = lead.size() / 2;
  engine.offer(*a, std::span<const Sample>(lead.data(), half));
  engine.drain();
  const std::size_t before_close = first.size();
  EXPECT_TRUE(engine.close_session(*a));
  EXPECT_GT(first.size(), before_close);  // close flushed buffered beats

  // Re-open and replay the full record: fresh state, fresh sequence space.
  const auto b = engine.open_session(
      [&](const SessionResult& r) { second.push_back(signature(r)); });
  ASSERT_TRUE(b);
  engine.offer(*b, std::span<const Sample>(lead));
  engine.drain();
  EXPECT_TRUE(engine.close_session(*b));
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second.front().sequence, 0u);
}

// close_session() sends the tail down the pump round's own path, so a
// session closed before any pump round delivers exactly what the same
// stream pumped to completion delivers.
TEST_F(FleetEngineTest, CloseWithoutPumpMatchesPumpedRun) {
  const auto lead = patient_lead(44, 30.0);
  struct Verdict {
    BeatSig sig;
    std::uint64_t model_version;
    bool operator==(const Verdict&) const = default;
  };
  const auto run = [&lead](bool pump) {
    FleetConfig cfg;
    cfg.session.queue_capacity = lead.size();
    FleetEngine engine(*bundle_, cfg);
    std::vector<Verdict> out;
    const auto id = engine.open_session([&out](const SessionResult& r) {
      out.push_back({signature(r), r.model_version});
    });
    EXPECT_TRUE(id.has_value());
    const std::span<const Sample> all(lead);
    for (std::size_t off = 0; off < lead.size(); off += 1024) {
      const std::size_t n = std::min<std::size_t>(1024, lead.size() - off);
      EXPECT_EQ(engine.offer(*id, all.subspan(off, n)).accepted, n);
      if (pump) engine.pump();
    }
    if (pump) engine.drain();
    const std::size_t before_close = out.size();
    EXPECT_TRUE(engine.close_session(*id));
    EXPECT_GT(out.size(), before_close) << "the close tail must deliver";
    return out;
  };
  const auto pumped = run(true);
  const auto closed = run(false);
  ASSERT_GT(pumped.size(), 20u);
  EXPECT_EQ(closed, pumped);
}

TEST_F(FleetEngineTest, TelemetryJsonSnapshot) {
  FleetEngine engine(*bundle_, {});
  const auto id = engine.open_session({});
  ASSERT_TRUE(id);
  const auto lead = patient_lead(51, 20.0);
  engine.offer(*id, std::span<const Sample>(lead));
  engine.drain();

  const std::string json = engine.telemetry_json();
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"sessions\""), std::string::npos);
  EXPECT_NE(json.find("\"beat_latency_p99_us\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// A session mirrors what its monitor clamped and suppressed into its
// telemetry and the JSON snapshot, so an operator can see a node streaming
// out-of-rail codes and how much signal a lead-off cost.
TEST_F(FleetEngineTest, TelemetryCountsClampedAndSuppressedSamples) {
  Signal codes = patient_lead(61, 30.0);
  const std::size_t n = codes.size();
  codes[n / 5] = 4000;
  codes[n / 5 + 1] = -4000;
  codes[n / 5 + 2] = std::numeric_limits<Sample>::max();
  codes[n / 5 + 3] = 2048;
  // Lead-off: a 3 s flat line.
  std::fill_n(codes.begin() + static_cast<std::ptrdiff_t>(n / 2),
              3 * hbrp::dsp::kMitBihFs, Sample{0});
  const auto out_of_rail = static_cast<std::uint64_t>(std::count_if(
      codes.begin(), codes.end(), [](Sample x) { return x < 0 || x > 2047; }));
  ASSERT_GE(out_of_rail, 4u);

  // Reference: a standalone monitor over the same codes.
  hbrp::core::StreamingBeatMonitor monitor(*bundle_);
  monitor.push_block(codes, [](const hbrp::core::PendingBeat&) {});
  const std::uint64_t clamped = monitor.stats().clamped;
  const std::uint64_t suppressed = monitor.stats().bad_signal_samples;
  EXPECT_EQ(clamped, out_of_rail);
  ASSERT_GT(suppressed, 0u);

  FleetEngine engine(*bundle_, {});
  const auto id = engine.open_session({});
  ASSERT_TRUE(id);
  ASSERT_EQ(engine.offer(*id, std::span<const Sample>(codes)).accepted, n);
  engine.drain();
  const auto* t = engine.session_telemetry(*id);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->samples_clamped.load(), clamped);
  EXPECT_EQ(t->bad_signal_samples.load(), suppressed);
  const std::string json = engine.telemetry_json();
  EXPECT_NE(json.find("\"samples_clamped\": " + std::to_string(clamped)),
            std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"bad_signal_samples\": " + std::to_string(suppressed)),
      std::string::npos)
      << json;
  EXPECT_TRUE(engine.close_session(*id));
}

TEST_F(FleetEngineTest, ConcurrentProducersWithLivePump) {
  // Four producer threads streaming distinct patients while the main
  // thread pumps: exercises the offer/pump locking under TSan.
  constexpr std::size_t kProducers = 4;
  FleetConfig cfg;
  cfg.threads = 2;
  FleetEngine engine(*bundle_, cfg);

  std::vector<SessionId> ids;
  std::vector<std::vector<BeatSig>> out(kProducers);
  for (std::size_t i = 0; i < kProducers; ++i) {
    const auto id = engine.open_session([&out, i](const SessionResult& r) {
      out[i].push_back(signature(r));
    });
    ASSERT_TRUE(id);
    ids.push_back(*id);
  }

  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < kProducers; ++i) {
    producers.emplace_back([&, i] {
      const auto lead = patient_lead(60 + i, 20.0);
      std::size_t offset = 0;
      while (offset < lead.size()) {
        const std::size_t take = std::min<std::size_t>(512,
                                                       lead.size() - offset);
        const auto res = engine.offer(
            ids[i], std::span<const Sample>(lead.data() + offset, take));
        offset += res.accepted;
        if (res.accepted == 0) std::this_thread::yield();
      }
    });
  }
  for (int round = 0; round < 10000 &&
                      (engine.queued_samples() > 0 || round < 50);
       ++round)
    engine.pump();
  for (auto& p : producers) p.join();
  engine.drain();

  for (std::size_t i = 0; i < kProducers; ++i) {
    const auto* t = engine.session_telemetry(ids[i]);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->samples_processed.load(), t->samples_accepted.load());
    for (std::size_t j = 0; j < out[i].size(); ++j)
      EXPECT_EQ(out[i][j].sequence, j);
  }
  // Close before `out` goes out of scope: the destructor would otherwise
  // flush the buffered tails into sinks whose capture is already dead.
  for (const SessionId id : ids) EXPECT_TRUE(engine.close_session(id));
}

}  // namespace
