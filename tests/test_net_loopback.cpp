// End-to-end loopback tests for the src/net subsystem: gateway + client
// round trips, verdict bit-identity vs direct FleetEngine ingest across
// thread/shard counts, out-of-rail codes clamped on the node, the
// selective-transmission policy, corrupted-frame rejection, reconnect
// recovery with at-least-once uploads, the bounded upload window across an
// outage, admission refusal, and session-leak checks.
#include <gtest/gtest.h>

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/fleet.hpp"

namespace {

using namespace hbrp;
using Clock = std::chrono::steady_clock;

class NetLoopbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 181;
    const auto ts1 = ecg::build_dataset({150, 150, 150}, cfg);
    cfg.max_per_record_per_class = 80;
    cfg.seed = 182;
    const auto ts2 = ecg::build_dataset({1200, 120, 150}, cfg);
    core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 18;
    const core::TwoStepTrainer trainer(ts1, ts2, tcfg);
    bundle_ = new embedded::EmbeddedClassifier(trainer.run().quantize());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static const embedded::EmbeddedClassifier* bundle_;
};

const embedded::EmbeddedClassifier* NetLoopbackTest::bundle_ = nullptr;

dsp::Signal patient_lead(std::uint64_t seed, double seconds = 30.0) {
  ecg::SynthConfig cfg;
  cfg.profile = seed % 2 == 0 ? ecg::RecordProfile::PvcOccasional
                              : ecg::RecordProfile::NormalSinus;
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

/// Reference path: the codes offered straight into a FleetEngine session
/// (no sockets), pumped to completion.
std::vector<VerdictSig> direct_ingest(
    const embedded::EmbeddedClassifier& classifier,
    const dsp::Signal& samples, std::size_t threads, std::size_t shards) {
  service::FleetConfig cfg;
  cfg.threads = threads;
  cfg.shards = shards;
  service::FleetEngine engine(classifier, cfg);
  std::vector<VerdictSig> out;
  const auto id =
      engine.open_session([&out](const service::SessionResult& r) {
        out.push_back(VerdictSig{
            r.sequence, static_cast<std::uint64_t>(r.beat.r_peak),
            static_cast<std::uint8_t>(r.beat.predicted),
            static_cast<std::uint8_t>(r.beat.quality)});
      });
  EXPECT_TRUE(id.has_value());
  const std::span<const dsp::Sample> all(samples);
  std::size_t off = 0;
  while (off < all.size()) {
    const std::size_t n = std::min<std::size_t>(1024, all.size() - off);
    const auto res = engine.offer(*id, all.subspan(off, n));
    off += res.accepted;
    engine.pump();
  }
  engine.drain();
  EXPECT_TRUE(engine.close_session(*id));
  return out;
}

/// Gateway on its own serve() thread; stopped and joined on destruction.
struct GatewayHarness {
  net::GatewayServer gw;
  std::thread thread;

  GatewayHarness(const embedded::EmbeddedClassifier& classifier,
                 net::GatewayConfig cfg)
      : gw(classifier, std::move(cfg)),
        thread([this] { gw.serve(); }) {}
  ~GatewayHarness() {
    gw.stop();
    thread.join();
  }
};

bool poll_client_until(net::SensorNodeClient& cl,
                       const std::function<bool()>& done,
                       int budget_ms = 10000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
  while (Clock::now() < deadline) {
    if (done()) return true;
    cl.poll_once(2);
  }
  return done();
}

/// Waits until the gateway has finalized every connection and session (its
/// serve thread needs a round or two after the last client leaves).
void await_gateway_idle(net::GatewayServer& gw, int budget_ms = 5000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
  while ((gw.connection_count() != 0 || gw.engine().session_count() != 0) &&
         Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

TEST_F(NetLoopbackTest, GracefulCloseReleasesConnectionAndSession) {
  GatewayHarness harness(*bundle_, {});
  net::NodeConfig ncfg;
  ncfg.port = harness.gw.port();
  net::SensorNodeClient client(*bundle_, ncfg);
  ASSERT_TRUE(poll_client_until(client, [&] { return client.established(); }));
  EXPECT_EQ(harness.gw.engine().session_count(), 1u);
  client.close(5000);
  EXPECT_EQ(client.state(), net::LinkState::Closed);
  await_gateway_idle(harness.gw);
  EXPECT_EQ(harness.gw.connection_count(), 0u);
  EXPECT_EQ(harness.gw.engine().session_count(), 0u);
  EXPECT_EQ(harness.gw.stats().conns_accepted.load(), 1u);
  EXPECT_EQ(harness.gw.stats().conns_closed.load(), 1u);
}

TEST_F(NetLoopbackTest, StreamEverythingIsBitIdenticalToDirectIngest) {
  const auto lead = patient_lead(7);
  const auto reference = direct_ingest(*bundle_, lead, 1, 1);
  ASSERT_FALSE(reference.empty());
  // The engine's own determinism contract, restated here because the wire
  // claim leans on it: any thread/shard count produces the same stream.
  EXPECT_EQ(direct_ingest(*bundle_, lead, 4, 3), reference);

  for (const auto& [threads, shards] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {4, 3}}) {
    net::GatewayConfig gcfg;
    gcfg.fleet.threads = threads;
    gcfg.fleet.shards = shards;
    GatewayHarness harness(*bundle_, gcfg);

    net::NodeConfig ncfg;
    ncfg.port = harness.gw.port();
    ncfg.policy = net::TxPolicy::StreamEverything;
    net::SensorNodeClient client(*bundle_, ncfg);
    std::vector<VerdictSig> got;
    client.set_verdict_sink(
        [&got](std::uint64_t seq, const net::BeatVerdictMsg& v) {
          got.push_back(VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
        });

    client.push(std::span<const dsp::Sample>(lead));
    client.finish();
    EXPECT_TRUE(client.drain(20000));
    client.close(5000);

    EXPECT_EQ(client.state(), net::LinkState::Closed);
    EXPECT_EQ(got, reference)
        << "threads=" << threads << " shards=" << shards;
    EXPECT_EQ(client.stats().verdict_seq_gaps, 0u);
    EXPECT_EQ(client.stats().frames_dropped, 0u);
  }
}

TEST_F(NetLoopbackTest, TinySessionQueueStaysLossless) {
  // A session queue of 600 samples, drained 256 per pump round, behind a
  // client whose 1024-sample chunks can never fit whole: every chunk parks
  // its remainder on the connection, the socket is not read until the
  // reactor's retry has moved it into the queue, and the verdict stream
  // must still equal direct ingest of every sample.
  const auto lead = patient_lead(13);
  const auto reference = direct_ingest(*bundle_, lead, 1, 1);
  ASSERT_FALSE(reference.empty());

  net::GatewayConfig gcfg;
  gcfg.fleet.session.queue_capacity = 600;
  gcfg.fleet.session.max_samples_per_pump = 256;
  GatewayHarness harness(*bundle_, gcfg);

  net::NodeConfig ncfg;
  ncfg.port = harness.gw.port();
  ncfg.policy = net::TxPolicy::StreamEverything;
  ncfg.chunk_samples = 1024;
  net::SensorNodeClient client(*bundle_, ncfg);
  std::vector<VerdictSig> got;
  client.set_verdict_sink(
      [&got](std::uint64_t seq, const net::BeatVerdictMsg& v) {
        got.push_back(VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
      });
  client.push(std::span<const dsp::Sample>(lead));
  client.finish();
  EXPECT_TRUE(client.drain(20000));
  // The engine numbers sessions from 1; this client's is the only one.
  // Close as soon as the queue has deferred samples, so the BYE lands
  // while later chunks are still parked or unread.
  const service::SessionTelemetry* t =
      harness.gw.engine().session_telemetry(service::SessionId{1});
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(poll_client_until(client, [&] {
    return t->samples_deferred.load() > 0 ||
           t->samples_processed.load() == lead.size();
  }));
  const std::uint64_t deferred = t->samples_deferred.load();
  client.close(5000);

  EXPECT_EQ(client.state(), net::LinkState::Closed);
  EXPECT_EQ(got, reference);
  EXPECT_GT(deferred, 0u) << "the session queue never filled";
  EXPECT_EQ(client.stats().verdict_seq_gaps, 0u);
  EXPECT_EQ(client.stats().frames_dropped, 0u);
}

TEST_F(NetLoopbackTest, OutOfRailIntegerCodesAreClampedOnTheNode) {
  // Integer codes outside the rails cannot cross the 12-bit wire as they
  // are. The node clamps them exactly as the gateway's monitor would, so
  // the verdicts equal direct ingest of the clamped codes, which equal
  // direct ingest of the raw ones.
  auto codes = patient_lead(11);
  const dsp::QualityConfig rails = core::MonitorConfig{}.quality;
  const std::vector<std::pair<std::size_t, dsp::Sample>> outliers = {
      {300, rails.rail_high + 1},
      {301, 4000},
      {2000, rails.rail_low - 1},
      {2001, -3000},
      {5000, std::numeric_limits<dsp::Sample>::max()},
      {5001, std::numeric_limits<dsp::Sample>::min()}};
  auto clamped = codes;
  for (const auto& [at, value] : outliers) {
    codes[at] = value;
    clamped[at] = std::clamp(value, rails.rail_low, rails.rail_high);
  }
  const auto reference = direct_ingest(*bundle_, clamped, 1, 1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(direct_ingest(*bundle_, codes, 1, 1), reference);

  GatewayHarness harness(*bundle_, {});
  net::NodeConfig ncfg;
  ncfg.port = harness.gw.port();
  ncfg.policy = net::TxPolicy::StreamEverything;
  net::SensorNodeClient client(*bundle_, ncfg);
  std::vector<VerdictSig> got;
  client.set_verdict_sink(
      [&got](std::uint64_t seq, const net::BeatVerdictMsg& v) {
        got.push_back(VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
      });
  client.push(std::span<const dsp::Sample>(codes));
  client.finish();
  EXPECT_TRUE(client.drain(20000));
  client.close(5000);

  EXPECT_EQ(got, reference);
  EXPECT_EQ(client.stats().samples_clamped, outliers.size());
  EXPECT_EQ(client.stats().frames_dropped, 0u);
}

TEST_F(NetLoopbackTest, NodeRailsMustFitTheWire) {
  // The constructor refuses rails whose codes, or whose conditioned
  // window (within +/-(rail_high - rail_low)), would not fit 12 bits.
  const auto make = [](dsp::Sample lo, dsp::Sample hi) {
    net::NodeConfig ncfg;
    ncfg.port = 1;
    ncfg.monitor.quality.rail_low = lo;
    ncfg.monitor.quality.rail_high = hi;
    net::SensorNodeClient client(*bundle_, ncfg);
  };
  EXPECT_NO_THROW(make(0, 2047));
  EXPECT_NO_THROW(make(-1024, 1023));
  EXPECT_THROW(make(0, 2048), hbrp::Error);
  EXPECT_THROW(make(-2049, -100), hbrp::Error);
  EXPECT_THROW(make(-1024, 1024), hbrp::Error);
}

TEST_F(NetLoopbackTest, SelectivePolicyKeepsNormalBeatsLocal) {
  // Mostly-normal rhythm: the node's monitor equals the fleet session's
  // monitor, so the reference run predicts the exact local/upload split.
  const auto lead = patient_lead(9);
  const auto reference = direct_ingest(*bundle_, lead, 1, 1);
  std::size_t expect_local = 0, expect_full = 0, expect_meta = 0;
  for (const auto& r : reference) {
    const bool good = static_cast<dsp::SignalQuality>(r.quality) ==
                      dsp::SignalQuality::Good;
    const bool path =
        ecg::is_pathological(static_cast<ecg::BeatClass>(r.beat_class));
    if (good && !path)
      ++expect_local;  // 1-byte record, zero radio
    else if (good)
      ++expect_full;  // full window upload
    else
      ++expect_meta;  // Suspect signal: escalation metadata, no window
  }
  ASSERT_GT(expect_local, 0u);
  ASSERT_GT(expect_full, 0u);

  GatewayHarness harness(*bundle_, {});
  net::NodeConfig ncfg;
  ncfg.port = harness.gw.port();
  ncfg.policy = net::TxPolicy::Selective;
  ncfg.heartbeat_interval_ms = 0;  // exact byte accounting below
  net::SensorNodeClient client(*bundle_, ncfg);
  std::vector<std::uint64_t> verdict_seqs;
  client.set_verdict_sink(
      [&verdict_seqs](std::uint64_t seq, const net::BeatVerdictMsg&) {
        verdict_seqs.push_back(seq);
      });

  client.push(std::span<const dsp::Sample>(lead));
  client.finish();
  EXPECT_TRUE(client.drain(20000));
  client.close(5000);

  const net::TxStats& s = client.stats();
  EXPECT_EQ(s.beats_local, expect_local);
  EXPECT_EQ(s.beats_uploaded, expect_full + expect_meta);
  EXPECT_EQ(client.local_log().size(), s.beats_local);
  EXPECT_EQ(client.unacked_full_beats(), 0u) << "every upload must be acked";
  // One gateway verdict per distinct upload, in upload order.
  ASSERT_EQ(verdict_seqs.size(), s.beats_uploaded);
  for (std::size_t i = 0; i < verdict_seqs.size(); ++i)
    EXPECT_EQ(verdict_seqs[i], i);
  // Local records carry class+quality in 4 bits; normal beats only.
  for (const std::uint8_t rec : client.local_log()) {
    EXPECT_FALSE(ecg::is_pathological(
        static_cast<ecg::BeatClass>(rec & 0x3u)));
    EXPECT_EQ(static_cast<dsp::SignalQuality>((rec >> 2) & 0x3u),
              dsp::SignalQuality::Good);
  }

  const auto& gs = harness.gw.stats();
  EXPECT_EQ(gs.full_beats_rx.load(), s.beats_uploaded);
  EXPECT_EQ(gs.samples_rx.load(), 0u) << "selective mode ships no raw chunks";

  // Exact bytes-on-wire accounting: HELLO + BYE + one frame per upload —
  // nothing else leaves the node (heartbeats disabled above). A window's
  // frame size depends on its codes, so each uploaded window is taken from
  // a monitor run over the same lead (the node's monitor reports the same
  // beats) and encoded.
  std::map<std::uint64_t, std::size_t> window_frame_bytes;
  core::StreamingBeatMonitor monitor(*bundle_, ncfg.monitor);
  const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
    if (!pb.window.empty())
      window_frame_bytes[static_cast<std::uint64_t>(pb.beat.r_peak)] =
          net::kHeaderBytes +
          net::encode_full_beat(net::FullBeatMsg{}, pb.window).size();
  };
  monitor.push_block(lead, sink);
  monitor.flush(sink);
  std::uint64_t expect_bytes =
      (net::kHeaderBytes + net::kHelloPayloadBytes) + net::kHeaderBytes;
  for (const auto& r : reference) {
    const bool good = static_cast<dsp::SignalQuality>(r.quality) ==
                      dsp::SignalQuality::Good;
    if (!good)
      expect_bytes += net::kHeaderBytes + net::kFullBeatFixedBytes;
    else if (ecg::is_pathological(static_cast<ecg::BeatClass>(r.beat_class)))
      expect_bytes += window_frame_bytes.at(r.r_peak);
  }
  EXPECT_EQ(s.bytes_tx, expect_bytes);

  // The paper's point: the selective policy costs a fraction of shipping
  // the raw stream, the same samples as SAMPLE_CHUNK frames.
  const std::size_t chunk = ncfg.chunk_samples;
  std::uint64_t stream_everything_bytes = 0;
  const std::span<const dsp::Sample> all(lead);
  for (std::size_t off = 0; off < all.size(); off += chunk)
    stream_everything_bytes +=
        net::kHeaderBytes +
        net::encode_sample_chunk(
            all.subspan(off, std::min(chunk, all.size() - off)))
            .size();
  EXPECT_LT(s.bytes_tx, stream_everything_bytes / 2);
  const platform::PowerModel power;
  EXPECT_GT(net::radio_energy_j(s, power), 0.0);
  EXPECT_LT(net::radio_energy_j(s, power),
            static_cast<double>(stream_everything_bytes) *
                power.radio_j_per_byte / 2);
}

TEST_F(NetLoopbackTest, GatewayDropsCorruptAndOutOfSeqConnections) {
  GatewayHarness harness(*bundle_, {});
  const std::uint16_t port = harness.gw.port();

  const auto raw_session = [&](const std::vector<unsigned char>& bytes) {
    net::Socket s = net::connect_loopback(port);
    ASSERT_TRUE(s.valid());
    // Loopback connect completes fast; wait for writability then blast.
    pollfd p{};
    p.fd = s.fd();
    p.events = POLLOUT;
    ASSERT_GT(::poll(&p, 1, 2000), 0);
    std::size_t off = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (off < bytes.size() && Clock::now() < deadline) {
      const auto r = net::send_some(
          s.fd(), std::span<const unsigned char>(bytes).subspan(off));
      if (r.n > 0) off += r.n;
      if (r.error) break;
      if (r.would_block) std::this_thread::sleep_for(
          std::chrono::milliseconds(1));
    }
    // The gateway must answer by closing the connection.
    unsigned char buf[512];
    p.events = POLLIN;
    while (Clock::now() < deadline) {
      (void)::poll(&p, 1, 50);
      const auto r = net::recv_some(s.fd(), buf);
      if (r.eof || r.error) return;
      if (r.would_block) continue;
    }
    FAIL() << "gateway did not close the misbehaving connection";
  };

  // 1) Garbage from byte one: parser Corrupt, no session ever opened.
  raw_session(std::vector<unsigned char>(64, 0xA5));

  // 2) Valid HELLO, then a frame whose CRC is wrong.
  {
    net::HelloMsg m;
    m.policy = net::TxPolicy::StreamEverything;
    m.fs_hz = 360;
    std::vector<unsigned char> bytes;
    net::append_frame(bytes, net::FrameType::Hello, 0, net::encode_hello(m));
    const std::size_t mark = bytes.size();
    net::append_frame(bytes, net::FrameType::Heartbeat, 1, {});
    bytes[mark + net::kHeaderBytes - 1] ^= 0xFF;  // corrupt the CRC
    raw_session(bytes);
  }

  // 3) Valid HELLO, then a chunk with a sequence gap.
  {
    net::HelloMsg m;
    m.policy = net::TxPolicy::StreamEverything;
    m.fs_hz = 360;
    std::vector<unsigned char> bytes;
    net::append_frame(bytes, net::FrameType::Hello, 0, net::encode_hello(m));
    const std::vector<dsp::Sample> codes(16, 100);
    net::append_frame(bytes, net::FrameType::SampleChunk, 5,
                      net::encode_sample_chunk(codes));
    raw_session(bytes);
  }

  // 4) Selective HELLO with a window the gateway's model cannot accept.
  {
    net::HelloMsg m;
    m.policy = net::TxPolicy::Selective;
    m.window = static_cast<std::uint16_t>(
        bundle_->projector().expected_window() + 7);
    m.fs_hz = 360;
    std::vector<unsigned char> bytes;
    net::append_frame(bytes, net::FrameType::Hello, 0, net::encode_hello(m));
    raw_session(bytes);
  }

  // Give the gateway a beat to finish closing, then check the books: every
  // abuse was counted, nothing crashed, and no session leaked.
  await_gateway_idle(harness.gw);
  EXPECT_EQ(harness.gw.connection_count(), 0u);
  EXPECT_EQ(harness.gw.engine().session_count(), 0u);
  const auto& gs = harness.gw.stats();
  EXPECT_GE(gs.frame_rejects.load(), 2u);   // garbage + bad CRC
  EXPECT_GE(gs.seq_rejects.load(), 1u);     // the chunk gap
  EXPECT_GE(gs.conns_dropped_protocol.load(), 3u);

  // A well-behaved client still gets full service afterwards.
  const auto lead = patient_lead(3, 10.0);
  const auto reference = direct_ingest(*bundle_, lead, 1, 1);
  net::NodeConfig ncfg;
  ncfg.port = port;
  net::SensorNodeClient client(*bundle_, ncfg);
  std::vector<VerdictSig> got;
  client.set_verdict_sink(
      [&got](std::uint64_t seq, const net::BeatVerdictMsg& v) {
        got.push_back(VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
      });
  client.push(std::span<const dsp::Sample>(lead));
  client.finish();
  EXPECT_TRUE(client.drain(20000));
  client.close(5000);
  EXPECT_EQ(got, reference);
}

TEST_F(NetLoopbackTest, ClientReconnectsWithBackoffAndResendsUnacked) {
  const auto lead = patient_lead(4);  // PVC profile: guarantees uploads
  std::uint16_t port = 0;

  net::NodeConfig ncfg;
  ncfg.policy = net::TxPolicy::Selective;
  ncfg.backoff_initial_ms = 5;
  ncfg.backoff_max_ms = 50;

  std::vector<std::uint64_t> verdict_seqs;
  std::optional<net::SensorNodeClient> client;

  {
    GatewayHarness first(*bundle_, {});
    port = first.gw.port();
    ncfg.port = port;
    client.emplace(*bundle_, ncfg);
    client->set_verdict_sink(
        [&verdict_seqs](std::uint64_t seq, const net::BeatVerdictMsg&) {
          verdict_seqs.push_back(seq);
        });
    ASSERT_TRUE(poll_client_until(
        *client, [&] { return client->established(); }));
    // Queue the whole record (uploads land in the unacked window), then
    // kill the gateway before the client gets to flush everything.
    client->push(std::span<const dsp::Sample>(lead));
    client->finish();
    ASSERT_GT(client->stats().beats_uploaded, 0u);
  }

  // Gateway is gone: the client must notice and enter backoff, not crash.
  ASSERT_TRUE(poll_client_until(*client, [&] {
    return client->state() == net::LinkState::Backoff ||
           client->state() == net::LinkState::Connecting ||
           client->state() == net::LinkState::Idle;
  }));

  // Same port, new gateway (a fresh fleet): the client reconnects and
  // retransmits every unacked upload until acked.
  GatewayHarness second(*bundle_, [&] {
    net::GatewayConfig g;
    g.port = port;
    return g;
  }());
  ASSERT_TRUE(poll_client_until(
      *client,
      [&] { return client->established() && client->unacked_full_beats() == 0; },
      20000));
  EXPECT_GE(client->stats().reconnects, 1u);
  client->close(5000);
  EXPECT_EQ(client->state(), net::LinkState::Closed);

  // Every upload produced exactly one verdict (the gateway dedupes
  // at-least-once retransmits): seqs are unique and cover the uploads.
  std::sort(verdict_seqs.begin(), verdict_seqs.end());
  EXPECT_TRUE(std::adjacent_find(verdict_seqs.begin(), verdict_seqs.end()) ==
              verdict_seqs.end())
      << "duplicate verdict for a retransmitted upload";
  EXPECT_EQ(verdict_seqs.size(), client->stats().beats_uploaded);
  await_gateway_idle(second.gw);
  EXPECT_EQ(second.gw.engine().session_count(), 0u);
}

TEST_F(NetLoopbackTest, UnansweredUploadsLeavingTheWindowAreCounted) {
  // A small window, and a first "gateway" that completes the handshake but
  // never answers: every upload the node sends there stays unanswered.
  // Some leave the window while in flight on that connection, the rest
  // during the outage after it. Each must end counted as dropped, so a
  // drained node has one verdict or one drop per upload; that also means
  // every upload seq was marked seen, which empties the verdict dedup set.
  constexpr std::size_t kWindow = 8;
  ecg::SynthConfig scfg;
  scfg.profile = ecg::RecordProfile::PvcBigeminy;
  scfg.duration_s = 60.0;
  scfg.num_leads = 1;
  scfg.seed = 31;
  const dsp::Signal lead = ecg::generate_record(scfg).leads[0];
  net::NodeConfig ncfg;
  ncfg.policy = net::TxPolicy::Selective;
  ncfg.max_unacked_full_beats = kWindow;
  ncfg.backoff_initial_ms = 5;
  ncfg.backoff_max_ms = 50;
  std::vector<std::uint64_t> verdict_seqs;
  std::optional<net::SensorNodeClient> client;
  auto push_uploads = [&] {
    const std::uint64_t before = client->stats().beats_uploaded;
    client->push(std::span<const dsp::Sample>(lead));
    return client->stats().beats_uploaded - before;
  };

  {
    net::TcpListener mute(0);
    ncfg.port = mute.port();
    client.emplace(*bundle_, ncfg);
    client->set_verdict_sink(
        [&verdict_seqs](std::uint64_t seq, const net::BeatVerdictMsg&) {
          verdict_seqs.push_back(seq);
        });
    net::Socket peer;
    ASSERT_TRUE(poll_client_until(*client, [&] {
      if (!peer.valid()) peer = mute.accept();
      return peer.valid();
    }));
    std::vector<unsigned char> ack;
    net::append_frame(ack, net::FrameType::HelloAck, 0,
                      net::encode_hello_ack({}));
    ASSERT_EQ(net::send_some(peer.fd(), ack).n, ack.size());
    ASSERT_TRUE(
        poll_client_until(*client, [&] { return client->established(); }));

    // Fill the window and put all of it on the wire; then overflow it
    // with those uploads still in flight, and send the newcomers too.
    ASSERT_GE(push_uploads(), kWindow);
    ASSERT_TRUE(poll_client_until(
        *client, [&] { return client->pending_bytes() == 0; }));
    ASSERT_GE(push_uploads(), kWindow);
    ASSERT_TRUE(poll_client_until(
        *client, [&] { return client->pending_bytes() == 0; }));
  }
  // The mute gateway is gone with its unread uploads.
  ASSERT_TRUE(
      poll_client_until(*client, [&] { return !client->established(); }));
  // The outage pushes the last sent uploads out of the window.
  ASSERT_GE(push_uploads(), kWindow);
  client->finish();

  GatewayHarness second(*bundle_, [&] {
    net::GatewayConfig g;
    g.port = ncfg.port;
    return g;
  }());
  ASSERT_TRUE(poll_client_until(
      *client,
      [&] { return client->established() && client->unacked_full_beats() == 0; },
      20000));
  // Settled with the link still up: no upload waits for a disconnect to be
  // counted.
  const net::TxStats& s = client->stats();
  EXPECT_EQ(s.verdicts_rx + s.frames_dropped, s.beats_uploaded);
  client->close(5000);
  EXPECT_EQ(s.verdicts_rx + s.frames_dropped, s.beats_uploaded);
  std::vector<std::uint64_t> newest(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i)
    newest[i] = s.beats_uploaded - kWindow + i;
  EXPECT_EQ(verdict_seqs, newest);
  EXPECT_EQ(s.verdict_dups, 0u);
}

TEST_F(NetLoopbackTest, OutageKeepsNewestUploadsCountsTheRest) {
  // Minutes of bigeminy before the link ever comes up: the retransmit
  // window keeps the newest uploads and counts every older one as dropped.
  // Once connected, exactly the held uploads reach the gateway, oldest
  // first, and nothing the node counted as dropped comes back answered.
  ecg::SynthConfig scfg;
  scfg.profile = ecg::RecordProfile::PvcBigeminy;
  scfg.duration_s = 300.0;
  scfg.num_leads = 1;
  scfg.seed = 3;
  const dsp::Signal lead = ecg::generate_record(scfg).leads[0];
  constexpr std::size_t kWindow = 16;

  GatewayHarness harness(*bundle_, {});
  net::NodeConfig ncfg;
  ncfg.port = harness.gw.port();
  ncfg.policy = net::TxPolicy::Selective;
  ncfg.max_unacked_full_beats = kWindow;
  net::SensorNodeClient client(*bundle_, ncfg);
  std::vector<std::uint64_t> verdict_seqs;
  client.set_verdict_sink(
      [&verdict_seqs](std::uint64_t seq, const net::BeatVerdictMsg&) {
        verdict_seqs.push_back(seq);
      });
  client.push(std::span<const dsp::Sample>(lead));
  client.finish();
  const net::TxStats& s = client.stats();
  ASSERT_GT(s.beats_uploaded, 2 * kWindow);
  EXPECT_EQ(client.unacked_full_beats(), kWindow);
  EXPECT_EQ(s.frames_tx, 0u) << "the node was never polled";

  EXPECT_TRUE(client.drain(20000));
  client.close(5000);

  EXPECT_EQ(s.frames_dropped, s.beats_uploaded - kWindow);
  EXPECT_EQ(s.verdicts_rx, s.beats_uploaded - s.frames_dropped);
  std::vector<std::uint64_t> newest(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i)
    newest[i] = s.beats_uploaded - kWindow + i;
  EXPECT_EQ(verdict_seqs, newest);
  EXPECT_EQ(harness.gw.stats().full_beats_rx.load(), kWindow);
  EXPECT_EQ(s.retransmits, 0u);
}

TEST_F(NetLoopbackTest, AdmissionRefusalIsSignalledAndRecoverable) {
  net::GatewayConfig gcfg;
  gcfg.fleet.max_sessions = 1;
  GatewayHarness harness(*bundle_, gcfg);

  net::NodeConfig acfg;
  acfg.port = harness.gw.port();
  net::SensorNodeClient a(*bundle_, acfg);
  ASSERT_TRUE(poll_client_until(a, [&] { return a.established(); }));

  net::NodeConfig bcfg = acfg;
  bcfg.backoff_initial_ms = 5;
  bcfg.backoff_max_ms = 20;
  net::SensorNodeClient b(*bundle_, bcfg);
  ASSERT_TRUE(poll_client_until(
      b, [&] { return b.stats().hello_rejects >= 2; }));
  EXPECT_FALSE(b.established());
  EXPECT_EQ(harness.gw.engine().session_count(), 1u);

  // The slot frees when A leaves; B's ongoing retry loop must then win it.
  a.close(5000);
  ASSERT_TRUE(poll_client_until(b, [&] { return b.established(); }));
  EXPECT_EQ(harness.gw.engine().session_count(), 1u);
  b.close(5000);

  await_gateway_idle(harness.gw);
  EXPECT_EQ(harness.gw.engine().session_count(), 0u);
  EXPECT_EQ(harness.gw.connection_count(), 0u);
}

TEST_F(NetLoopbackTest, ConcurrentMixedPolicyClients) {
  net::GatewayConfig gcfg;
  gcfg.fleet.threads = 4;
  gcfg.fleet.shards = 2;
  GatewayHarness harness(*bundle_, gcfg);

  constexpr std::size_t kClients = 4;
  std::vector<dsp::Signal> leads;
  std::vector<std::vector<VerdictSig>> got(kClients);
  std::vector<net::TxStats> stats(kClients);
  for (std::size_t i = 0; i < kClients; ++i)
    leads.push_back(patient_lead(i, 15.0));

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      net::NodeConfig ncfg;
      ncfg.port = harness.gw.port();
      ncfg.node_id = static_cast<std::uint32_t>(i);
      ncfg.policy = i % 2 == 0 ? net::TxPolicy::StreamEverything
                               : net::TxPolicy::Selective;
      net::SensorNodeClient client(*bundle_, ncfg);
      client.set_verdict_sink(
          [&got, i](std::uint64_t seq, const net::BeatVerdictMsg& v) {
            got[i].push_back(
                VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
          });
      client.push(std::span<const dsp::Sample>(leads[i]));
      client.finish();
      EXPECT_TRUE(client.drain(30000)) << "client " << i;
      client.close(5000);
      stats[i] = client.stats();
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kClients; ++i) {
    if (i % 2 == 0) {
      // Streaming clients: the wire stream is bit-identical to direct
      // ingest even with three other sessions competing for the engine.
      EXPECT_EQ(got[i], direct_ingest(*bundle_, leads[i], 1, 1))
          << "client " << i;
      EXPECT_EQ(stats[i].verdict_seq_gaps, 0u);
    } else {
      EXPECT_EQ(got[i].size(), stats[i].beats_uploaded) << "client " << i;
    }
    EXPECT_EQ(stats[i].frames_dropped, 0u) << "client " << i;
  }
}

TEST_F(NetLoopbackTest, IdleTimeoutEvictsSilentClientAndClosesSession) {
  net::GatewayConfig gcfg;
  gcfg.idle_timeout_ms = 60;
  GatewayHarness harness(*bundle_, gcfg);

  // Heartbeat interval far beyond the timeout: once the client stops
  // being polled it goes silent from the gateway's point of view.
  net::NodeConfig ncfg;
  ncfg.port = harness.gw.port();
  ncfg.heartbeat_interval_ms = 10000;
  net::SensorNodeClient client(*bundle_, ncfg);
  ASSERT_TRUE(poll_client_until(client, [&] { return client.established(); }));
  EXPECT_EQ(harness.gw.engine().session_count(), 1u);

  // Do NOT poll the client again: no heartbeats leave the node. The
  // gateway must evict the connection and tear down its fleet session.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (harness.gw.stats().conns_dropped_idle.load() == 0 &&
         Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  EXPECT_EQ(harness.gw.stats().conns_dropped_idle.load(), 1u);
  await_gateway_idle(harness.gw);
  EXPECT_EQ(harness.gw.connection_count(), 0u);
  EXPECT_EQ(harness.gw.engine().session_count(), 0u);
  EXPECT_EQ(harness.gw.stats().conns_closed.load(), 1u);

  // A heartbeating client under the same timeout is never evicted.
  net::NodeConfig live_cfg;
  live_cfg.port = harness.gw.port();
  live_cfg.heartbeat_interval_ms = 15;
  net::SensorNodeClient live(*bundle_, live_cfg);
  ASSERT_TRUE(poll_client_until(live, [&] { return live.established(); }));
  const auto hold = Clock::now() + std::chrono::milliseconds(300);
  while (Clock::now() < hold) live.poll_once(2);
  EXPECT_TRUE(live.established());
  EXPECT_EQ(harness.gw.stats().conns_dropped_idle.load(), 1u);
  live.close(5000);
  await_gateway_idle(harness.gw);
  EXPECT_EQ(harness.gw.engine().session_count(), 0u);
  EXPECT_EQ(harness.gw.connection_count(), 0u);
}

}  // namespace
