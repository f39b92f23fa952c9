// Per-layer cost ledger of a traced bench_e2e run, and the trace file.
//
// Costs are measured from outside the program: the inputs the traced run
// actually sent (each stream's packets, in order, capped at a fixed replay
// budget) are replayed serially through each layer's public functions and
// every group of calls is timed with the steady clock. The ledger keys are
// therefore defined on every workload, including for layers that workload
// bypasses (they then read as the cost the layer would add). Tracing inside
// the program is a later change.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench/e2e/e2e.hpp"
#include "core/streaming.hpp"
#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"
#include "math/crc32.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "service/fleet.hpp"

namespace hbrp::e2e {
namespace {

/// Samples replayed per traced run, split evenly across the streams.
constexpr std::uint64_t kReplaySamples = 8'000'000;
constexpr std::size_t kReplayShards = 2;  // both layouts run two shards
constexpr std::size_t kBatch = 64;        // classify_batch sweep size
constexpr int kLifecycleReps = 15;
constexpr std::size_t kFrameBytes =
    net::kHeaderBytes + kPacket * sizeof(std::int32_t);

/// Keeps replayed results observable so no timed call is optimized away.
volatile std::uint64_t g_sink = 0;

template <typename F>
double median_us(F&& f) {
  std::vector<double> t;
  for (int r = 0; r < kLifecycleReps; ++r) {
    const std::int64_t a = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - a) / 1e3);
  }
  return median(std::move(t));
}

}  // namespace

std::vector<LayerKey> replay_layers(const Inputs& in, const RunConfig& cfg,
                                    const LiveRun& live) {
  const Model& model = in.model;
  const std::size_t streams = in.streams.size();
  const std::uint64_t per_stream =
      std::max<std::uint64_t>(1, kReplaySamples / kPacket / streams);
  std::vector<std::uint64_t> count(streams);
  std::uint64_t packets = 0;
  for (std::size_t s = 0; s < streams; ++s) {
    count[s] = std::min<std::uint64_t>(live.logs[s].sent_ns.size(), per_stream);
    packets += count[s];
  }
  const double samples =
      static_cast<double>(std::max<std::uint64_t>(packets, 1) * kPacket);
  std::vector<LayerKey> keys;
  auto add = [&keys](const char* name, double value, const char* unit) {
    keys.push_back(LayerKey{name, value, unit});
  };

  // --- net/wire: frame every packet, CRC it, parse it back, decode it ----
  std::vector<unsigned char> wire;
  wire.reserve(packets * kFrameBytes);
  std::int64_t t = now_ns();
  for (std::size_t s = 0; s < streams; ++s)
    for (std::uint64_t k = 0; k < count[s]; ++k)
      net::append_frame(wire, net::FrameType::SampleChunk, k,
                        net::encode_sample_chunk(in.streams[s].packet(k)));
  add("wire.chunk_encode_ns_per_sample",
      static_cast<double>(now_ns() - t) / samples, "ns");

  std::uint32_t crc = 0;
  t = now_ns();
  for (std::size_t o = 0; o + kFrameBytes <= wire.size(); o += kFrameBytes) {
    const std::uint32_t head = math::crc32(wire.data() + o, 16);
    crc ^= math::crc32(wire.data() + o + net::kHeaderBytes,
                       kFrameBytes - net::kHeaderBytes, head);
  }
  add("wire.crc_ns_per_byte",
      static_cast<double>(now_ns() - t) /
          static_cast<double>(packets * (kFrameBytes - 4)),
      "ns");
  g_sink = g_sink + crc;

  {
    net::FrameParser parser;
    std::uint64_t frames = 0;
    constexpr std::size_t kRead = 16384;  // the gateway's recv buffer size
    t = now_ns();
    for (std::size_t o = 0; o < wire.size(); o += kRead) {
      parser.feed(std::span<const unsigned char>(wire).subspan(
          o, std::min(kRead, wire.size() - o)));
      net::FrameView f;
      while (parser.next(f) == net::FrameParser::Status::Ok) ++frames;
    }
    add("wire.parse_ns_per_byte",
        static_cast<double>(now_ns() - t) / static_cast<double>(wire.size()),
        "ns");
    g_sink = g_sink + frames;
  }

  {
    std::vector<dsp::Sample> out;
    out.reserve(kPacket);
    t = now_ns();
    for (std::size_t o = 0; o + kFrameBytes <= wire.size(); o += kFrameBytes) {
      out.clear();
      net::decode_sample_chunk(
          std::span<const unsigned char>(wire).subspan(
              o + net::kHeaderBytes, kFrameBytes - net::kHeaderBytes),
          out);
    }
    add("wire.chunk_decode_ns_per_sample",
        static_cast<double>(now_ns() - t) / samples, "ns");
  }
  wire = {};

  // --- net/client: push() into an unconnected node (never polled, so it
  // never connects; its send queue holds every replayed frame) ------------
  {
    const bool selective = cfg.workload == Workload::WardSelective;
    std::int64_t push_ns = 0;
    for (std::size_t s = 0; s < streams; ++s) {
      net::NodeConfig ncfg;
      ncfg.port = 1;
      ncfg.policy = selective ? net::TxPolicy::Selective
                              : net::TxPolicy::StreamEverything;
      ncfg.heartbeat_interval_ms = 0;
      ncfg.send_buffer_cap = (count[s] + 1) * kFrameBytes;
      ncfg.max_unacked_full_beats = count[s] * kPacket;
      if (selective) ncfg.drift_centroids = model.centroids;
      net::SensorNodeClient client(model.classifier, ncfg);
      t = now_ns();
      for (std::uint64_t k = 0; k < count[s]; ++k)
        client.push(in.streams[s].packet(k));
      push_ns += now_ns() - t;
      g_sink = g_sink + client.pending_bytes();
    }
    add("client.push_ns_per_sample", static_cast<double>(push_ns) / samples,
        "ns");
  }

  // --- service/session + service/fleet: the live layout, pumped serially --
  std::vector<net::BeatVerdictMsg> verdicts;
  {
    service::FleetConfig fcfg;
    fcfg.threads = 1;
    fcfg.shards = kReplayShards;
    fcfg.max_sessions = streams;
    service::FleetEngine engine(model.classifier, fcfg);
    std::vector<service::SessionId> ids;
    for (std::size_t s = 0; s < streams; ++s) {
      service::SessionConfig scfg;
      scfg.model = model.v2;
      ids.push_back(*engine.open_session(
          [&verdicts](const service::SessionResult& r) {
            verdicts.push_back(net::BeatVerdictMsg{
                static_cast<std::uint64_t>(r.beat.r_peak),
                static_cast<std::uint8_t>(r.beat.predicted),
                static_cast<std::uint8_t>(r.beat.quality)});
          },
          scfg, s % kReplayShards));
    }
    std::int64_t offer_ns = 0, pump_ns = 0;
    std::uint64_t pumps = 0;
    const std::uint64_t rounds = *std::max_element(count.begin(), count.end());
    for (std::uint64_t k = 0; k < rounds; ++k) {
      for (std::size_t shard = 0; shard < kReplayShards; ++shard) {
        t = now_ns();
        for (std::size_t s = shard; s < streams; s += kReplayShards)
          if (k < count[s]) engine.offer(ids[s], in.streams[s].packet(k));
        const std::int64_t mid = now_ns();
        engine.pump_shard(shard);
        pump_ns += now_ns() - mid;
        offer_ns += mid - t;
        ++pumps;
      }
    }
    const service::FleetTelemetry& ft = engine.telemetry();
    const double beats =
        static_cast<double>(std::max<std::uint64_t>(ft.beats_out.load(), 1));
    const double batched = static_cast<double>(
        std::max<std::uint64_t>(ft.batched_beats.load(), 1));
    add("session.offer_ns_per_sample", static_cast<double>(offer_ns) / samples,
        "ns");
    add("fleet.drain_ns_per_sample",
        static_cast<double>(ft.drain_ns.load()) / samples, "ns");
    add("fleet.classify_ns_per_beat",
        static_cast<double>(ft.classify_ns.load()) / batched, "ns");
    add("fleet.deliver_ns_per_beat",
        static_cast<double>(ft.deliver_ns.load()) / beats, "ns");
    add("fleet.batch_beats_per_pump",
        static_cast<double>(ft.batched_beats.load()) /
            static_cast<double>(std::max<std::uint64_t>(pumps, 1)),
        "count");
    add("fleet.pump_ns_per_call",
        static_cast<double>(pump_ns) /
            static_cast<double>(std::max<std::uint64_t>(pumps, 1)),
        "ns");
    add("fleet.pump_ns_per_sample", static_cast<double>(pump_ns) / samples,
        "ns");
  }

  {
    std::vector<unsigned char> out;
    std::uint64_t seq = 0;
    t = now_ns();
    for (const net::BeatVerdictMsg& v : verdicts) {
      net::append_frame(out, net::FrameType::BeatVerdict, seq++,
                        net::encode_beat_verdict(v));
      if (out.size() > (1u << 16)) out.clear();
    }
    add("wire.verdict_encode_ns_per_beat",
        static_cast<double>(now_ns() - t) /
            static_cast<double>(std::max<std::size_t>(verdicts.size(), 1)),
        "ns");
  }

  // --- core/streaming + kernels: monitor, conditioner, detector ----------
  const core::MonitorConfig mc;
  const std::size_t window = model.classifier.projector().expected_window();
  std::vector<dsp::Sample> windows;  // every finalized window, concatenated
  std::vector<dsp::Signal> conditioned(streams);
  {
    std::int64_t monitor_ns = 0, condition_ns = 0;
    const core::PendingBeatSink sink = [&](const core::PendingBeat& pb) {
      if (pb.needs_classification)
        windows.insert(windows.end(), pb.window.begin(), pb.window.end());
    };
    for (std::size_t s = 0; s < streams; ++s) {
      core::StreamingBeatMonitor monitor(model.classifier, mc);
      t = now_ns();
      for (std::uint64_t k = 0; k < count[s]; ++k)
        monitor.push_block(in.streams[s].packet(k), sink);
      monitor_ns += now_ns() - t;

      kernels::BlockConditioner cond(mc.filter);
      conditioned[s].reserve(count[s] * kPacket);
      t = now_ns();
      for (std::uint64_t k = 0; k < count[s]; ++k)
        cond.push_block(in.streams[s].packet(k), conditioned[s]);
      condition_ns += now_ns() - t;
    }
    add("monitor.push_block_ns_per_sample",
        static_cast<double>(monitor_ns) / samples, "ns");
    add("kernels.condition_ns_per_sample",
        static_cast<double>(condition_ns) / samples, "ns");
  }
  {
    // The monitor's scan geometry: chunk_s windows advancing by
    // chunk_s - overlap_s.
    const auto chunk = static_cast<std::size_t>(mc.chunk_s * mc.peak.fs_hz);
    const std::size_t step =
        chunk - static_cast<std::size_t>(mc.overlap_s * mc.peak.fs_hz);
    kernels::PeakScratch scratch;
    std::vector<std::size_t> peaks;
    dsp::Signal buf;
    std::int64_t detect_ns = 0;
    for (const dsp::Signal& c : conditioned) {
      for (std::size_t o = 0; o + chunk <= c.size(); o += step) {
        buf.assign(c.begin() + static_cast<std::ptrdiff_t>(o),
                   c.begin() + static_cast<std::ptrdiff_t>(o + chunk));
        t = now_ns();
        kernels::detect_r_peaks_kind(buf, mc.peak, scratch, peaks);
        detect_ns += now_ns() - t;
        g_sink = g_sink + peaks.size();
      }
    }
    add("kernels.detect_ns_per_sample",
        static_cast<double>(detect_ns) / samples, "ns");
  }
  conditioned = {};

  // --- embedded/rp: the classifier over every finalized window -----------
  const std::size_t beats = windows.size() / std::max<std::size_t>(window, 1);
  const double nbeats = static_cast<double>(std::max<std::size_t>(beats, 1));
  auto window_at = [&](std::size_t b) {
    return std::span<const dsp::Sample>(windows.data() + b * window, window);
  };
  embedded::ClassifyScratch scratch;
  {
    std::uint64_t acc = 0;
    t = now_ns();
    for (std::size_t b = 0; b < beats; ++b)
      acc += static_cast<std::uint64_t>(
          model.classifier.classify_window(window_at(b), scratch));
    add("embedded.classify_window_ns_per_beat",
        static_cast<double>(now_ns() - t) / nbeats, "ns");
    g_sink = g_sink + acc;
  }
  {
    std::vector<ecg::BeatClass> out(kBatch);
    t = now_ns();
    for (std::size_t b = 0; b < beats; b += kBatch) {
      const std::size_t n = std::min(kBatch, beats - b);
      model.classifier.classify_batch(
          std::span<const dsp::Sample>(windows.data() + b * window, n * window),
          n, std::span<ecg::BeatClass>(out.data(), n), scratch);
    }
    add("embedded.classify_batch_ns_per_beat",
        static_cast<double>(now_ns() - t) / nbeats, "ns");
  }

  // --- drift: observe every beat's projection -----------------------------
  std::vector<ecg::BeatClass> classes(beats);
  std::vector<std::int32_t> projections;
  const std::size_t k = model.classifier.projector().coefficients();
  for (std::size_t b = 0; b < beats; ++b) {
    classes[b] = model.classifier.classify_window(window_at(b), scratch);
    projections.insert(projections.end(), scratch.u.begin(),
                       scratch.u.begin() + static_cast<std::ptrdiff_t>(k));
  }
  {
    drift::DriftTracker tracker(*model.centroids);
    t = now_ns();
    for (std::size_t b = 0; b < beats; ++b)
      tracker.observe(
          std::span<const std::int32_t>(projections.data() + b * k, k),
          !ecg::is_pathological(classes[b]));
    add("drift.observe_ns_per_beat", static_cast<double>(now_ns() - t) / nbeats,
        "ns");
    g_sink = g_sink + tracker.novel_beats();
  }

  // --- net/gateway FULL_BEAT path over the windows a selective node would
  // upload: decode, re-classify, frame the verdict -------------------------
  {
    std::vector<std::vector<unsigned char>> uploads;
    for (std::size_t b = 0; b < beats; ++b)
      if (ecg::is_pathological(classes[b]))
        uploads.push_back(net::encode_full_beat(
            net::FullBeatMsg{b, static_cast<std::uint8_t>(classes[b]), 0, 0},
            window_at(b)));
    net::FullBeatMsg m;
    std::vector<dsp::Sample> w;
    std::vector<unsigned char> out;
    std::uint64_t seq = 0;
    t = now_ns();
    for (const auto& payload : uploads) {
      net::decode_full_beat(payload, m, w);
      net::BeatVerdictMsg v{m.r_peak, 0, m.quality};
      v.beat_class = static_cast<std::uint8_t>(
          model.classifier.classify_window(w, scratch));
      net::append_frame(out, net::FrameType::BeatVerdict, seq++,
                        net::encode_beat_verdict(v));
      if (out.size() > (1u << 16)) out.clear();
    }
    add("gateway.full_beat_ns_per_upload",
        static_cast<double>(now_ns() - t) /
            static_cast<double>(std::max<std::size_t>(uploads.size(), 1)),
        "ns");
  }

  // --- lifecycle: the bundle this run deploys -----------------------------
  {
    const lifecycle::ModelBundle bundle = model.bundle(2);
    std::vector<unsigned char> image;
    add("lifecycle.encode_us",
        median_us([&] { image = lifecycle::encode_bundle(bundle); }), "us");
    add("lifecycle.digest_us",
        median_us([&] { g_sink = g_sink + lifecycle::bundle_digest(image); }),
        "us");
    std::optional<lifecycle::ModelBundle> decoded;
    add("lifecycle.decode_us",
        median_us([&] { decoded.emplace(lifecycle::decode_bundle(image)); }),
        "us");
    add("lifecycle.instantiate_us", median_us([&] {
          g_sink = g_sink + lifecycle::instantiate_bundle(*decoded)->version;
        }),
        "us");
  }
  return keys;
}

bool write_trace(const std::string& path, const RunConfig& cfg,
                 const LiveRun& live, const std::vector<LayerKey>& layers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write trace %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               to_string(cfg.workload),
               static_cast<unsigned long long>(cfg.seed));
  std::fprintf(f, "  \"t0_ns\": %lld,\n  \"layers\": {",
               static_cast<long long>(live.t0_ns));
  for (std::size_t i = 0; i < layers.size(); ++i)
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", layers[i].name.c_str(), layers[i].value,
                 layers[i].unit);
  std::fputs("\n  },\n  \"spans\": [", f);
  for (std::size_t i = 0; i < live.spans.size(); ++i) {
    const Span& s = live.spans[i];
    const std::uint64_t id = s.id != 0 ? s.id : (1ULL << 63) | i;
    std::fprintf(f,
                 "%s\n    {\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start\": %lld, \"end\": %lld}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns - live.t0_ns),
                 static_cast<long long>(s.end_ns - live.t0_ns));
  }
  std::fputs("\n  ]\n}\n", f);
  const bool ok = std::fclose(f) == 0;
  if (ok)
    std::printf("# wrote %s (%zu spans)\n", path.c_str(), live.spans.size());
  return ok;
}

}  // namespace hbrp::e2e
