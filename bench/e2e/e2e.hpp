// Shared types of the ward-level end-to-end benchmark (bench_e2e).
//
// The benchmark drives the real system from one process through public APIs
// only: net::SensorNodeClient, net::GatewayServer, net::push_bundle,
// service::FleetEngine and lifecycle::*. See README.md in this directory for
// the workloads, the metric definitions and the per-layer ledger.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "drift/tracker.hpp"
#include "lifecycle/bundle.hpp"
#include "service/session.hpp"

namespace hbrp::e2e {

/// Samples per radio packet; equals net::NodeConfig::chunk_samples. Every
/// pushed packet is exactly this long (leads are trimmed to a multiple of
/// it), so chunk boundaries never shift when a lead loops back.
inline constexpr std::size_t kPacket = 512;
/// Upper bound on the busy threads (and, separately, on the connections)
/// any phase of a run uses. Fixed, not derived from the host, so every host
/// runs the same layout.
inline constexpr std::size_t kMaxThreads = 4;

enum class Workload { WardStream, WardSelective, WardPaced, FleetWide };

const char* to_string(Workload w);

/// Steady-clock nanoseconds: the benchmark's single time base.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// CPU time of the calling thread / of the whole process, in nanoseconds.
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

/// Median (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The trained model every node, session and bundle of a run shares. The
/// training configuration is fixed; only the workload inputs follow the
/// seed.
struct Model {
  core::TrainedClassifier trained;
  embedded::EmbeddedClassifier classifier;
  std::shared_ptr<const drift::TrainingCentroids> centroids;
  /// Bundle version 2 (the same model, with drift centroids), instantiated:
  /// what gateway sessions run after set-up pushes it, and what the
  /// reference ingest runs.
  std::shared_ptr<const service::SessionModel> v2;

  lifecycle::ModelBundle bundle(std::uint64_t version) const;
};

/// One node's or session's input: sanitized leads trimmed to multiples of
/// kPacket and concatenated, replayed as an endless stream of packets
/// starting at `offset`.
struct Stream {
  const dsp::Signal* lead = nullptr;
  std::size_t offset = 0;  ///< in packets

  std::size_t lap_packets() const { return lead->size() / kPacket; }
  std::span<const dsp::Sample> packet(std::uint64_t k) const {
    const std::size_t p = (offset + k) % lap_packets();
    return {lead->data() + p * kPacket, kPacket};
  }
};

/// The seeded inputs of a run: the model, the leads and one Stream per node
/// (or fleet session).
struct Inputs {
  Model model;
  std::vector<dsp::Signal> leads;
  std::vector<Stream> streams;
};

/// One verdict as a node (or a fleet result sink) received it.
struct VerdictRec {
  std::uint64_t seq = 0;
  std::uint64_t r_peak = 0;
  std::uint8_t cls = 0;
  std::uint8_t quality = 0;
  std::int64_t at_ns = 0;  ///< arrival time
};

/// What the timed phase recorded for one node or session.
struct StreamLog {
  /// Per packet: when it was due (open loop) or when its push began
  /// (closed loop).
  std::vector<std::int64_t> sent_ns;
  std::vector<VerdictRec> verdicts;  ///< in arrival order, BYE tail included
  /// Selective only: upload seq -> index of the packet whose push queued it
  /// (uploads queued by the closing flush have no entry).
  std::vector<std::uint64_t> upload_packet;
  /// Selective only: FULL_BEATs the node queued, closing flush included.
  std::uint64_t uploads = 0;
  /// Node -> gateway bytes (fleet_wide: bytes offered) and beats decided,
  /// the BYE tail included.
  std::uint64_t bytes_tx = 0;
  std::uint64_t beats_decided = 0;
  /// When the last push actually began (on the open loop, later than due).
  std::int64_t last_push_ns = 0;
};

/// A traced span: {id, parent, name, start, end}. Packet spans carry
/// packet_span_id(); every other span leaves id 0 and is numbered when the
/// trace is written.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Id of the span of packet `k` of stream `s`; verdict spans point at it.
inline std::uint64_t packet_span_id(std::size_t s, std::uint64_t k) {
  return (static_cast<std::uint64_t>(s + 1) << 40) | k;
}
/// Deterministic 1-in-16 sampling of packets for spans, by (stream, packet),
/// so tracing cost stays off most packets and the sample is reproducible.
inline bool packet_traced(std::size_t s, std::uint64_t k) {
  const std::uint64_t h =
      ((static_cast<std::uint64_t>(s) << 32) ^ k) * 0x9e3779b97f4a7c15ULL;
  return (h >> 60) == 0;
}

/// CPU time of the whole process and of its node side (the ward driver
/// threads; on fleet_wide, the offer loops) and model pusher.
struct CpuTimes {
  std::int64_t process_ns = 0;
  std::int64_t node_ns = 0;
  std::int64_t pusher_ns = 0;
};

/// Everything the timed phase of one workload produced.
struct LiveRun {
  std::vector<StreamLog> logs;
  std::int64_t t0_ns = 0;  ///< first timed sample
  CpuTimes cpu;            ///< spent from t0 to the end of the timed phase
  std::uint64_t samples = 0;  ///< samples offered in the timed phase
  std::uint64_t polls = 0;  ///< client poll_once calls
  /// Transport failures: seq gaps, dropped frames, unclean closes, refused
  /// offers, NACKed or undelivered pushes, short packets.
  std::uint64_t failures = 0;
  std::uint64_t connections = 0;
  std::uint64_t packets = 0;
  std::vector<double> push_ms;  ///< push_bundle durations
  std::uint64_t pushes = 0;
  std::vector<double> late_us;  ///< paced: push start minus due time
  double rss_mb = 0.0;
  // Live counters read back from the system after the timed phase.
  double idle_wakeup_ratio = 0.0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t swaps_applied = 0;
  std::vector<Span> spans;
};

struct RunConfig {
  Workload workload = Workload::WardStream;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

/// Everything set up before the first timed sample of one workload.
class Setup {
 public:
  virtual ~Setup() = default;
  /// Runs the timed phase, then closes every connection and session (the
  /// BYE tails land in the logs).
  virtual LiveRun run(const RunConfig& cfg) = 0;
  virtual const Inputs& inputs() const = 0;
};

/// The full set-up of `cfg.workload`: train, synthesize, start the gateway,
/// push bundle v2, handshake every node (or open every fleet session).
std::unique_ptr<Setup> make_setup(const RunConfig& cfg);

/// Reference verdict stream of one stream: the same packets offered
/// straight into a FleetEngine session, one offer + drain per packet, then
/// closed.
struct Reference {
  struct Verdict {
    std::uint64_t seq = 0;
    std::uint64_t r_peak = 0;
    std::uint8_t cls = 0;
    std::uint8_t quality = 0;
  };
  std::vector<Verdict> verdicts;
  /// Verdicts available once the packet at each index was consumed; the
  /// verdicts past avail.back() are the BYE tail.
  std::vector<std::uint32_t> avail;
};

Reference reference_ingest(const Model& model, const Stream& stream,
                           std::uint64_t packets);

/// One per-layer ledger key.
struct LayerKey {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// Per-layer cost ledger of a traced run: replays the run's recorded inputs
/// serially through each layer's public functions, timing the calls.
std::vector<LayerKey> replay_layers(const Inputs& in, const RunConfig& cfg,
                                    const LiveRun& live);

/// Writes the spans and ledger keys of a traced run as JSON.
bool write_trace(const std::string& path, const RunConfig& cfg,
                 const LiveRun& live, const std::vector<LayerKey>& layers);

}  // namespace hbrp::e2e
