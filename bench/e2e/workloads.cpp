// Set-up and timed phase of the four bench_e2e workloads, plus the direct
// ingest reference every verdict is checked against.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <initializer_list>
#include <iterator>
#include <latch>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "bench/e2e/e2e.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "math/rng.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "net/push.hpp"
#include "service/fleet.hpp"

namespace hbrp::e2e {

const char* to_string(Workload w) {
  switch (w) {
    case Workload::WardStream: return "ward_stream";
    case Workload::WardSelective: return "ward_selective";
    case Workload::WardPaced: return "ward_paced";
    case Workload::FleetWide: return "fleet_wide";
  }
  return "?";
}

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

lifecycle::ModelBundle Model::bundle(std::uint64_t version) const {
  return lifecycle::ModelBundle{
      .version = version, .model = trained, .centroids = *centroids};
}

namespace {

// --- workload layout (fixed; independent of the host's nproc) -------------

constexpr std::size_t kWardNodes = 4;
constexpr std::size_t kPacedNodes = 3;
constexpr std::size_t kReactors = 2;
constexpr std::size_t kClosedDrivers = 2;  // each owns kWardNodes / 2 clients
/// Closed loop: a stream node keeps at most this many packets in flight
/// (pushed but not yet consumed by its gateway session); a selective node
/// pushes only while its send queue holds fewer than this many packets.
constexpr std::size_t kWindowPackets = 8;
/// Selective closed loop: FULL_BEAT uploads awaiting their verdict.
constexpr std::size_t kMaxUnacked = 32;
constexpr double kPacedSpeedup = 250.0;  // x real time, per node
constexpr std::size_t kPushes = 10;      // ward_paced model pushes per run
constexpr std::size_t kFleetSessions = 256;
constexpr std::size_t kFleetShards = 2;
constexpr std::size_t kFleetLeads = 16;
constexpr double kFleetLeadSeconds = 600.0;
/// Each ward node replays 64 patients of its profile back to back, 37.5 s
/// each (40 minutes of signal per node). The classifier misfires on a whole
/// patient now and then (a normal patient uploading most of its beats), so
/// with few patients per node the upload volume of ward_selective, and the
/// gateway CPU it costs, would be a lottery over the seed: across 12 seeds
/// its spread was 13% with 4 patients per node, 7.5% with 16, 6.9% with 32
/// and 4.4% with 64.
constexpr std::size_t kWardPatientsPerNode = 64;
constexpr double kWardPatientSeconds = 37.5;
constexpr std::int64_t kIdleSleepNs = 50'000;
/// Log reservations, per stream: several times the highest packet rate seen
/// on a 4-core host (a node near 16k/s, a fleet session near 250/s).
constexpr double kWardPacketsPerS = 64'000;
constexpr double kFleetPacketsPerS = 2'000;
constexpr std::int64_t kSettleTimeoutNs = 30'000'000'000;
constexpr std::size_t kFrameBytes =
    net::kHeaderBytes + kPacket * sizeof(std::int32_t);

/// Sleeps of a few tens of microseconds must be accurate for the open-loop
/// schedule and the closed-loop idle wait; the default 50 us timer slack
/// would double them.
void tighten_timer_slack() {
#ifdef __linux__
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

/// Runs a thread body; an exception escaping a std::thread would end the
/// process, so it is reported and counted as a failure instead.
template <typename F>
void guarded(std::atomic<std::uint64_t>& failures, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    failures.fetch_add(1);
  }
}

/// Confines `thread` (and threads it starts later) to `cpus`, so every run
/// places the gateway's reactors and the load generator on the same cores;
/// a no-op on hosts with fewer than kMaxThreads cores.
void pin_to(pthread_t thread, std::initializer_list<int> cpus) {
#ifdef __linux__
  if (std::thread::hardware_concurrency() < kMaxThreads) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(thread, sizeof set, &set);
#endif
}
void pin_to(std::initializer_list<int> cpus) { pin_to(pthread_self(), cpus); }

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

Model train_model() {
  // The classifier training configuration is fixed (not seeded by the run):
  // every seed measures the same model.
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 180.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 311;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 100;
  dcfg.seed = 312;
  const auto ts2 = ecg::build_dataset({2500, 220, 280}, dcfg);
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 8;
  tcfg.ga.generations = 6;
  tcfg.seed = 313;
  tcfg.threads = kMaxThreads;
  core::TrainedClassifier trained =
      core::TwoStepTrainer(ts1, ts2, tcfg).run();
  embedded::EmbeddedClassifier classifier = trained.quantize();
  auto centroids = std::make_shared<const drift::TrainingCentroids>(
      core::compute_training_centroids(classifier, ts1));
  Model m{std::move(trained), std::move(classifier), std::move(centroids),
          nullptr};
  m.v2 = lifecycle::instantiate_bundle(m.bundle(2));
  return m;
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in{train_model(), {}, {}};
  const bool fleet = w == Workload::FleetWide;
  const std::size_t leads = fleet                      ? kFleetLeads
                            : w == Workload::WardPaced ? kPacedNodes
                                                       : kWardNodes;
  const std::size_t patients = fleet ? 1 : kWardPatientsPerNode;
  const ecg::RecordProfile profiles[] = {
      ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
      ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};
  const double rates_bpm[] = {72, 64, 80, 68, 76, 60, 84, 70};
  const core::MonitorConfig mc;
  const double seconds = fleet ? kFleetLeadSeconds : kWardPatientSeconds;
  math::Rng rng(seed);
  in.leads.resize(leads);
  for (std::size_t i = 0; i < leads; ++i) {
    // Sized once: growth by doubling would leave freed blocks behind whose
    // reuse, and so peak_rss_mb, would vary from run to run.
    in.leads[i].reserve(patients *
                        static_cast<std::size_t>(seconds * dsp::kMitBihFs));
    for (std::size_t p = 0; p < patients; ++p) {
      ecg::SynthConfig scfg;
      scfg.profile = profiles[i % std::size(profiles)];
      scfg.heart_rate_bpm = rates_bpm[i % std::size(rates_bpm)];
      scfg.duration_s = seconds;
      scfg.num_leads = 1;
      scfg.seed = rng.next();
      const ecg::Record rec = ecg::generate_record(scfg);
      dsp::Sample last = 0;
      const std::size_t n = rec.leads[0].size() / kPacket * kPacket;
      for (std::size_t j = 0; j < n; ++j)
        in.leads[i].push_back(net::SensorNodeClient::sanitize(
            static_cast<double>(rec.leads[0][j]), mc.quality, last, nullptr));
    }
  }
  const std::size_t streams = fleet ? kFleetSessions : leads;
  for (std::size_t s = 0; s < streams; ++s) {
    Stream st;
    st.lead = &in.leads[s % leads];
    st.offset = static_cast<std::size_t>(rng.uniform_index(st.lap_packets()));
    in.streams.push_back(st);
  }
  return in;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Process high-water resident set so far.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;  // KiB -> MiB
}

/// Resident set now (Linux /proc/self/statm); 0 when unknown.
double rss_now_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE))
                : 0.0;
}

/// Peak memory of the system under test: the larger of the set-up
/// high-water mark and the resident set at the end of the timed phase less
/// the benchmark's own logs, which grow with throughput. The logs are
/// reserved up front (reserve_logs), so they never leave a reallocated copy
/// behind and are exactly the bytes they hold. Free heap pages are handed
/// back first: how many the allocator keeps after the timed phase follows
/// the peak of frames in flight, which the host's scheduling sets (five
/// ward_stream runs read 21.9-22.7 MB without the trim, 20.8-21.1 with it).
double system_rss_mb(double setup_peak_mb, const std::vector<StreamLog>& logs) {
  double harness = 0.0;
  for (const StreamLog& l : logs)
    harness += static_cast<double>(
        l.sent_ns.size() * sizeof(std::int64_t) +
        l.verdicts.size() * sizeof(VerdictRec) +
        l.upload_packet.size() * sizeof(std::uint64_t));
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return std::max(setup_peak_mb, (rss_now_bytes() - harness) / kMiB);
}

/// Reserves (address space only: pages are touched as the logs fill) for
/// `packets_per_s` packets per stream over the run, at up to 4 verdicts
/// per packet.
void reserve_logs(std::vector<StreamLog>& logs, double seconds,
                  double packets_per_s) {
  const auto packets = static_cast<std::size_t>(seconds * packets_per_s) + 16;
  for (StreamLog& l : logs) {
    l.sent_ns.reserve(packets);
    l.verdicts.reserve(4 * packets);
    l.upload_packet.reserve(4 * packets);
  }
}

/// Process CPU from now until `end`, read by the otherwise idle main thread.
/// The busy threads time their own share with thread_cpu_ns(): a thread
/// that has already exited can no longer be read from another thread.
std::int64_t process_cpu_until(std::int64_t end) {
  const std::int64_t a = process_cpu_ns();
  sleep_until_ns(end);
  return process_cpu_ns() - a;
}

// --- ward workloads: real sockets ------------------------------------------

/// What one driver thread records.
struct DriverState {
  std::uint64_t polls = 0;
  std::int64_t cpu_ns = 0;  ///< thread CPU of the timed loop
  std::vector<Span> spans;
  std::vector<double> late_us;
};

class WardSetup final : public Setup {
 public:
  WardSetup(const RunConfig& cfg, Inputs in)
      : workload_(cfg.workload), in_(std::move(in)) {
    const std::size_t nodes = in_.streams.size();
    logs_.resize(nodes);
    reserve_logs(logs_, cfg.seconds, kWardPacketsPerS);
    net::GatewayConfig gcfg;
    gcfg.reactors = kReactors;
    gcfg.fleet.max_sessions = nodes;
    gateway_ = std::make_unique<net::GatewayServer>(in_.model.classifier, gcfg);
    serve_ = std::thread([this] {
      try {
        pin_to({1});  // serve() starts reactor 1 from here; see connect_nodes
        gateway_->serve();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: gateway serve failed: %s\n",
                     e.what());
        serve_failed_.store(true);
      }
    });
    try {
      connect_nodes();
    } catch (...) {
      clients_.clear();
      gateway_->stop();
      serve_.join();
      throw;
    }
  }

  ~WardSetup() override {
    clients_.clear();
    gateway_->stop();
    serve_.join();
  }

  const Inputs& inputs() const override { return in_; }

  LiveRun run(const RunConfig& cfg) override;

 private:
  void connect_nodes() {
    const std::size_t nodes = in_.streams.size();
    // Bundle v2 goes out before any node connects, so every gateway session
    // starts on it and runs drift tracking through the bundle route.
    const net::PushResult pushed =
        net::push_bundle(gateway_->port(), in_.model.bundle(2));
    if (!pushed.delivered || pushed.status != net::ModelPushStatus::Ok)
      throw std::runtime_error("set-up push of bundle v2 was not accepted");
    for (std::size_t i = 0; i < nodes; ++i) {
      net::NodeConfig ncfg;
      ncfg.port = gateway_->port();
      ncfg.node_id = static_cast<std::uint32_t>(i);
      ncfg.policy = workload_ == Workload::WardSelective
                        ? net::TxPolicy::Selective
                        : net::TxPolicy::StreamEverything;
      ncfg.heartbeat_interval_ms = 0;  // only workload bytes on the wire
      if (workload_ == Workload::WardSelective)
        ncfg.drift_centroids = in_.model.centroids;
      auto client = std::make_unique<net::SensorNodeClient>(
          in_.model.classifier, ncfg);
      StreamLog* log = &logs_[i];
      client->set_verdict_sink(
          [log](std::uint64_t seq, const net::BeatVerdictMsg& v) {
            log->verdicts.push_back(
                VerdictRec{seq, v.r_peak, v.beat_class, v.quality, now_ns()});
          });
      // Handshake one node at a time: the gateway numbers sessions in HELLO
      // order from 1, which is how the driver finds its session's counters.
      const std::int64_t deadline = now_ns() + 5'000'000'000;
      while (!client->established() && now_ns() < deadline)
        client->poll_once(1);
      if (!client->established())
        throw std::runtime_error("node handshake timed out");
      const service::SessionTelemetry* tel =
          gateway_->engine().session_telemetry(i + 1);
      if (tel == nullptr) throw std::runtime_error("node session not found");
      telemetry_.push_back(tel);
      clients_.push_back(std::move(client));
    }
    // Both reactors have served handshakes, so reactor 1 runs (on CPU 1,
    // inherited); reactor 0 is the serve thread itself and moves to CPU 0.
    pin_to(serve_.native_handle(), {0});
  }

  /// Closed loop over `mine`: each node pushes its next packet while its
  /// window has room, polls its link, and the thread naps when no node
  /// could push (so driver CPU is node work, not spinning).
  void drive_closed(const std::vector<std::size_t>& mine,
                    std::int64_t deadline, bool traced, DriverState& d) {
    const bool selective = workload_ == Workload::WardSelective;
    while (now_ns() < deadline) {
      bool pushed = false;
      for (const std::size_t i : mine) {
        net::SensorNodeClient& c = *clients_[i];
        StreamLog& log = logs_[i];
        const std::uint64_t k = log.sent_ns.size();
        const bool room =
            selective
                ? c.unacked_full_beats() < kMaxUnacked &&
                      c.pending_bytes() < kWindowPackets * kFrameBytes
                : k * kPacket - telemetry_[i]->samples_processed.load(
                                    std::memory_order_relaxed) <
                      kWindowPackets * kPacket;
        if (room) {
          push_packet(i, k, traced, d.spans);
          pushed = true;
        }
        poll(i, traced, d);
      }
      if (!pushed)
        std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleSleepNs));
    }
  }

  /// Open loop: every node sends packet k at t0 + phase + k * period, late
  /// or not; the thread sleeps until the next due packet (polling the links
  /// at least every kIdleSleepNs so verdict arrival is timestamped closely).
  void drive_paced(const std::vector<std::size_t>& mine, std::int64_t t0,
                   std::int64_t deadline, bool traced, DriverState& d) {
    const double period =
        static_cast<double>(kPacket) * 1e9 / (dsp::kMitBihFs * kPacedSpeedup);
    auto due = [&](std::size_t slot, std::uint64_t k) {
      return t0 + static_cast<std::int64_t>(
                      (static_cast<double>(k) +
                       static_cast<double>(slot) / mine.size()) *
                      period);
    };
    while (true) {
      const std::int64_t now = now_ns();
      if (now >= deadline) break;
      std::int64_t next = deadline;
      for (std::size_t slot = 0; slot < mine.size(); ++slot) {
        const std::size_t i = mine[slot];
        StreamLog& log = logs_[i];
        for (std::uint64_t k = log.sent_ns.size(); due(slot, k) <= now_ns();
             k = log.sent_ns.size()) {
          const std::int64_t at = due(slot, k);
          d.late_us.push_back(static_cast<double>(now_ns() - at) / 1e3);
          push_packet(i, k, traced, d.spans);
          log.sent_ns.back() = at;  // latency counts from the schedule
        }
        next = std::min(next, due(slot, log.sent_ns.size()));
      }
      for (const std::size_t i : mine) poll(i, traced, d);
      sleep_until_ns(std::min(next, now_ns() + kIdleSleepNs));
    }
  }

  /// One link step; traced runs keep a span for every 64th.
  void poll(std::size_t i, bool traced, DriverState& d) {
    const bool span = traced && d.polls % 64 == 0;
    const std::int64_t start = span ? now_ns() : 0;
    clients_[i]->poll_once(0);
    if (span)
      d.spans.push_back(Span{0, 0, "client.poll_once", start, now_ns()});
    ++d.polls;
  }

  void push_packet(std::size_t i, std::uint64_t k, bool traced,
                   std::vector<Span>& spans) {
    net::SensorNodeClient& c = *clients_[i];
    StreamLog& log = logs_[i];
    const std::span<const dsp::Sample> packet = in_.streams[i].packet(k);
    if (packet.size() != kPacket) throw std::logic_error("short packet");
    const std::uint64_t uploads_before = c.stats().beats_uploaded;
    const std::int64_t start = now_ns();
    log.sent_ns.push_back(start);
    log.last_push_ns = start;
    c.push(packet);
    if (traced && packet_traced(i, k))
      spans.push_back(Span{packet_span_id(i, k), 0, "client.push", start,
                           now_ns()});
    for (std::uint64_t u = uploads_before; u < c.stats().beats_uploaded; ++u)
      log.upload_packet.push_back(k);
  }

  /// After the last push: polls until every packet is consumed and its
  /// verdicts are in (stream), or every upload is answered (selective).
  bool settle(const std::vector<std::size_t>& mine) {
    const std::int64_t give_up = now_ns() + kSettleTimeoutNs;
    int calm = 0;
    while (now_ns() < give_up) {
      bool done = true;
      for (const std::size_t i : mine) {
        net::SensorNodeClient& c = *clients_[i];
        c.poll_once(0);
        if (workload_ == Workload::WardSelective) {
          done = done && c.unacked_full_beats() == 0 && c.pending_bytes() == 0;
        } else {
          const service::SessionTelemetry& t = *telemetry_[i];
          done = done &&
                 t.samples_processed.load() ==
                     logs_[i].sent_ns.size() * kPacket &&
                 logs_[i].verdicts.size() >= t.beats_out.load();
        }
      }
      // Hold the condition across a few polls: a pump round updates the
      // processed count before it delivers that round's verdicts.
      calm = done ? calm + 1 : 0;
      if (calm >= 20) return true;
      std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleSleepNs));
    }
    return false;
  }

  Workload workload_;
  Inputs in_;
  std::vector<StreamLog> logs_;
  std::unique_ptr<net::GatewayServer> gateway_;
  std::atomic<bool> serve_failed_{false};
  std::thread serve_;
  std::vector<std::unique_ptr<net::SensorNodeClient>> clients_;
  std::vector<const service::SessionTelemetry*> telemetry_;
};

LiveRun WardSetup::run(const RunConfig& cfg) {
  LiveRun live;
  const std::size_t nodes = clients_.size();
  const bool paced = workload_ == Workload::WardPaced;
  const std::size_t drivers = paced ? 1 : kClosedDrivers;
  std::vector<DriverState> state(drivers);
  std::vector<Span> push_spans;
  std::atomic<std::uint64_t> thread_failures{0};
  std::vector<lifecycle::ModelBundle> bundles;
  if (paced)
    for (std::size_t j = 0; j < kPushes; ++j)
      bundles.push_back(in_.model.bundle(3 + j));

  std::latch start(1);
  std::int64_t t0 = 0;
  const auto deadline = [&] {
    return t0 + static_cast<std::int64_t>(cfg.seconds * 1e9);
  };
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      tighten_timer_slack();
      pin_to({2, 3});
      start.wait();
      guarded(thread_failures, [&] {
        std::vector<std::size_t> mine;
        for (std::size_t i = d; i < nodes; i += drivers) mine.push_back(i);
        const std::int64_t c0 = thread_cpu_ns();
        if (paced)
          drive_paced(mine, t0, deadline(), cfg.traced, state[d]);
        else
          drive_closed(mine, deadline(), cfg.traced, state[d]);
        state[d].cpu_ns = thread_cpu_ns() - c0;
        if (!settle(mine))
          throw std::runtime_error("links did not settle after the run");
      });
    });
  }
  if (paced) {
    threads.emplace_back([&] {
      pin_to({2, 3});
      start.wait();
      const std::int64_t c0 = thread_cpu_ns();
      guarded(thread_failures, [&] {
        const double interval = cfg.seconds * 1e9 / kPushes;
        for (std::size_t j = 0; j < kPushes; ++j) {
          sleep_until_ns(t0 +
                         static_cast<std::int64_t>((j + 0.5) * interval));
          const std::int64_t a = now_ns();
          const net::PushResult r =
              net::push_bundle(gateway_->port(), bundles[j]);
          const std::int64_t b = now_ns();
          live.push_ms.push_back(static_cast<double>(b - a) / 1e6);
          if (!r.delivered || r.status != net::ModelPushStatus::Ok)
            thread_failures.fetch_add(1);
          if (cfg.traced)
            push_spans.push_back(Span{0, 0, "net.push_bundle", a, b});
        }
      });
      live.cpu.pusher_ns = thread_cpu_ns() - c0;
    });
  }
  const double setup_peak_mb = peak_rss_mb();
  t0 = now_ns();
  start.count_down();
  live.cpu.process_ns = process_cpu_until(deadline());
  for (std::thread& t : threads) t.join();
  live.rss_mb = system_rss_mb(setup_peak_mb, logs_);
  live.t0_ns = t0;
  for (DriverState& d : state) {
    live.polls += d.polls;
    live.cpu.node_ns += d.cpu_ns;
    live.late_us.insert(live.late_us.end(), d.late_us.begin(), d.late_us.end());
    live.spans.insert(live.spans.end(), d.spans.begin(), d.spans.end());
  }
  live.spans.insert(live.spans.end(), push_spans.begin(), push_spans.end());
  live.pushes = paced ? kPushes : 0;
  live.failures += thread_failures.load();

  // Counters that die with the sessions are read before the BYEs.
  for (const service::SessionTelemetry* tel : telemetry_)
    live.queue_high_water =
        std::max(live.queue_high_water, tel->queue_high_water.value());
  const net::GatewayStats& gs = gateway_->stats();
  const double wakeups = static_cast<double>(gs.wakeups.load());
  live.idle_wakeup_ratio =
      wakeups > 0 ? static_cast<double>(gs.idle_wakeups.load()) / wakeups
                  : 0.0;

  // Close every link (finish + drain + BYE + verdict tail), then account.
  for (std::size_t i = 0; i < nodes; ++i) {
    net::SensorNodeClient& c = *clients_[i];
    live.packets += logs_[i].sent_ns.size();
    c.close(/*deadline_ms=*/30000);
    const net::TxStats& s = c.stats();
    logs_[i].uploads = s.beats_uploaded;
    logs_[i].bytes_tx = s.bytes_tx;
    logs_[i].beats_decided = workload_ == Workload::WardSelective
                                 ? s.beats_local + s.beats_uploaded
                                 : s.verdicts_rx;
    live.failures += s.frames_dropped + s.verdict_seq_gaps +
                     s.parse_rejects + s.hello_rejects + s.reconnects +
                     s.verdict_dups;
  }
  live.samples = live.packets * kPacket;
  const std::int64_t wait_until = now_ns() + 5'000'000'000;
  while (gateway_->connection_count() > 0 && now_ns() < wait_until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  live.failures += gateway_->connection_count() + gs.seq_rejects.load() +
                   gs.frame_rejects.load() +
                   gs.conns_dropped_protocol.load() +
                   gs.conns_dropped_overflow.load() +
                   gs.conns_dropped_idle.load() +
                   gs.model_push_nacks.load() +
                   (serve_failed_.load() ? 1 : 0);
  live.connections = nodes + live.pushes;
  live.swaps_applied = gateway_->engine().telemetry().swaps_applied.load();
  live.logs = std::move(logs_);
  return live;
}

// --- fleet_wide: in-process, no sockets -------------------------------------

class FleetSetup final : public Setup {
 public:
  FleetSetup(const RunConfig& cfg, Inputs in) : in_(std::move(in)) {
    const std::size_t sessions = in_.streams.size();
    logs_.resize(sessions);
    reserve_logs(logs_, cfg.seconds, kFleetPacketsPerS);
    service::FleetConfig fcfg;
    fcfg.threads = 1;
    fcfg.shards = kFleetShards;
    fcfg.max_sessions = sessions;
    engine_ =
        std::make_unique<service::FleetEngine>(in_.model.classifier, fcfg);
    for (std::size_t j = 0; j < sessions; ++j) {
      service::SessionConfig scfg;
      scfg.model = in_.model.v2;
      StreamLog* log = &logs_[j];
      const auto id = engine_->open_session(
          [log](const service::SessionResult& r) {
            log->verdicts.push_back(VerdictRec{
                r.sequence, static_cast<std::uint64_t>(r.beat.r_peak),
                static_cast<std::uint8_t>(r.beat.predicted),
                static_cast<std::uint8_t>(r.beat.quality), now_ns()});
          },
          scfg, j % kFleetShards);
      if (!id.has_value()) throw std::runtime_error("fleet session refused");
      ids_.push_back(*id);
    }
  }

  const Inputs& inputs() const override { return in_; }

  LiveRun run(const RunConfig& cfg) override {
    LiveRun live;
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::int64_t> offer_cpu{0};
    std::vector<std::vector<Span>> spans(kFleetShards);
    std::latch start(1);
    std::int64_t t0 = 0;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kFleetShards; ++t) {
      threads.emplace_back([&, t] {
        pin_to({static_cast<int>(t)});
        start.wait();
        guarded(failures, [&] {
          const std::int64_t deadline =
              t0 + static_cast<std::int64_t>(cfg.seconds * 1e9);
          while (now_ns() < deadline) {
            const std::int64_t c0 = thread_cpu_ns();
            offer_round(t, cfg.traced, failures, spans[t]);
            offer_cpu.fetch_add(thread_cpu_ns() - c0,
                                std::memory_order_relaxed);
            const std::int64_t p0 = now_ns();
            engine_->pump_shard(t);
            if (cfg.traced)
              spans[t].push_back(
                  Span{0, 0, "fleet.pump_shard", p0, now_ns()});
          }
        });
      });
    }
    const double setup_peak_mb = peak_rss_mb();
    t0 = now_ns();
    start.count_down();
    live.cpu.process_ns = process_cpu_until(
        t0 + static_cast<std::int64_t>(cfg.seconds * 1e9));
    for (std::thread& th : threads) th.join();
    live.cpu.node_ns = offer_cpu.load();
    live.rss_mb = system_rss_mb(setup_peak_mb, logs_);
    live.t0_ns = t0;
    live.failures += failures.load();
    for (std::size_t t = 0; t < kFleetShards; ++t)
      live.spans.insert(live.spans.end(), spans[t].begin(), spans[t].end());
    for (const service::SessionId id : ids_)
      live.queue_high_water = std::max(
          live.queue_high_water,
          engine_->session_telemetry(id)->queue_high_water.value());
    for (const service::SessionId id : ids_) engine_->close_session(id);
    for (StreamLog& log : logs_) {
      live.packets += log.sent_ns.size();
      log.bytes_tx = log.sent_ns.size() * kPacket * sizeof(dsp::Sample);
      log.beats_decided = log.verdicts.size();
    }
    live.samples = live.packets * kPacket;
    live.connections = ids_.size();
    live.swaps_applied = engine_->telemetry().swaps_applied.load();
    live.logs = std::move(logs_);
    return live;
  }

 private:
  /// Offers the next packet to every session of shard `t`.
  void offer_round(std::size_t t, bool traced,
                   std::atomic<std::uint64_t>& failures,
                   std::vector<Span>& spans) {
    for (std::size_t j = t; j < ids_.size(); j += kFleetShards) {
      StreamLog& log = logs_[j];
      const std::uint64_t k = log.sent_ns.size();
      const std::int64_t at = now_ns();
      log.sent_ns.push_back(at);
      log.last_push_ns = at;
      if (engine_->offer(ids_[j], in_.streams[j].packet(k)).accepted !=
          kPacket)
        failures.fetch_add(1);
      if (traced && packet_traced(j, k))
        spans.push_back(
            Span{packet_span_id(j, k), 0, "session.offer", at, now_ns()});
    }
  }

  Inputs in_;
  std::vector<StreamLog> logs_;
  std::unique_ptr<service::FleetEngine> engine_;
  std::vector<service::SessionId> ids_;
};

}  // namespace

std::unique_ptr<Setup> make_setup(const RunConfig& cfg) {
  Inputs in = make_inputs(cfg.workload, cfg.seed);
  if (cfg.workload == Workload::FleetWide)
    return std::make_unique<FleetSetup>(cfg, std::move(in));
  return std::make_unique<WardSetup>(cfg, std::move(in));
}

Reference reference_ingest(const Model& model, const Stream& stream,
                           std::uint64_t packets) {
  service::FleetConfig fcfg;
  fcfg.threads = 1;
  fcfg.shards = 1;
  fcfg.max_sessions = 1;
  service::FleetEngine engine(model.classifier, fcfg);
  Reference ref;
  ref.avail.reserve(packets);
  service::SessionConfig scfg;
  scfg.model = model.v2;
  const auto id = engine.open_session(
      [&ref](const service::SessionResult& r) {
        ref.verdicts.push_back(Reference::Verdict{
            r.sequence, static_cast<std::uint64_t>(r.beat.r_peak),
            static_cast<std::uint8_t>(r.beat.predicted),
            static_cast<std::uint8_t>(r.beat.quality)});
      },
      scfg);
  if (!id.has_value()) throw std::runtime_error("reference session refused");
  for (std::uint64_t k = 0; k < packets; ++k) {
    if (engine.offer(*id, stream.packet(k)).accepted != kPacket)
      throw std::runtime_error("reference offer refused");
    engine.drain();
    ref.avail.push_back(static_cast<std::uint32_t>(ref.verdicts.size()));
  }
  engine.close_session(*id);
  return ref;
}

}  // namespace hbrp::e2e
