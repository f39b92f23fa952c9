// Fleet soak driver: ramps thousands of loopback SensorNodeClients against
// one multi-reactor net::GatewayServer and holds them all concurrently
// open, with bounded memory and a hard pass/fail verdict at the end.
//
// What it stresses (and the existing tests/benches don't): session *scale*.
// The ward demos run ~10 nodes; this driver defaults to 10,000 — every one
// a real TCP connection with its own fleet session — which exercises the
// gateway's reactor sharding, the epoll readiness path (a poll(2) gateway
// scans every fd per wakeup; epoll must not), admission at max_sessions,
// and the file-descriptor budget (RLIMIT_NOFILE is raised automatically;
// if the hard limit refuses, the node count self-scales down and says so).
//
// Memory stays bounded by construction: all nodes share four synthetic
// leads (no per-node signal buffers), verdict sinks count instead of
// recording, and the classifier's quantized tables are small enough that
// each node's copy is noise. The report includes the process's peak RSS so
// a CI harness can put a ceiling on it.
//
// Pass criteria (exit nonzero on any violation):
//   - every node establishes a session and closes cleanly;
//   - zero verdict sequence gaps and zero dropped frames across the fleet;
//   - peak RSS under rss_cap_mb when a cap is given.
// Reported: per-reactor stats, fleet beat-latency p50/p99 (engine-side,
// enqueue -> sink), verdict totals, peak RSS.
//
// Usage: fleet_soak [nodes] [seconds] [reactors] [rss_cap_mb]
//        defaults: 10000 nodes, 10 s of signal, 2 reactors, no RSS cap
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"

namespace {

using namespace hbrp;
using Clock = std::chrono::steady_clock;

embedded::EmbeddedClassifier train_quick() {
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 120.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 611;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 80;
  dcfg.seed = 612;
  const auto ts2 = ecg::build_dataset({1200, 120, 150}, dcfg);
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 4;
  tcfg.ga.generations = 2;
  tcfg.seed = 61;
  return core::TwoStepTrainer(ts1, ts2, tcfg).run().quantize();
}

/// Raises RLIMIT_NOFILE toward `want`; returns the limit actually in
/// force. The driver needs ~2 fds per node (client socket + gateway side)
/// plus slack for epoll/pipes/listener.
rlim_t raise_fd_limit(rlim_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur >= want) return rl.rlim_cur;
  rlimit raised = rl;
  raised.rlim_cur = want;
  if (raised.rlim_max != RLIM_INFINITY && raised.rlim_max < want)
    raised.rlim_max = want;  // root may raise the hard limit too
  if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) return want;
  // Hard limit held: take everything the soft limit can give.
  raised.rlim_max = rl.rlim_max;
  raised.rlim_cur = rl.rlim_max;
  if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) return raised.rlim_cur;
  return rl.rlim_cur;
}

std::uint64_t peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;  // KB -> MB
}

struct DriverTotals {
  std::uint64_t established = 0;
  std::uint64_t unclean = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t seq_gaps = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_tx = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 10000;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
  const std::size_t reactors =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 2;
  const std::uint64_t rss_cap_mb =
      argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 0;

  const rlim_t fds_wanted = static_cast<rlim_t>(2 * nodes + 512);
  const rlim_t fds = raise_fd_limit(fds_wanted);
  if (fds < fds_wanted) {
    const std::size_t fit = (static_cast<std::size_t>(fds) - 512) / 2;
    std::fprintf(stderr,
                 "fd limit %llu cannot hold %zu nodes; scaling down to %zu\n",
                 static_cast<unsigned long long>(fds), nodes, fit);
    nodes = fit;
  }

  std::printf("Training classifier...\n");
  const auto classifier = train_quick();

  // Four shared leads, reused by every node: input memory is O(1) in the
  // node count.
  const ecg::RecordProfile profiles[] = {
      ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
      ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};
  std::vector<dsp::Signal> leads(std::size(profiles));
  for (std::size_t i = 0; i < leads.size(); ++i) {
    ecg::SynthConfig scfg;
    scfg.profile = profiles[i];
    scfg.duration_s = seconds;
    scfg.num_leads = 1;
    scfg.seed = 6100 + i;
    const auto rec = ecg::generate_record(scfg);
    leads[i] = rec.leads[0];
  }
  const std::size_t lead_len = leads[0].size();

  net::GatewayConfig gcfg;
  gcfg.reactors = reactors;
  gcfg.max_connections = nodes + 64;
  gcfg.fleet.max_sessions = nodes;
  gcfg.listen_backlog = 1024;
  net::GatewayServer gateway(classifier, gcfg);
  std::printf("Gateway on 127.0.0.1:%u — %zu reactors, %zu node target, "
              "fd limit %llu\n",
              gateway.port(), gateway.reactor_count(), nodes,
              static_cast<unsigned long long>(fds));
  std::thread serve_thread([&gateway] { gateway.serve(); });

  // Driver threads multiplex the ward: thread d owns nodes d, d+K, d+2K...
  // and steps them all through ramp -> replay -> close with poll_once(0).
  const std::size_t drivers = std::max<std::size_t>(
      2, std::min<std::size_t>(8, std::thread::hardware_concurrency()));
  std::vector<DriverTotals> totals(drivers);
  const auto t0 = Clock::now();

  std::vector<std::thread> driver_threads;
  driver_threads.reserve(drivers);
  for (std::size_t d = 0; d < drivers; ++d) {
    driver_threads.emplace_back([&, d] {
      DriverTotals& tot = totals[d];
      std::vector<std::unique_ptr<net::SensorNodeClient>> clients;
      std::vector<std::uint64_t> verdicts;
      for (std::size_t i = d; i < nodes; i += drivers)
        verdicts.push_back(0);

      // Ramp: construct and kick each connection; a periodic sweep keeps
      // the already-connected nodes' HELLO handshakes moving so the
      // gateway's accept backlog never piles up behind a silent driver.
      std::size_t slot = 0;
      for (std::size_t i = d; i < nodes; i += drivers, ++slot) {
        net::NodeConfig ncfg;
        ncfg.port = gateway.port();
        ncfg.node_id = static_cast<std::uint32_t>(i);
        ncfg.policy = net::TxPolicy::StreamEverything;
        ncfg.heartbeat_interval_ms = 2000;
        auto client =
            std::make_unique<net::SensorNodeClient>(classifier, ncfg);
        const std::size_t s = slot;
        client->set_verdict_sink(
            [&verdicts, s](std::uint64_t, const net::BeatVerdictMsg&) {
              ++verdicts[s];
            });
        client->poll_once(0);
        clients.push_back(std::move(client));
        if (clients.size() % 256 == 0)
          for (auto& c : clients) c->poll_once(0);
      }

      // Establishment: poll stragglers until the whole cohort is in.
      const auto ramp_deadline = Clock::now() + std::chrono::seconds(60);
      while (Clock::now() < ramp_deadline) {
        bool all = true;
        for (auto& c : clients)
          if (!c->established()) {
            all = false;
            c->poll_once(1);
          }
        if (all) break;
      }
      for (auto& c : clients) tot.established += c->established();

      // Replay: one 512-sample packet per node per round, leads shared by
      // profile rotation.
      constexpr std::size_t kPacket = 512;
      for (std::size_t off = 0; off < lead_len; off += kPacket) {
        slot = 0;
        for (std::size_t i = d; i < nodes; i += drivers, ++slot) {
          const auto& lead = leads[i % leads.size()];
          const std::size_t n = std::min(kPacket, lead.size() - off);
          clients[slot]->push(
              std::span<const dsp::Sample>(lead.data() + off, n));
          clients[slot]->poll_once(0);
        }
      }

      // Graceful close: finish everyone first so tails overlap, then close
      // with a per-node deadline.
      for (auto& c : clients) {
        c->finish();
        c->poll_once(0);
      }
      for (auto& c : clients) {
        c->close(/*deadline_ms=*/30000);
        tot.unclean += c->state() != net::LinkState::Closed;
        tot.seq_gaps += c->stats().verdict_seq_gaps;
        tot.frames_dropped += c->stats().frames_dropped;
        tot.bytes_tx += c->stats().bytes_tx;
      }
      for (const std::uint64_t v : verdicts) tot.verdicts += v;
    });
  }
  for (std::thread& t : driver_threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  gateway.stop();
  serve_thread.join();
  // Snapshot after the serve loop settles, so the last connection's
  // finalization is in the books; the gateway object is still alive.
  const service::FleetTelemetry& ft = gateway.engine().telemetry();
  const double p50_us = ft.latency.quantile_us(0.50);
  const double p99_us = ft.latency.quantile_us(0.99);
  const std::string reactor_stats = gateway.reactors_json();

  DriverTotals sum;
  for (const DriverTotals& t : totals) {
    sum.established += t.established;
    sum.unclean += t.unclean;
    sum.verdicts += t.verdicts;
    sum.seq_gaps += t.seq_gaps;
    sum.frames_dropped += t.frames_dropped;
    sum.bytes_tx += t.bytes_tx;
  }
  const std::uint64_t rss_mb = peak_rss_mb();

  std::printf("\nsoak: %zu nodes x %.0f s through %zu reactors in %.1f s\n",
              nodes, seconds, reactors, wall_s);
  std::printf("established %llu / %zu, unclean closes %llu\n",
              static_cast<unsigned long long>(sum.established), nodes,
              static_cast<unsigned long long>(sum.unclean));
  std::printf("verdicts %llu, seq gaps %llu, dropped frames %llu, "
              "%.1f MB on the wire\n",
              static_cast<unsigned long long>(sum.verdicts),
              static_cast<unsigned long long>(sum.seq_gaps),
              static_cast<unsigned long long>(sum.frames_dropped),
              static_cast<double>(sum.bytes_tx) / (1024.0 * 1024.0));
  std::printf("beat latency (enqueue->sink): p50 %.0f us, p99 %.0f us\n",
              p50_us, p99_us);
  std::printf("peak RSS %llu MB%s\n",
              static_cast<unsigned long long>(rss_mb),
              rss_cap_mb ? " (capped)" : "");
  std::printf("reactors: %s\n", reactor_stats.c_str());

  if (sum.established != nodes) {
    std::fprintf(stderr, "FAIL: only %llu of %zu nodes established\n",
                 static_cast<unsigned long long>(sum.established), nodes);
    return 2;
  }
  if (sum.unclean != 0 || sum.seq_gaps != 0 || sum.frames_dropped != 0) {
    std::fprintf(stderr, "FAIL: unclean=%llu gaps=%llu drops=%llu\n",
                 static_cast<unsigned long long>(sum.unclean),
                 static_cast<unsigned long long>(sum.seq_gaps),
                 static_cast<unsigned long long>(sum.frames_dropped));
    return 3;
  }
  if (rss_cap_mb != 0 && rss_mb > rss_cap_mb) {
    std::fprintf(stderr, "FAIL: peak RSS %llu MB exceeds the %llu MB cap\n",
                 static_cast<unsigned long long>(rss_mb),
                 static_cast<unsigned long long>(rss_cap_mb));
    return 4;
  }
  std::printf("PASS\n");
  return 0;
}
