// Net layer bench: loopback gateway throughput and the paper's selective
// transmission radio savings, gated on wire/direct bit-identity.
//
// Two runs over the same ward of synthetic patients (profiles rotate so the
// fleet mixes rhythms), one client thread per node against one
// net::GatewayServer on loopback TCP:
//
//   stream      every node in StreamEverything: all codes cross the wire,
//               the gateway's FleetEngine classifies. Run once per point of
//               a reactor-count axis ({1,2,4}; quick {1,2}) — the gateway
//               shards connections across that many epoll reactor threads.
//               Every run's per-node verdict sequences are *gated* against
//               direct in-process ingest of the identical codes (exit 1 on
//               any divergence) — the wire must be invisible to the
//               results, for any reactor/thread count. Each run also
//               reports the engine's per-phase pump timing
//               (drain/classify/deliver) and the reactors' idle wakeups.
//   selective   every node classifies locally and uploads only
//               pathological/Unknown windows (plus 0-sample Suspect
//               escalations). No identity gate applies (verdicts here are
//               upload confirmations); what is measured is bytes on the
//               wire.
//
// The headline figure is the bytes-on-wire reduction of selective vs
// stream, priced into radio energy via platform::PowerModel — the paper's
// §IV-E transmission-energy argument, measured end to end through real
// sockets. Output: BENCH_net.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <span>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/trainer.hpp"
#include "ecg/synth.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "platform/energy.hpp"
#include "service/fleet.hpp"

namespace {

using namespace hbrp;

embedded::EmbeddedClassifier train_quick(std::size_t threads) {
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
  tcfg.threads = threads;
  return core::TwoStepTrainer(ts1, ts2, tcfg).run().quantize();
}

struct VerdictSig {
  std::uint64_t sequence;
  std::uint64_t r_peak;
  std::uint8_t beat_class;
  std::uint8_t quality;
  bool operator==(const VerdictSig&) const = default;
};

/// Reference path: the same codes offered straight into a FleetEngine
/// session (no sockets), pumped to completion.
std::vector<VerdictSig> direct_ingest(
    const embedded::EmbeddedClassifier& classifier,
    std::span<const dsp::Sample> codes, std::size_t threads) {
  service::FleetConfig cfg;
  cfg.threads = threads;
  service::FleetEngine engine(classifier, cfg);
  std::vector<VerdictSig> out;
  const auto id = engine.open_session([&out](const service::SessionResult& r) {
    out.push_back(VerdictSig{r.sequence,
                             static_cast<std::uint64_t>(r.beat.r_peak),
                             static_cast<std::uint8_t>(r.beat.predicted),
                             static_cast<std::uint8_t>(r.beat.quality)});
  });
  if (!id) {
    std::fprintf(stderr, "direct ingest: open_session refused\n");
    std::exit(1);
  }
  std::size_t off = 0;
  while (off < codes.size()) {
    const std::size_t n = std::min<std::size_t>(1024, codes.size() - off);
    off += engine.offer(*id, codes.subspan(off, n)).accepted;
    engine.pump();
  }
  engine.drain();
  engine.close_session(*id);
  return out;
}

struct RunTotals {
  double wall_s = 0.0;
  std::uint64_t bytes_tx = 0;   // node -> gateway, summed over the ward
  std::uint64_t bytes_rx = 0;   // gateway -> node
  std::uint64_t verdicts = 0;
  std::uint64_t beats_local = 0;
  std::uint64_t beats_uploaded = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t verdict_seq_gaps = 0;
  // Gateway-side pump phase breakdown (summed over shard bodies) and
  // reactor idle accounting for this run.
  double drain_s = 0.0;
  double classify_s = 0.0;
  double deliver_s = 0.0;
  std::uint64_t idle_wakeups = 0;
  std::vector<std::vector<VerdictSig>> per_node;
};

/// One ward replay: every node drives its own client thread against a
/// fresh gateway with `reactors` reactor threads, pushes its code stream
/// in radio-packet chunks, then closes gracefully (finish + drain + BYE +
/// verdict tail).
RunTotals run_ward(const embedded::EmbeddedClassifier& classifier,
                   const std::vector<std::vector<dsp::Sample>>& codes,
                   net::TxPolicy policy, std::size_t reactors) {
  const std::size_t nodes = codes.size();
  RunTotals totals;
  totals.per_node.resize(nodes);

  net::GatewayConfig gcfg;
  gcfg.reactors = reactors;
  gcfg.fleet.max_sessions = nodes;
  net::GatewayServer gateway(classifier, gcfg);
  std::thread serve_thread([&gateway] { gateway.serve(); });

  std::vector<net::TxStats> stats(nodes);
  bench::WallTimer timer;
  {
    std::vector<std::thread> node_threads;
    node_threads.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      node_threads.emplace_back([&, i] {
        net::NodeConfig ncfg;
        ncfg.port = gateway.port();
        ncfg.node_id = static_cast<std::uint32_t>(i);
        ncfg.policy = policy;
        ncfg.heartbeat_interval_ms = 0;  // clean byte accounting
        net::SensorNodeClient client(classifier, ncfg);
        client.set_verdict_sink(
            [&, i](std::uint64_t seq, const net::BeatVerdictMsg& v) {
              totals.per_node[i].push_back(
                  VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
            });
        constexpr std::size_t kPacket = 512;
        const auto& lead = codes[i];
        for (std::size_t off = 0; off < lead.size(); off += kPacket) {
          const std::size_t n = std::min(kPacket, lead.size() - off);
          client.push(std::span<const dsp::Sample>(lead.data() + off, n));
          client.poll_once(0);
        }
        client.close(/*deadline_ms=*/60000);
        stats[i] = client.stats();
      });
    }
    for (auto& t : node_threads) t.join();
  }
  totals.wall_s = timer.seconds();
  gateway.stop();
  serve_thread.join();

  const service::FleetTelemetry& ft = gateway.engine().telemetry();
  totals.drain_s = static_cast<double>(ft.drain_ns.load()) / 1e9;
  totals.classify_s = static_cast<double>(ft.classify_ns.load()) / 1e9;
  totals.deliver_s = static_cast<double>(ft.deliver_ns.load()) / 1e9;
  totals.idle_wakeups = gateway.stats().idle_wakeups.load();

  for (const net::TxStats& s : stats) {
    totals.bytes_tx += s.bytes_tx;
    totals.bytes_rx += s.bytes_rx;
    totals.verdicts += s.verdicts_rx;
    totals.beats_local += s.beats_local;
    totals.beats_uploaded += s.beats_uploaded;
    totals.frames_dropped += s.frames_dropped;
    totals.verdict_seq_gaps += s.verdict_seq_gaps;
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, "net");
  bench::JsonReport report("net");
  bench::print_header(
      "WBSN wire protocol: loopback throughput and selective-transmission "
      "radio savings");

  const std::size_t nodes = args.quick ? 4 : 8;
  const double seconds = args.quick ? 10.0 : 30.0;
  const std::size_t threads = args.threads;

  std::printf("# training classifier (%zu threads)\n", threads);
  const auto classifier = train_quick(threads);

  // The ward: profiles rotate; codes are pre-sanitized exactly like the
  // client's double path so the reference and the wire see identical input.
  const ecg::RecordProfile profiles[] = {
      ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
      ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};
  const core::MonitorConfig mc;
  std::vector<std::vector<dsp::Sample>> codes(nodes);
  std::uint64_t samples_total = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    ecg::SynthConfig scfg;
    scfg.profile = profiles[i % std::size(profiles)];
    scfg.duration_s = seconds;
    scfg.num_leads = 1;
    scfg.seed = 9100 + i;
    const auto rec = ecg::generate_record(scfg);
    const std::vector<double> lead(rec.leads[0].begin(), rec.leads[0].end());
    codes[i] = dsp::sanitize_lead(lead, mc.quality);
    samples_total += codes[i].size();
  }

  bench::WallTimer total_timer;

  // --- reference: direct in-process ingest per node ----------------------
  std::printf("# direct-ingest reference (%zu nodes)\n", nodes);
  std::vector<std::vector<VerdictSig>> reference(nodes);
  for (std::size_t i = 0; i < nodes; ++i)
    reference[i] = direct_ingest(classifier, codes[i], threads);

  // --- run 1: stream everything across the reactor axis, each point gated
  // on bit-identity against the direct-ingest reference ------------------
  const std::vector<std::size_t> reactor_axis =
      args.quick ? std::vector<std::size_t>{1, 2}
                 : std::vector<std::size_t>{1, 2, 4};
  std::size_t mismatches = 0;
  std::vector<RunTotals> stream_runs;
  for (const std::size_t reactors : reactor_axis) {
    std::printf("# stream-everything ward replay (%zu reactor(s))\n",
                reactors);
    stream_runs.push_back(run_ward(classifier, codes,
                                   net::TxPolicy::StreamEverything, reactors));
    const RunTotals& run = stream_runs.back();
    for (std::size_t i = 0; i < nodes; ++i) {
      if (run.per_node[i] != reference[i]) {
        ++mismatches;
        std::fprintf(stderr,
                     "IDENTITY VIOLATION: %zu reactors, node %zu wire "
                     "verdicts diverge from direct ingest (%zu vs %zu "
                     "beats)\n",
                     reactors, i, run.per_node[i].size(), reference[i].size());
      }
    }
    if (run.frames_dropped != 0 || run.verdict_seq_gaps != 0) {
      ++mismatches;
      std::fprintf(stderr,
                   "lossless replay violated at %zu reactors: %llu drops, "
                   "%llu gaps\n",
                   reactors,
                   static_cast<unsigned long long>(run.frames_dropped),
                   static_cast<unsigned long long>(run.verdict_seq_gaps));
    }
  }
  // The byte/energy headline numbers keep using the single-reactor run so
  // they stay comparable across report generations.
  const RunTotals& stream = stream_runs.front();

  // --- run 2: selective transmission over the same ward ------------------
  std::printf("# selective ward replay\n");
  const RunTotals selective =
      run_ward(classifier, codes, net::TxPolicy::Selective, /*reactors=*/1);

  const platform::PowerModel power;
  const double stream_rate =
      stream.wall_s > 0.0 ? static_cast<double>(samples_total) / stream.wall_s
                          : 0.0;
  const double reduction =
      stream.bytes_tx > 0
          ? 1.0 - static_cast<double>(selective.bytes_tx) /
                      static_cast<double>(stream.bytes_tx)
          : 0.0;
  const double stream_mj = 1e3 * static_cast<double>(stream.bytes_tx) *
                           power.radio_j_per_byte;
  const double selective_mj = 1e3 * static_cast<double>(selective.bytes_tx) *
                              power.radio_j_per_byte;

  std::printf("\n%-22s %12s %12s\n", "", "stream", "selective");
  std::printf("%-22s %12.3f %12.3f\n", "wall (s)", stream.wall_s,
              selective.wall_s);
  std::printf("%-22s %12llu %12llu\n", "bytes node->gateway",
              static_cast<unsigned long long>(stream.bytes_tx),
              static_cast<unsigned long long>(selective.bytes_tx));
  std::printf("%-22s %12llu %12llu\n", "verdicts over wire",
              static_cast<unsigned long long>(stream.verdicts),
              static_cast<unsigned long long>(selective.verdicts));
  std::printf("%-22s %12llu %12llu\n", "beats kept local",
              static_cast<unsigned long long>(stream.beats_local),
              static_cast<unsigned long long>(selective.beats_local));
  std::printf("%-22s %12.3f %12.3f\n", "radio energy (mJ)", stream_mj,
              selective_mj);
  std::printf("\n%9s %10s %14s %10s %12s %11s %13s\n", "reactors", "wall (s)",
              "samples/s", "drain (s)", "classify (s)", "deliver (s)",
              "idle wakeups");
  for (std::size_t ri = 0; ri < reactor_axis.size(); ++ri) {
    const RunTotals& run = stream_runs[ri];
    const double rate =
        run.wall_s > 0.0 ? static_cast<double>(samples_total) / run.wall_s
                         : 0.0;
    std::printf("%9zu %10.3f %14.0f %10.4f %12.4f %11.4f %13llu\n",
                reactor_axis[ri], run.wall_s, rate, run.drain_s,
                run.classify_s, run.deliver_s,
                static_cast<unsigned long long>(run.idle_wakeups));
  }

  std::printf("\ningest throughput (stream): %.0f samples/s over the wire\n",
              stream_rate);
  std::printf("bytes-on-wire reduction: %.1f%% (%.3f mJ saved)\n",
              100.0 * reduction, stream_mj - selective_mj);
  std::printf("bit-identity vs direct ingest: %s\n",
              mismatches == 0 ? "PASS" : "FAIL");

  std::vector<double> r_axis, r_wall, r_rate, r_drain, r_classify, r_deliver,
      r_idle;
  for (std::size_t ri = 0; ri < reactor_axis.size(); ++ri) {
    const RunTotals& run = stream_runs[ri];
    r_axis.push_back(static_cast<double>(reactor_axis[ri]));
    r_wall.push_back(run.wall_s);
    r_rate.push_back(run.wall_s > 0.0
                         ? static_cast<double>(samples_total) / run.wall_s
                         : 0.0);
    r_drain.push_back(run.drain_s);
    r_classify.push_back(run.classify_s);
    r_deliver.push_back(run.deliver_s);
    r_idle.push_back(static_cast<double>(run.idle_wakeups));
  }

  report.set("quick", args.quick);
  report.set("threads", threads);
  report.set("nodes", nodes);
  report.set("stream_seconds", seconds);
  report.set("samples_total", samples_total);
  report.set("stream_wall_s", stream.wall_s);
  report.set("stream_samples_per_s", stream_rate);
  report.set("stream_bytes_tx", stream.bytes_tx);
  report.set("stream_bytes_rx", stream.bytes_rx);
  report.set("stream_verdicts", stream.verdicts);
  report.set("stream_reactors", std::span<const double>(r_axis));
  report.set("stream_reactor_wall_s", std::span<const double>(r_wall));
  report.set("stream_reactor_samples_per_s", std::span<const double>(r_rate));
  report.set("stream_reactor_drain_s", std::span<const double>(r_drain));
  report.set("stream_reactor_classify_s",
             std::span<const double>(r_classify));
  report.set("stream_reactor_deliver_s", std::span<const double>(r_deliver));
  report.set("stream_reactor_idle_wakeups", std::span<const double>(r_idle));
  report.set("selective_wall_s", selective.wall_s);
  report.set("selective_bytes_tx", selective.bytes_tx);
  report.set("selective_beats_local", selective.beats_local);
  report.set("selective_beats_uploaded", selective.beats_uploaded);
  report.set("bytes_reduction", reduction);
  report.set("radio_mj_stream", stream_mj);
  report.set("radio_mj_selective", selective_mj);
  report.set("identity_mismatches", mismatches);
  report.set("identity_pass", mismatches == 0);
  report.set("wall_s", total_timer.seconds());
  report.write(args.json_path);
  return mismatches == 0 ? 0 : 1;
}
