// Fleet service throughput: sessions x reactors scaling grid.
//
// Replays S concurrent synthetic patient streams through a
// service::FleetEngine for every (sessions, reactors) cell of a grid and
// reports ingest throughput (samples/s), delivered beats, per-beat latency
// quantiles and the engine's per-phase pump timing. A cell with R reactors
// runs R replay threads, each owning the sessions pinned to one engine
// shard and driving that shard's pump_shard() — exactly the multi-reactor
// gateway's schedule, minus the sockets. The per-session replay protocol —
// round-robin 1024-sample packets, one shard pump per round, drain, close —
// is identical in every cell, so the engine's determinism contract applies:
// for a given session count, every cell must deliver bit-identical
// per-session result sequences regardless of the reactor/shard count. The
// bench *gates* on that (exit 1 on any divergence); the speedup numbers are
// reported but not gated, since they depend on the host's core count
// (cpu_count is stamped into the report for exactly that reason — on a
// 1-core container the whole grid is flat by construction).
//
// Output: BENCH_fleet.json with the full grid, per-row speedups vs the
// serial (reactors=1) baseline of the same session count, and the speedup
// of the widest cell over its serial baseline. Full (non-quick) runs also
// emit fleet_widest_speedup, which scripts/perf_gate.py compares between
// committed full-run baselines; quick runs omit it so a quick-vs-full
// comparison warn-skips instead of comparing different grids.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <span>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/trainer.hpp"
#include "ecg/synth.hpp"
#include "service/fleet.hpp"

namespace {

using namespace hbrp;
using service::SessionId;
using service::SessionResult;

// Everything that identifies a delivered beat. Two runs are bit-identical
// iff their per-session signature vectors are equal.
struct BeatSig {
  std::uint64_t sequence;
  std::size_t r_peak;
  ecg::BeatClass predicted;
  dsp::SignalQuality quality;
  bool operator==(const BeatSig&) const = default;
};

struct CellResult {
  std::size_t sessions = 0;
  std::size_t reactors = 0;
  double wall_s = 0.0;
  double samples_per_s = 0.0;
  std::uint64_t beats = 0;
  double p50_us = 0.0;  // worst per-session p50
  double p99_us = 0.0;  // worst per-session p99
  // Cumulative per-phase pump time, summed over shard bodies (with R
  // reactors the parallel phases accumulate up to R x wall clock).
  double drain_s = 0.0;
  double classify_s = 0.0;
  double deliver_s = 0.0;
  std::vector<std::vector<BeatSig>> per_session;
};

embedded::EmbeddedClassifier train_quick(std::size_t threads) {
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 180.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 301;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 100;
  dcfg.seed = 302;
  const auto ts2 = ecg::build_dataset({2500, 220, 280}, dcfg);
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 8;
  tcfg.ga.generations = 6;
  tcfg.seed = 303;
  tcfg.threads = threads;
  return core::TwoStepTrainer(ts1, ts2, tcfg).run().quantize();
}

// One grid cell: replay `streams[0..sessions)` through a fresh engine with
// `reactors` shards, one replay/pump thread per shard.
CellResult run_cell(const embedded::EmbeddedClassifier& classifier,
                    const std::vector<std::vector<double>>& streams,
                    std::size_t sessions, std::size_t reactors) {
  CellResult cell;
  cell.sessions = sessions;
  cell.reactors = reactors;
  cell.per_session.resize(sessions);

  service::FleetConfig fcfg;
  // The replay threads ARE the parallelism (the gateway's reactor model);
  // the engine's own executor stays serial and unused.
  fcfg.threads = 1;
  fcfg.shards = reactors;
  fcfg.max_sessions = sessions;
  service::FleetEngine engine(classifier, fcfg);

  std::vector<SessionId> ids;
  ids.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    // Default placement is round-robin, so session i lands on shard
    // i % reactors — replay thread r below owns exactly the i % R == r set.
    const auto id = engine.open_session([&cell, i](const SessionResult& r) {
      cell.per_session[i].push_back(
          {r.sequence, r.beat.r_peak, r.beat.predicted, r.beat.quality});
    });
    if (!id) {
      std::fprintf(stderr, "open_session refused at %zu\n", i);
      std::exit(1);
    }
    ids.push_back(*id);
  }

  std::atomic<std::uint64_t> total_samples{0};
  constexpr std::size_t kPacket = 1024;
  bench::WallTimer timer;

  const auto replay_shard = [&](std::size_t r) {
    std::uint64_t my_samples = 0;
    std::size_t offset = 0;
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t i = r; i < sessions; i += reactors) {
        if (offset >= streams[i].size()) continue;
        any = true;
        const std::size_t n = std::min(kPacket, streams[i].size() - offset);
        std::span<const double> packet(streams[i].data() + offset, n);
        // Per-round shard pump: the queue bound is never hit, so nothing
        // is ever deferred and the replay is lossless.
        while (true) {
          const auto res = engine.offer(ids[i], packet);
          my_samples += res.accepted;
          if (res.deferred == 0) break;
          packet = packet.last(res.deferred);
          engine.pump_shard(r);
        }
      }
      offset += kPacket;
      engine.pump_shard(r);
    }
    while (engine.shard_queued_samples(r) > 0) engine.pump_shard(r);
    total_samples.fetch_add(my_samples, std::memory_order_relaxed);
  };

  if (reactors == 1) {
    replay_shard(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(reactors);
    for (std::size_t r = 0; r < reactors; ++r)
      threads.emplace_back(replay_shard, r);
    for (std::thread& t : threads) t.join();
  }

  for (const SessionId id : ids) {
    const auto* t = engine.session_telemetry(id);
    cell.p50_us = std::max(cell.p50_us, t->latency.quantile_us(0.50));
    cell.p99_us = std::max(cell.p99_us, t->latency.quantile_us(0.99));
  }
  for (const SessionId id : ids) engine.close_session(id);
  cell.wall_s = timer.seconds();

  const service::FleetTelemetry& ft = engine.telemetry();
  cell.beats = ft.beats_out.load();
  cell.drain_s = static_cast<double>(ft.drain_ns.load()) / 1e9;
  cell.classify_s = static_cast<double>(ft.classify_ns.load()) / 1e9;
  cell.deliver_s = static_cast<double>(ft.deliver_ns.load()) / 1e9;
  cell.samples_per_s =
      cell.wall_s > 0.0
          ? static_cast<double>(total_samples.load()) / cell.wall_s
          : 0.0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, "fleet");
  bench::JsonReport report("fleet");
  bench::print_header(
      "Fleet service layer: multi-session scaling and determinism gate");

  const std::vector<std::size_t> session_axis =
      args.quick ? std::vector<std::size_t>{1, 8}
                 : std::vector<std::size_t>{1, 16, 64, 256};
  const std::vector<std::size_t> reactor_axis =
      args.quick ? std::vector<std::size_t>{1, 2}
                 : std::vector<std::size_t>{1, 2, 4, 8};
  const double seconds = args.quick ? 10.0 : 30.0;
  const std::size_t max_sessions = session_axis.back();

  std::printf("# training classifier (GA %zux%zu, %zu threads)\n",
              args.ga_population, args.ga_generations, args.threads);
  const auto classifier = train_quick(args.threads);

  // One stream per patient slot, shared by every cell: the same data must
  // flow through every configuration for the identity gate to mean
  // anything. Profiles rotate so the fleet mixes rhythms.
  const ecg::RecordProfile profiles[] = {
      ecg::RecordProfile::NormalSinus, ecg::RecordProfile::PvcOccasional,
      ecg::RecordProfile::PvcBigeminy, ecg::RecordProfile::Lbbb};
  std::vector<std::vector<double>> streams(max_sessions);
  for (std::size_t i = 0; i < max_sessions; ++i) {
    ecg::SynthConfig scfg;
    scfg.profile = profiles[i % std::size(profiles)];
    scfg.duration_s = seconds;
    scfg.num_leads = 1;
    scfg.seed = 9000 + i;
    const auto rec = ecg::generate_record(scfg);
    streams[i].assign(rec.leads[0].begin(), rec.leads[0].end());
  }

  bench::WallTimer total_timer;
  std::vector<CellResult> cells;
  std::printf("\n%9s %9s %10s %14s %8s %9s %9s %10s %11s %10s\n", "sessions",
              "reactors", "wall (s)", "samples/s", "beats", "p50 (us)",
              "p99 (us)", "drain (s)", "classify (s)", "deliver (s)");
  for (const std::size_t s : session_axis) {
    for (const std::size_t r : reactor_axis) {
      cells.push_back(run_cell(classifier, streams, s, r));
      const CellResult& c = cells.back();
      std::printf("%9zu %9zu %10.3f %14.0f %8llu %9.0f %9.0f %10.4f %11.4f "
                  "%10.4f\n",
                  c.sessions, c.reactors, c.wall_s, c.samples_per_s,
                  static_cast<unsigned long long>(c.beats), c.p50_us, c.p99_us,
                  c.drain_s, c.classify_s, c.deliver_s);
    }
  }

  // --- the determinism gate: every cell vs its serial baseline ----------
  // reactor_axis[0] == 1, so cells[first cell of each session count] is the
  // serial (one reactor, one shard) reference.
  std::size_t mismatches = 0;
  for (std::size_t si = 0; si < session_axis.size(); ++si) {
    const CellResult& ref = cells[si * reactor_axis.size()];
    for (std::size_t ri = 1; ri < reactor_axis.size(); ++ri) {
      const CellResult& c = cells[si * reactor_axis.size() + ri];
      for (std::size_t i = 0; i < ref.per_session.size(); ++i) {
        if (c.per_session[i] != ref.per_session[i]) {
          ++mismatches;
          std::fprintf(stderr,
                       "IDENTITY VIOLATION: sessions=%zu reactors=%zu "
                       "session %zu diverges from serial baseline "
                       "(%zu vs %zu beats)\n",
                       c.sessions, c.reactors, i, c.per_session[i].size(),
                       ref.per_session[i].size());
        }
      }
    }
  }
  std::printf("\nbit-identity vs serial baseline: %s\n",
              mismatches == 0 ? "PASS" : "FAIL");

  // Per-row speedup vs the serial cell of the same session count, plus the
  // widest-cell headline (reported, not gated here: it is a property of
  // the host's core count).
  std::vector<double> g_speedup(cells.size(), 0.0);
  for (std::size_t si = 0; si < session_axis.size(); ++si) {
    const double serial_rate = cells[si * reactor_axis.size()].samples_per_s;
    for (std::size_t ri = 0; ri < reactor_axis.size(); ++ri) {
      const std::size_t idx = si * reactor_axis.size() + ri;
      g_speedup[idx] =
          serial_rate > 0.0 ? cells[idx].samples_per_s / serial_rate : 0.0;
    }
  }
  const CellResult& wide_parallel = cells.back();
  const double speedup = g_speedup.back();
  std::printf("speedup at %zu sessions, %zu reactors vs serial: %.2fx "
              "(host has %u cpu(s))\n",
              wide_parallel.sessions, wide_parallel.reactors, speedup,
              std::thread::hardware_concurrency());

  std::vector<double> g_sessions, g_reactors, g_wall, g_rate, g_beats, g_p50,
      g_p99, g_drain, g_classify, g_deliver;
  for (const CellResult& c : cells) {
    g_sessions.push_back(static_cast<double>(c.sessions));
    g_reactors.push_back(static_cast<double>(c.reactors));
    g_wall.push_back(c.wall_s);
    g_rate.push_back(c.samples_per_s);
    g_beats.push_back(static_cast<double>(c.beats));
    g_p50.push_back(c.p50_us);
    g_p99.push_back(c.p99_us);
    g_drain.push_back(c.drain_s);
    g_classify.push_back(c.classify_s);
    g_deliver.push_back(c.deliver_s);
  }
  report.set("quick", args.quick);
  report.set("stream_seconds", seconds);
  report.set("cpu_count",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  report.set("grid_sessions", std::span<const double>(g_sessions));
  report.set("grid_reactors", std::span<const double>(g_reactors));
  // Kept for report-reader continuity: a cell's pump parallelism.
  report.set("grid_threads", std::span<const double>(g_reactors));
  report.set("grid_wall_s", std::span<const double>(g_wall));
  report.set("grid_samples_per_s", std::span<const double>(g_rate));
  report.set("grid_beats", std::span<const double>(g_beats));
  report.set("grid_p50_us", std::span<const double>(g_p50));
  report.set("grid_p99_us", std::span<const double>(g_p99));
  report.set("grid_drain_s", std::span<const double>(g_drain));
  report.set("grid_classify_s", std::span<const double>(g_classify));
  report.set("grid_deliver_s", std::span<const double>(g_deliver));
  report.set("grid_speedup", std::span<const double>(g_speedup));
  report.set("speedup_widest_vs_serial", speedup);
  if (!args.quick) {
    // Gate key (matched by perf_gate.py's *_speedup policy). Full runs
    // only: a quick run's grid is too small to compare against it.
    report.set("fleet_widest_speedup", speedup);
  }
  report.set("identity_mismatches", mismatches);
  report.set("identity_pass", mismatches == 0);
  report.set("wall_s", total_timer.seconds());
  report.write(args.json_path);
  return mismatches == 0 ? 0 : 1;
}
