// bench_e2e — ward-level end-to-end benchmark with a per-layer cost ledger.
//
//   bench_e2e --workload=W --seed=N [--seconds=S] [--trace=PATH]
//             [--json=PATH] [--self-test]
//
// Workloads (README.md says why each exists): ward_stream, ward_selective,
// ward_paced, fleet_wide. One run sets the workload up several times (the
// median is setup_s), measures it for --seconds, then checks every verdict
// against direct in-process FleetEngine ingest of the same packets, computed
// after the timed phase on kMaxThreads threads and not timed. Any missing or
// mismatched verdict, seq gap, dropped frame, unclean close or refused push
// is a failure, and the process exits 1.
//
// --trace=PATH adds a second, traced run of the same workload, then replays
// its recorded inputs through each layer's public functions; spans and
// ledger keys go to PATH. --self-test flips one reference verdict (or
// expects one upload too many on ward_selective), so a working oracle
// reports failed > 0 and exits non-zero. --json=PATH writes the report,
// stamped with bench/common.hpp's JsonReport provenance.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "bench/e2e/e2e.hpp"

namespace {

using namespace hbrp;
using namespace hbrp::e2e;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

struct Options {
  Workload workload = Workload::WardStream;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
  std::string json_path;
  bool self_test = false;
};

[[noreturn]] void usage(const char* prog, const char* why, const char* arg) {
  std::fprintf(stderr, "%s: %s '%s'\n", prog, why, arg);
  std::fprintf(stderr,
               "usage: %s --workload=ward_stream|ward_selective|ward_paced|"
               "fleet_wide --seed=N [--seconds=S] [--trace=PATH] "
               "[--json=PATH] [--self-test]\n",
               prog);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  const char* prog = argc > 0 ? argv[0] : "bench_e2e";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--self-test") {
      o.self_test = true;
      continue;
    }
    std::string value;
    if (const auto eq = a.find('='); eq != std::string::npos) {
      value = a.substr(eq + 1);
      a.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(prog, "missing value for", a.c_str());
    }
    if (value.empty()) usage(prog, "empty value for", a.c_str());
    char* end = nullptr;
    errno = 0;
    if (a == "--workload") {
      if (value == "ward_stream") o.workload = Workload::WardStream;
      else if (value == "ward_selective") o.workload = Workload::WardSelective;
      else if (value == "ward_paced") o.workload = Workload::WardPaced;
      else if (value == "fleet_wide") o.workload = Workload::FleetWide;
      else usage(prog, "unknown workload", value.c_str());
    } else if (a == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || *end != '\0' || value[0] == '-')
        usage(prog, "bad seed", value.c_str());
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (errno != 0 || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 600.0)
        usage(prog, "bad seconds (want 0 < S <= 600)", value.c_str());
    } else if (a == "--trace") {
      o.trace_path = value;
    } else if (a == "--json") {
      o.json_path = value;
    } else {
      usage(prog, "unknown argument", a.c_str());
    }
  }
  return o;
}

/// Exact nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::size_t beyond(const std::vector<double>& sorted, double v) {
  return static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), v));
}

/// The oracle's verdict and the E2E metrics of one timed phase, as measured.
struct Measured {
  std::uint64_t expected = 0;    ///< verdicts the reference says must arrive
  std::uint64_t mismatched = 0;  ///< missing, extra or differing verdicts
  std::uint64_t tail = 0;        ///< BYE-tail verdicts (not latency samples)
  std::vector<double> latency_us;  ///< every sample, sorted
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  double samples_per_s = 0, server_cpu = 0, node_cpu = 0, p50 = 0, p99 = 0,
         tx_bytes_per_beat = 0;
};

struct StreamCheck {
  std::uint64_t expected = 0, mismatched = 0, tail = 0;
  std::vector<double> latency_us;
  std::int64_t last_ns = 0;  ///< last verdict of the timed phase
  std::vector<Span> spans;

  void sample(std::size_t s, std::uint64_t p, const StreamLog& log,
              const VerdictRec& v, bool traced) {
    latency_us.push_back(static_cast<double>(v.at_ns - log.sent_ns[p]) / 1e3);
    last_ns = std::max(last_ns, v.at_ns);
    if (traced && packet_traced(s, p))
      spans.push_back(Span{0, packet_span_id(s, p), "verdict", log.sent_ns[p],
                           v.at_ns});
  }
};

/// Reference workloads: the node's full verdict stream must equal direct
/// ingest of the same packets; latency samples are attributed to the packet
/// whose consumption made each verdict available.
StreamCheck check_stream(const Inputs& in, std::size_t s, const StreamLog& log,
                         bool tamper, bool traced) {
  StreamCheck c;
  Reference ref =
      reference_ingest(in.model, in.streams[s], log.sent_ns.size());
  if (tamper) {
    if (ref.verdicts.empty())
      ref.verdicts.push_back({});
    else
      ref.verdicts[ref.verdicts.size() / 2].cls ^= 1;
  }
  c.expected = ref.verdicts.size();
  const std::vector<VerdictRec>& got = log.verdicts;
  const std::size_t common = std::min(got.size(), ref.verdicts.size());
  for (std::size_t i = 0; i < common; ++i) {
    const Reference::Verdict& r = ref.verdicts[i];
    const VerdictRec& v = got[i];
    if (v.seq != r.seq || v.r_peak != r.r_peak || v.cls != r.cls ||
        v.quality != r.quality)
      ++c.mismatched;
  }
  c.mismatched += std::max(got.size(), ref.verdicts.size()) - common;
  const std::uint64_t timed = ref.avail.empty() ? 0 : ref.avail.back();
  c.tail = c.expected - std::min<std::uint64_t>(timed, c.expected);
  for (const VerdictRec& v : got) {
    if (v.seq >= timed) continue;
    const auto p = static_cast<std::uint64_t>(
        std::upper_bound(ref.avail.begin(), ref.avail.end(), v.seq) -
        ref.avail.begin());
    c.sample(s, p, log, v, traced);
  }
  return c;
}

/// ward_selective: every upload gets exactly one verdict; latency runs from
/// the push that queued the upload to its verdict.
StreamCheck check_uploads(std::size_t s, const StreamLog& log, bool tamper,
                          bool traced) {
  StreamCheck c;
  c.expected = log.uploads + (tamper ? 1 : 0);
  std::vector<bool> seen(c.expected, false);
  for (const VerdictRec& v : log.verdicts) {
    if (v.seq >= c.expected || seen[v.seq]) {
      ++c.mismatched;
      continue;
    }
    seen[v.seq] = true;
    if (v.seq >= log.upload_packet.size()) {
      ++c.tail;  // queued by the closing flush, not by a timed push
      continue;
    }
    c.sample(s, log.upload_packet[v.seq], log, v, traced);
  }
  c.mismatched += static_cast<std::uint64_t>(
      std::count(seen.begin(), seen.end(), false));
  return c;
}

Measured measure(const Inputs& in, const RunConfig& cfg, LiveRun& live,
                 bool tamper) {
  const std::size_t streams = live.logs.size();
  std::vector<StreamCheck> checks(streams);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(kMaxThreads, streams); ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t s = next++; s < streams; s = next++) {
          const bool flip = tamper && s == 0;
          checks[s] = cfg.workload == Workload::WardSelective
                          ? check_uploads(s, live.logs[s], flip, cfg.traced)
                          : check_stream(in, s, live.logs[s], flip, cfg.traced);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: reference ingest failed: %s\n",
                     e.what());
        failed.store(true);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  Measured m;
  std::int64_t end_ns = live.t0_ns;
  for (const StreamLog& log : live.logs)
    end_ns = std::max(end_ns, log.last_push_ns);
  for (StreamCheck& c : checks) {
    end_ns = std::max(end_ns, c.last_ns);
    m.expected += c.expected;
    m.mismatched += c.mismatched;
    m.tail += c.tail;
    m.latency_us.insert(m.latency_us.end(), c.latency_us.begin(),
                        c.latency_us.end());
    live.spans.insert(live.spans.end(), c.spans.begin(), c.spans.end());
  }
  m.attempted = m.expected + live.pushes + live.connections;
  m.failed = m.mismatched + live.failures + (failed.load() ? 1 : 0);

  std::sort(m.latency_us.begin(), m.latency_us.end());
  m.p50 = percentile(m.latency_us, 0.50);
  m.p99 = percentile(m.latency_us, 0.99);

  // The timed phase ends at its last verdict (the BYE tail excluded).
  const std::int64_t wall_ns = std::max<std::int64_t>(end_ns - live.t0_ns, 1);
  const double samples =
      static_cast<double>(std::max<std::uint64_t>(live.samples, 1));
  m.samples_per_s = samples * 1e9 / static_cast<double>(wall_ns);
  m.server_cpu = static_cast<double>(live.cpu.process_ns - live.cpu.node_ns -
                                     live.cpu.pusher_ns) /
                 samples;
  m.node_cpu = static_cast<double>(live.cpu.node_ns) / samples;
  // Per node, then averaged: on the closed loops the nodes (one profile
  // each) progress at rates the host's scheduling sets, so a pooled ratio
  // would weigh their very different upload shares differently every run.
  std::vector<double> per_node;
  for (const StreamLog& log : live.logs)
    if (log.beats_decided > 0)
      per_node.push_back(static_cast<double>(log.bytes_tx) /
                         static_cast<double>(log.beats_decided));
  for (const double b : per_node)
    m.tx_bytes_per_beat += b / static_cast<double>(per_node.size());
  return m;
}

struct Totals {
  std::uint64_t bytes_tx = 0, beats_decided = 0, uploads = 0;
};

Totals totals(const LiveRun& live) {
  Totals t;
  for (const StreamLog& log : live.logs) {
    t.bytes_tx += log.bytes_tx;
    t.beats_decided += log.beats_decided;
    t.uploads += log.uploads;
  }
  return t;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

std::vector<Metric> e2e_metrics(double setup_s, const Measured& m,
                                const LiveRun& live) {
  return {
      {"setup_s", "s", setup_s},
      {"samples_per_s", "1/s", m.samples_per_s},
      {"server_cpu_ns_per_sample", "ns", m.server_cpu},
      {"node_cpu_ns_per_sample", "ns", m.node_cpu},
      {"verdict_p50_us", "us", m.p50},
      {"tx_bytes_per_beat", "bytes", m.tx_bytes_per_beat},
      {"peak_rss_mb", "MB", live.rss_mb},
  };
}

/// Gateway-side share of the replayed layers, per sample, for the layers
/// the workload's server side actually runs.
double gateway_layers_ns_per_sample(const RunConfig& cfg, const LiveRun& live,
                                    const std::vector<LayerKey>& layers) {
  auto key = [&](const char* name) {
    for (const LayerKey& k : layers)
      if (k.name == name) return k.value;
    return 0.0;
  };
  const double samples =
      static_cast<double>(std::max<std::uint64_t>(live.samples, 1));
  const Totals t = totals(live);
  const double pump = key("fleet.pump_ns_per_sample");
  switch (cfg.workload) {
    case Workload::FleetWide:
      return pump;
    case Workload::WardSelective:
      return key("gateway.full_beat_ns_per_upload") *
                 static_cast<double>(t.uploads) / samples +
             key("wire.parse_ns_per_byte") *
                 static_cast<double>(t.bytes_tx) / samples;
    case Workload::WardStream:
    case Workload::WardPaced:
      return key("wire.parse_ns_per_byte") *
                 static_cast<double>(t.bytes_tx) / samples +
             key("wire.chunk_decode_ns_per_sample") +
             key("session.offer_ns_per_sample") + pump +
             key("wire.verdict_encode_ns_per_beat") *
                 static_cast<double>(t.beats_decided) / samples;
  }
  return 0.0;
}

struct Outcome {
  LiveRun live;
  Measured m;
};

Outcome run_once(const RunConfig& cfg, bool tamper,
                 std::vector<double>* setup_s,
                 std::unique_ptr<Setup>& setup) {
  const int reps = setup_s != nullptr ? kSetupReps : 1;
  for (int r = 0; r < reps; ++r) {
    setup.reset();
    const std::int64_t a = now_ns();
    setup = make_setup(cfg);
    if (setup_s != nullptr)
      setup_s->push_back(static_cast<double>(now_ns() - a) / 1e9);
  }
  Outcome o;
  o.live = setup->run(cfg);
  o.m = measure(setup->inputs(), cfg, o.live, tamper);
  return o;
}

int run(const Options& opt) {
  RunConfig cfg;
  cfg.workload = opt.workload;
  cfg.seed = opt.seed;
  cfg.seconds = opt.seconds;
  const unsigned cpu_count = std::thread::hardware_concurrency();
  std::printf("bench_e2e workload=%s seed=%llu seconds=%g cpu_count=%u%s\n",
              to_string(cfg.workload),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cpu_count, opt.self_test ? " self-test" : "");
  std::fflush(stdout);

  std::vector<double> setup_reps;
  std::unique_ptr<Setup> setup;
  Outcome untraced = run_once(cfg, opt.self_test, &setup_reps, setup);
  const double setup_s = median(setup_reps);
  const LiveRun& live = untraced.live;
  const Measured& m = untraced.m;
  const std::vector<Metric> metrics = e2e_metrics(setup_s, m, live);
  std::uint64_t attempted = m.attempted;
  std::uint64_t failed = m.failed;

  std::vector<LayerKey> layers;
  if (!opt.trace_path.empty()) {
    RunConfig tcfg = cfg;
    tcfg.traced = true;
    Outcome traced = run_once(tcfg, opt.self_test, nullptr, setup);
    attempted += traced.m.attempted;
    failed += traced.m.failed;
    layers = replay_layers(setup->inputs(), tcfg, traced.live);
    const double gw = gateway_layers_ns_per_sample(cfg, live, layers);
    layers.push_back(
        {"gateway.unattributed_ns_per_sample", m.server_cpu - gw, "ns"});
    const double base = m.server_cpu + m.node_cpu;
    const double with = traced.m.server_cpu + traced.m.node_cpu;
    layers.push_back({"trace.overhead_pct",
                      base > 0 ? 100.0 * (with - base) / base : 0.0, "%"});
    // The untraced run's latency tail: a per-layer key, not gated (README.md,
    // "End-to-end metrics").
    layers.push_back({"verdict.p99_us", m.p99, "us"});
    if (!write_trace(opt.trace_path, tcfg, traced.live, layers)) ++failed;
  }
  setup.reset();

  const double ratio = attempted > 0 ? static_cast<double>(failed) /
                                           static_cast<double>(attempted)
                                     : 1.0;
  for (const Metric& x : metrics)
    std::printf("%-28s %16.6g %s\n", x.name, x.value, x.unit);
  std::vector<double> late = live.late_us;
  std::sort(late.begin(), late.end());
  const double late_p99 = percentile(late, 0.99);
  if (late_p99 > 1000.0)
    std::printf("warning: the generator ran %.0f us late at p99 (> 1 ms); "
                "this run's latencies are not on schedule\n",
                late_p99);
  const std::size_t beyond_p50 = beyond(m.latency_us, m.p50);
  const std::size_t beyond_p99 = beyond(m.latency_us, m.p99);
  std::printf("verdict latency n=%zu p50=%.6g us (%zu beyond) p99=%.6g us "
              "(%zu beyond) tail=%llu\n",
              m.latency_us.size(), m.p50, beyond_p50, m.p99, beyond_p99,
              static_cast<unsigned long long>(m.tail));
  for (const LayerKey& k : layers)
    std::printf("%-40s %16.6g %s\n", k.name.c_str(), k.value, k.unit);
  std::printf("failed_ratio = %.6g (failed %llu of %llu attempted)\n", ratio,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  if (!opt.json_path.empty()) {
    bench::JsonReport report("e2e");
    report.set("workload", to_string(cfg.workload));
    report.set("seed", cfg.seed);
    report.set("seconds", cfg.seconds);
    report.set("cpu_count", cpu_count);
    report.set("threads_max", kMaxThreads);
    report.set("connections_max", kMaxThreads);
    report.set("streams", live.logs.size());
    report.set("packet_samples", kPacket);
    report.set("setup_reps", std::span<const double>(setup_reps));
    report.set("self_test", opt.self_test);
    report.set("traced", !opt.trace_path.empty());
    report.set("samples", live.samples);
    report.set("packets", live.packets);
    report.set("tx_bytes", totals(live).bytes_tx);
    report.set("beats_decided", totals(live).beats_decided);
    report.set("verdicts_expected", m.expected);
    report.set("verdicts_tail", m.tail);
    report.set("verdict_n", m.latency_us.size());
    report.set("verdict_beyond_p50", beyond_p50);
    report.set("verdict_p99_us", m.p99);
    report.set("verdict_beyond_p99", beyond_p99);
    report.set("attempted", attempted);
    report.set("failed", failed);
    report.set("failed_ratio", ratio);
    report.set("correct", failed == 0);
    // Live counters of the untraced run; each applies to some workloads
    // only (see README.md), so none is a gated metric.
    report.set("push_ack_p50_ms", median(live.push_ms));
    report.set("pushes", live.pushes);
    report.set("client.polls_per_packet",
               live.packets > 0 ? static_cast<double>(live.polls) /
                                      static_cast<double>(live.packets)
                                : 0.0);
    report.set("gateway.idle_wakeup_ratio", live.idle_wakeup_ratio);
    report.set("session.queue_high_water_samples", live.queue_high_water);
    report.set("lifecycle.swaps_applied", live.swaps_applied);
    report.set("gen.late_p99_us", late_p99);
    for (const Metric& x : metrics) {
      report.set(std::string("metric.") + x.name, x.value);
      report.set(std::string("unit.") + x.name, x.unit);
    }
    for (const LayerKey& k : layers) {
      report.set("layer." + k.name, k.value);
      report.set("unit." + k.name, k.unit);
    }
    if (!report.write(opt.json_path)) return 1;
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
