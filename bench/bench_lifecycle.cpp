// Model-lifecycle bench: the numbers behind the src/lifecycle CI gate.
//
// Four measurements, all deterministic (fixed trainer config — seeds
// 511/512/513 for model A, 523 for the independently evolved model B —
// and fixed synth/scenario seeds):
//
//   identity  the acceptance criterion: a hot-swap staged mid-stream must
//             split the verdict sequence into an exact prefix of the
//             model-A run and an exact suffix of the model-B run, with
//             dense sequence numbers, for every thread/shard layout.
//             Any divergence fails the bench (exit 1);
//   push      MODEL_PUSH throughput over loopback TCP (announce + parts +
//             ACK round trips, gateway decode + registry admit included),
//             plus a tampered image that must be NACKed Malformed and
//             leave the active version untouched;
//   swap      stage->apply latency on a live pump-driven session: the
//             wall time from stage_swap() to the end of the pump round
//             that applied it (the swap lands at the round's beat
//             boundary), p50/p99 over repeated swaps, and the number of
//             verdicts delivered by the applying round (beats that were
//             in flight when the swap was staged);
//   ab        per-arm AAMI metrics: both candidate models replayed over
//             the standard adversarial scenario suite, the per-arm
//             NDR/ARR/miss/false the fleet A/B split would surface.
//
// --quick trims the swap-latency sample count and the push repetitions;
// the trainer config and the scenario suite are NOT scaled, so quick
// numbers are comparable with the committed BENCH_lifecycle.json baseline.
//
// Output: BENCH_lifecycle.json (scripts/robustness_gate.py lifecycle mode
// compares a fresh run against the committed baseline: the identity and
// corrupt-push booleans are fatal, per-arm NDR/ARR drops are fatal, swap
// latency drift only warns — it is wall-clock on a shared host).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "lifecycle/bundle.hpp"
#include "net/gateway.hpp"
#include "net/push.hpp"
#include "scenario/episodes.hpp"
#include "scenario/runner.hpp"
#include "service/fleet.hpp"

namespace {

using namespace hbrp;

struct TrainedPair {
  core::TrainedClassifier a;
  core::TrainedClassifier b;
  embedded::EmbeddedClassifier clf_a;
  embedded::EmbeddedClassifier clf_b;
  std::shared_ptr<const drift::TrainingCentroids> centroids_a;
  std::shared_ptr<const drift::TrainingCentroids> centroids_b;
};

TrainedPair train_pair(std::size_t threads) {
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 120.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 511;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 80;
  dcfg.seed = 512;
  const auto ts2 = ecg::build_dataset({1200, 120, 150}, dcfg);
  core::TwoStepConfig tcfg;
  tcfg.ga.population = 6;
  tcfg.ga.generations = 4;
  tcfg.seed = 513;
  tcfg.threads = threads;
  core::TrainedClassifier a = core::TwoStepTrainer(ts1, ts2, tcfg).run();
  tcfg.seed = 523;  // an independently evolved projection matrix
  core::TrainedClassifier b = core::TwoStepTrainer(ts1, ts2, tcfg).run();
  embedded::EmbeddedClassifier clf_a = a.quantize();
  embedded::EmbeddedClassifier clf_b = b.quantize();
  auto ca = std::make_shared<const drift::TrainingCentroids>(
      core::compute_training_centroids(clf_a, ts1));
  auto cb = std::make_shared<const drift::TrainingCentroids>(
      core::compute_training_centroids(clf_b, ts1));
  return {std::move(a),     std::move(b),  std::move(clf_a),
          std::move(clf_b), std::move(ca), std::move(cb)};
}

dsp::Signal patient_lead(std::uint64_t seed, double seconds) {
  ecg::SynthConfig cfg;
  cfg.profile = ecg::RecordProfile::PvcOccasional;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  return ecg::generate_record(cfg).leads[0];
}

struct Tagged {
  std::uint64_t sequence;
  std::uint64_t r_peak;
  std::uint8_t predicted;
  std::uint8_t quality;
  std::uint64_t model_version;
  bool same_beat(const Tagged& o) const {
    return sequence == o.sequence && r_peak == o.r_peak &&
           predicted == o.predicted && quality == o.quality;
  }
};

/// Direct ingest of a lead on one engine; `mid_hook(engine, id, offered)`
/// runs after every pumped block.
std::vector<Tagged> run_engine(
    const embedded::EmbeddedClassifier& classifier,
    std::span<const dsp::Sample> lead, std::size_t threads,
    std::size_t shards,
    const std::function<void(service::FleetEngine&, service::SessionId,
                             std::size_t)>& mid_hook = nullptr) {
  service::FleetConfig cfg;
  cfg.threads = threads;
  cfg.shards = shards;
  service::FleetEngine engine(classifier, cfg);
  std::vector<Tagged> out;
  const auto id = engine.open_session([&out](const service::SessionResult& r) {
    out.push_back(Tagged{r.sequence, static_cast<std::uint64_t>(r.beat.r_peak),
                         static_cast<std::uint8_t>(r.beat.predicted),
                         static_cast<std::uint8_t>(r.beat.quality),
                         r.model_version});
  });
  std::size_t off = 0;
  while (off < lead.size()) {
    const std::size_t n = std::min<std::size_t>(2048, lead.size() - off);
    off += engine.offer(*id, lead.subspan(off, n)).accepted;
    engine.pump();
    if (mid_hook) mid_hook(engine, *id, off);
  }
  engine.drain();
  engine.close_session(*id);
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct GatewayHarness {
  net::GatewayServer gw;
  std::thread thread;
  GatewayHarness(const embedded::EmbeddedClassifier& classifier,
                 net::GatewayConfig cfg)
      : gw(classifier, std::move(cfg)), thread([this] { gw.serve(); }) {}
  ~GatewayHarness() {
    gw.stop();
    thread.join();
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, "lifecycle");
  bench::JsonReport report("lifecycle");
  report.set("quick", args.quick);
  report.set("threads", args.threads);

  std::printf("training model pair (fixed config, seeds 511/512/513/523)...\n");
  const TrainedPair trained = train_pair(args.threads);
  bool all_ok = true;

  // --- identity: the swap-split acceptance criterion, per thread layout.
  bool identity_pass = true;
  {
    bench::print_header("hot-swap verdict-stream identity");
    const auto lead = patient_lead(540, 25.0);
    const auto ref_a = run_engine(trained.clf_a, lead, 1, 1);
    const auto ref_b = run_engine(trained.clf_b, lead, 1, 1);
    if (ref_a.empty() || ref_a.size() != ref_b.size()) {
      std::fprintf(stderr, "reference runs disagree on beat count\n");
      identity_pass = false;
    }
    const auto model_b = std::make_shared<const service::SessionModel>(
        service::SessionModel{2, trained.clf_b, trained.centroids_b});
    const std::pair<std::size_t, std::size_t> combos[] = {
        {1, 1}, {2, 2}, {4, 4}};
    for (const auto& [threads, shards] : combos) {
      bool staged = false;
      const auto swapped = run_engine(
          trained.clf_a, lead, threads, shards,
          [&](service::FleetEngine& engine, service::SessionId id,
              std::size_t off) {
            if (!staged && off >= 2048 * 3) {
              engine.stage_swap(id, model_b);
              staged = true;
            }
          });
      bool ok = swapped.size() == ref_a.size();
      std::size_t split = swapped.size();
      for (std::size_t i = 0; ok && i < swapped.size(); ++i) {
        if (split == swapped.size() && swapped[i].model_version == 2u)
          split = i;
        const Tagged& want = i < split ? ref_a[i] : ref_b[i];
        ok = swapped[i].same_beat(want) && swapped[i].sequence == i;
      }
      ok = ok && split > 0 && split < swapped.size();
      std::printf("  t%zus%zu: %zu verdicts, split at %zu  %s\n", threads,
                  shards, swapped.size(), split, ok ? "ok" : "MISMATCH");
      if (!ok) identity_pass = false;
    }
    report.set("lifecycle_identity_pass", identity_pass);
    if (!identity_pass) {
      std::fprintf(stderr, "hot-swap verdict identity FAILED\n");
      all_ok = false;
    }
  }

  // --- push: MODEL_PUSH throughput + a tampered image must be NACKed.
  {
    bench::print_header("MODEL_PUSH over loopback");
    net::GatewayConfig gcfg;
    gcfg.reactors = 1;
    GatewayHarness harness(trained.clf_a, gcfg);
    const int pushes = args.quick ? 4 : 16;
    std::uint64_t version = 1;
    std::size_t bytes = 0;
    bench::WallTimer timer;
    for (int i = 0; i < pushes; ++i) {
      const lifecycle::ModelBundle bundle{
          .version = ++version,
          .model = (i % 2 == 0) ? trained.b : trained.a,
          .centroids =
              (i % 2 == 0) ? *trained.centroids_b : *trained.centroids_a};
      const auto image = lifecycle::encode_bundle(bundle);
      bytes += image.size();
      const auto r = net::push_image(harness.gw.port(), bundle.version, image);
      if (!r.delivered || r.status != net::ModelPushStatus::Ok) {
        std::fprintf(stderr, "push of v%llu failed: %s (status %d)\n",
                     static_cast<unsigned long long>(bundle.version),
                     r.error.c_str(), static_cast<int>(r.status));
        all_ok = false;
      }
    }
    const double secs = timer.seconds();
    const double mb_per_s =
        static_cast<double>(bytes) / (1024.0 * 1024.0) / secs;
    report.set("push_count", pushes);
    report.set("push_bundle_bytes", bytes / static_cast<std::size_t>(pushes));
    report.set("push_mb_per_s", mb_per_s);
    std::printf("  %d pushes, %zu bytes each: %.1f MB/s end-to-end\n",
                pushes, bytes / static_cast<std::size_t>(pushes), mb_per_s);

    const lifecycle::ModelBundle good{
        .version = version + 1, .model = trained.b, .centroids = {}};
    auto tampered = lifecycle::encode_bundle(good);
    tampered[tampered.size() / 2] ^= 0x01u;  // announce digest stays honest
    const auto r =
        net::push_image(harness.gw.port(), good.version, tampered);
    const bool nacked = r.delivered &&
                        r.status == net::ModelPushStatus::Malformed &&
                        harness.gw.active_model_version() == version;
    report.set("lifecycle_corrupt_push_nacked", nacked);
    std::printf("  tampered image: %s\n",
                nacked ? "NACKed Malformed, version held"
                       : "NOT REJECTED (gate failure)");
    if (!nacked) all_ok = false;
  }

  // --- swap: stage->apply latency on a live session, repeated swaps.
  {
    bench::print_header("stage->apply swap latency (pump-driven session)");
    const auto lead = patient_lead(541, 60.0);
    const int target_swaps = args.quick ? 8 : 32;
    service::FleetEngine engine(trained.clf_a, {});
    std::vector<Tagged> out;
    const auto id =
        engine.open_session([&out](const service::SessionResult& r) {
          out.push_back(Tagged{r.sequence, 0, 0, 0, r.model_version});
        });
    std::vector<double> latencies_us;
    std::vector<double> inflight;
    std::uint64_t version = 1;
    std::size_t block = 0;
    const std::span<const dsp::Sample> span(lead);
    // Cycle the lead until enough swaps are sampled: one continuous
    // session, a swap staged every third block.
    while (static_cast<int>(latencies_us.size()) < target_swaps) {
      const std::size_t off = (block * 2048) % span.size();
      const std::size_t n = std::min<std::size_t>(2048, span.size() - off);
      engine.offer(*id, span.subspan(off, n));
      if (block % 3 == 2) {
        ++version;
        const bool to_b = version % 2 == 0;
        engine.stage_swap(
            *id, std::make_shared<const service::SessionModel>(
                     service::SessionModel{
                         version, to_b ? trained.clf_b : trained.clf_a,
                         to_b ? trained.centroids_b : trained.centroids_a}));
        const std::size_t before = out.size();
        bench::WallTimer t;
        engine.pump();  // applies at the round's beat boundary
        latencies_us.push_back(t.seconds() * 1e6);
        inflight.push_back(static_cast<double>(out.size() - before));
      } else {
        engine.pump();
      }
      ++block;
    }
    engine.drain();
    engine.close_session(*id);
    const double p50 = percentile(latencies_us, 0.50);
    const double p99 = percentile(latencies_us, 0.99);
    double mean_inflight = 0.0;
    for (const double x : inflight) mean_inflight += x;
    mean_inflight /= static_cast<double>(inflight.size());
    report.set("swap_count", latencies_us.size());
    report.set("swap_latency_p50_us", p50);
    report.set("swap_latency_p99_us", p99);
    report.set("beats_in_flight_at_swap", mean_inflight);
    std::printf("  %zu swaps: p50 %.0f us, p99 %.0f us, %.1f beats in "
                "flight per applying round\n",
                latencies_us.size(), p50, p99, mean_inflight);
  }

  // --- ab: per-arm AAMI metrics over the standard adversarial suite.
  {
    bench::print_header("A/B arms over the standard scenario suite");
    const auto specs = scenario::standard_scenarios(40.0, 9000);
    struct ArmAgg {
      double ndr = 0, arr = 0, miss = 0, false_rate = 0;
    };
    const embedded::EmbeddedClassifier* clfs[2] = {&trained.clf_a,
                                                   &trained.clf_b};
    ArmAgg agg[2];
    std::printf("  %-22s %9s %9s %9s %9s\n", "scenario", "a_ndr", "a_arr",
                "b_ndr", "b_arr");
    for (const auto& spec : specs) {
      const auto stream = scenario::build_scenario(spec);
      double row[2][2];
      for (int arm = 0; arm < 2; ++arm) {
        const auto verdicts = scenario::run_direct(*clfs[arm], stream);
        const auto score = scenario::score_verdicts(stream, verdicts);
        agg[arm].ndr += score.ndr;
        agg[arm].arr += score.arr;
        agg[arm].miss += score.miss_rate;
        agg[arm].false_rate += score.false_rate;
        row[arm][0] = score.ndr;
        row[arm][1] = score.arr;
      }
      std::printf("  %-22s %9.3f %9.3f %9.3f %9.3f\n", spec.name.c_str(),
                  row[0][0], row[0][1], row[1][0], row[1][1]);
    }
    const double n = static_cast<double>(specs.size());
    report.set("ab_scenarios", specs.size());
    const char* names[2] = {"a", "b"};
    for (int arm = 0; arm < 2; ++arm) {
      char key[40];
      std::snprintf(key, sizeof key, "ab_%s_ndr", names[arm]);
      report.set(key, agg[arm].ndr / n);
      std::snprintf(key, sizeof key, "ab_%s_arr", names[arm]);
      report.set(key, agg[arm].arr / n);
      std::snprintf(key, sizeof key, "ab_%s_miss_rate", names[arm]);
      report.set(key, agg[arm].miss / n);
      std::snprintf(key, sizeof key, "ab_%s_false_rate", names[arm]);
      report.set(key, agg[arm].false_rate / n);
      std::printf("  arm %s mean: ndr %.3f arr %.3f miss %.3f false %.3f\n",
                  names[arm], agg[arm].ndr / n, agg[arm].arr / n,
                  agg[arm].miss / n, agg[arm].false_rate / n);
    }
  }

  report.set("all_ok", all_ok);
  report.write(args.json_path);
  if (!all_ok) {
    std::fprintf(stderr, "lifecycle identity/push gate FAILED\n");
    return 1;
  }
  return 0;
}
