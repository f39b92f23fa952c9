#include "scenario/episodes.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "math/check.hpp"
#include "testing/fault_inject.hpp"

namespace hbrp::scenario {

namespace {

constexpr double kStartMargin = 0.6;  // room for the first P wave
constexpr double kEndMargin = 0.7;    // last T wave inside the record

/// One planned beat before rendering: placement for the renderer plus the
/// ground-truth classes the annotation will carry.
struct PlannedTruth {
  core::AamiClass aami = core::AamiClass::N;
  bool paced_spike = false;  ///< render a pacemaker spike before the QRS
};

const Episode* active_episode(const ScenarioSpec& spec, double t,
                              EpisodeKind kind) {
  for (const Episode& e : spec.episodes)
    if (e.kind == kind && t >= e.start_s && t < e.start_s + e.duration_s)
      return &e;
  return nullptr;
}

bool rhythm_episode_at(const ScenarioSpec& spec, double t,
                       const Episode** out) {
  for (const EpisodeKind k : {EpisodeKind::AfibIrregularRr,
                              EpisodeKind::SustainedVt,
                              EpisodeKind::PacedRhythm,
                              EpisodeKind::SupraventricularRun,
                              EpisodeKind::MorphologyShift}) {
    const Episode* e = active_episode(spec, t, k);
    if (e != nullptr) {
      *out = e;
      return true;
    }
  }
  return false;
}

/// Linear-interpolation resample of sig[a, b) by `factor` (output length /
/// input length), splicing the result back between the untouched prefix
/// and suffix. Truth beat positions move with their samples. Models a
/// sensor clock running fast/slow (small factor) or a sample-rate
/// misconfiguration (large factor) — in both cases the receiver still
/// believes the nominal rate.
void warp_segment(dsp::Signal& sig, std::vector<TruthBeat>& truth,
                  std::size_t a, std::size_t b, double factor) {
  HBRP_REQUIRE(a < b && b <= sig.size(), "warp_segment: bad range");
  HBRP_REQUIRE(factor > 0.1 && factor < 10.0, "warp_segment: bad factor");
  const std::size_t in_len = b - a;
  const auto out_len = static_cast<std::size_t>(
      std::lround(static_cast<double>(in_len) * factor));
  HBRP_REQUIRE(out_len >= 2, "warp_segment: degenerate output");

  dsp::Signal warped(out_len);
  for (std::size_t j = 0; j < out_len; ++j) {
    const double src =
        static_cast<double>(j) * static_cast<double>(in_len - 1) /
        static_cast<double>(out_len - 1);
    const auto lo = static_cast<std::size_t>(src);
    const std::size_t hi = std::min(lo + 1, in_len - 1);
    const double frac = src - static_cast<double>(lo);
    const double v = (1.0 - frac) * static_cast<double>(sig[a + lo]) +
                     frac * static_cast<double>(sig[a + hi]);
    // A convex mix of two Samples, rounded: it lies between them, so it
    // narrows exactly.
    warped[j] = static_cast<dsp::Sample>(std::lround(v));
  }

  dsp::Signal out;
  out.reserve(sig.size() - in_len + out_len);
  out.insert(out.end(), sig.begin(),
             sig.begin() + static_cast<std::ptrdiff_t>(a));
  out.insert(out.end(), warped.begin(), warped.end());
  out.insert(out.end(), sig.begin() + static_cast<std::ptrdiff_t>(b),
             sig.end());
  sig = std::move(out);

  const auto shift =
      static_cast<std::ptrdiff_t>(out_len) - static_cast<std::ptrdiff_t>(in_len);
  for (TruthBeat& tb : truth) {
    if (tb.sample >= b) {
      tb.sample = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(tb.sample) + shift);
    } else if (tb.sample >= a) {
      tb.sample = a + static_cast<std::size_t>(std::lround(
                          static_cast<double>(tb.sample - a) * factor));
    }
  }
}

/// Union coverage of the fault events, clipped to [0, n).
std::size_t covered_samples(const std::vector<testing::FaultEvent>& events,
                            std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  spans.reserve(events.size());
  for (const testing::FaultEvent& e : events)
    spans.emplace_back(std::min(e.start, n),
                       std::min(e.start + e.duration, n));
  std::sort(spans.begin(), spans.end());
  std::size_t covered = 0, cursor = 0;
  for (const auto& [lo, hi] : spans) {
    const std::size_t from = std::max(lo, cursor);
    if (hi > from) covered += hi - from;
    cursor = std::max(cursor, hi);
  }
  return covered;
}

}  // namespace

const char* to_string(EpisodeKind kind) {
  switch (kind) {
    case EpisodeKind::AfibIrregularRr: return "afib-irregular-rr";
    case EpisodeKind::SustainedVt: return "sustained-vt";
    case EpisodeKind::PacedRhythm: return "paced-rhythm";
    case EpisodeKind::ArtefactStorm: return "artefact-storm";
    case EpisodeKind::ElectrodeDrop: return "electrode-drop";
    case EpisodeKind::ClockSkew: return "clock-skew";
    case EpisodeKind::RateMismatch: return "rate-mismatch";
    case EpisodeKind::SupraventricularRun: return "supraventricular-run";
    case EpisodeKind::MorphologyShift: return "morphology-shift";
  }
  return "?";
}

RrStats rr_statistics(const std::vector<std::size_t>& r_peaks, int fs_hz) {
  RrStats rr;
  if (r_peaks.size() < 2 || fs_hz <= 0) return rr;
  std::vector<double> rr_ms;
  rr_ms.reserve(r_peaks.size() - 1);
  for (std::size_t i = 1; i < r_peaks.size(); ++i)
    rr_ms.push_back(1000.0 *
                    static_cast<double>(r_peaks[i] - r_peaks[i - 1]) /
                    fs_hz);
  double sum = 0.0;
  for (const double v : rr_ms) sum += v;
  rr.mean_ms = sum / static_cast<double>(rr_ms.size());
  double var = 0.0;
  for (const double v : rr_ms) var += (v - rr.mean_ms) * (v - rr.mean_ms);
  rr.sdnn_ms = std::sqrt(var / static_cast<double>(rr_ms.size()));
  if (rr_ms.size() >= 2) {
    double sq = 0.0;
    std::size_t over50 = 0;
    for (std::size_t i = 1; i < rr_ms.size(); ++i) {
      const double d = rr_ms[i] - rr_ms[i - 1];
      sq += d * d;
      if (std::abs(d) > 50.0) ++over50;
    }
    rr.rmssd_ms = std::sqrt(sq / static_cast<double>(rr_ms.size() - 1));
    rr.pnn50 =
        static_cast<double>(over50) / static_cast<double>(rr_ms.size() - 1);
  }
  return rr;
}

ScenarioStream build_scenario(const ScenarioSpec& spec) {
  HBRP_REQUIRE(spec.duration_s >= 5.0,
               "build_scenario: duration must be >= 5 s");
  HBRP_REQUIRE(spec.fs_hz > 0, "build_scenario: fs must be positive");
  HBRP_REQUIRE(spec.heart_rate_bpm > 20.0 && spec.heart_rate_bpm < 250.0,
               "build_scenario: implausible heart rate");

  // The planning stream is decorrelated from the renderer's morphology
  // stream (render_planned reseeds from spec.seed itself).
  math::Rng plan_rng(spec.seed ^ 0x5CE7A110F00DULL);
  math::Rng fault_rng = plan_rng.split();

  const double rr_base = 60.0 / spec.heart_rate_bpm;
  const double resp_freq = plan_rng.uniform(0.15, 0.35);
  const double resp_depth = plan_rng.uniform(0.01, 0.04);
  const double resp_phase = plan_rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double pvc_rate =
      spec.background == ecg::RecordProfile::PvcOccasional ? 0.07 : 0.008;

  std::vector<ecg::PlacedBeat> placed;
  std::vector<PlannedTruth> planned;  // parallel to *annotated* placed beats
  double t = kStartMargin;
  bool prev_was_pvc = false;
  const Episode* last_vt = nullptr;  // fusion beat only at VT onset

  while (t < spec.duration_s - kEndMargin) {
    const Episode* rhythm = nullptr;
    double rr = rr_base;
    if (rhythm_episode_at(spec, t, &rhythm)) {
      switch (rhythm->kind) {
        case EpisodeKind::AfibIrregularRr: {
          // The Snippet-1 discriminator in reverse: no respiratory
          // modulation, a wide uniform RR spread, all conducted beats.
          placed.push_back({t, ecg::BeatClass::N, 1.0, true});
          planned.push_back({core::AamiClass::N, false});
          rr = rr_base * plan_rng.uniform(0.55, 1.50);
          prev_was_pvc = false;
          break;
        }
        case EpisodeKind::SustainedVt: {
          if (last_vt != rhythm) {
            // VT onset: one fusion beat — a normal and a ventricular
            // wavefront colliding, rendered as two overlapped beats with
            // one annotation (AAMI F).
            last_vt = rhythm;
            placed.push_back({t, ecg::BeatClass::N, 0.55, false});
            placed.push_back({t, ecg::BeatClass::V, 0.80, true});
            planned.push_back({core::AamiClass::F, false});
          } else {
            placed.push_back({t, ecg::BeatClass::V, 1.0, true});
            planned.push_back({core::AamiClass::V, false});
          }
          rr = plan_rng.uniform(0.33, 0.40);  // ~160-180 bpm
          prev_was_pvc = true;
          break;
        }
        case EpisodeKind::SupraventricularRun: {
          // Atrial ectopy: normal (narrow) QRS morphology landing far too
          // early, slightly smaller from incomplete ventricular filling.
          // AAMI S — premature + supraventricular origin. To a pipeline
          // classifying on morphology alone these look exactly like N (the
          // paper's three-class model has no S concept), which is what the
          // robustness scorer should surface rather than divide by zero.
          placed.push_back({t, ecg::BeatClass::N, 0.92, true});
          planned.push_back({core::AamiClass::S, false});
          rr = rr_base * plan_rng.uniform(0.45, 0.62);
          prev_was_pvc = false;
          break;
        }
        case EpisodeKind::MorphologyShift: {
          // A novel ectopic morphology absent from every training split: a
          // conducted beat fused with a delayed bundle-branch-shaped
          // wavefront — neither the N, V nor L template alone, so its RP
          // projection lands away from all training centroids. The blend
          // amplitude scales with episode magnitude (bench_drift sweeps it
          // for the detection-latency curve). Ventricular-origin ectopy:
          // AAMI V, moderately premature RR.
          const double blend =
              std::clamp(0.45 + 0.45 * rhythm->magnitude, 0.0, 1.0);
          placed.push_back({t, ecg::BeatClass::N, 0.9, true});
          placed.push_back({t + 0.06, ecg::BeatClass::L, blend, false});
          planned.push_back({core::AamiClass::V, false});
          rr = rr_base * plan_rng.uniform(0.50, 0.62);
          prev_was_pvc = true;
          break;
        }
        case EpisodeKind::PacedRhythm: {
          // Ventricular pacing: a narrow stimulus spike then a wide QRS.
          // AAMI Q — a model trained on N/V/L has no business being
          // confident here; escalation is the right answer.
          placed.push_back({t, ecg::BeatClass::V, 0.9, true});
          planned.push_back({core::AamiClass::Q, true});
          rr = (60.0 / 72.0) * (1.0 + 0.01 * plan_rng.normal());
          prev_was_pvc = false;
          break;
        }
        default: break;
      }
    } else {
      // Background rhythm: the generate_record() model, lightly simplified.
      const bool pvc = !prev_was_pvc && plan_rng.bernoulli(pvc_rate);
      const double resp =
          1.0 + resp_depth * std::sin(2.0 * std::numbers::pi * resp_freq * t +
                                      resp_phase);
      const double jitter =
          std::clamp(1.0 + 0.025 * plan_rng.normal(), 0.8, 1.2);
      rr = rr_base * resp * jitter;
      if (pvc) {
        const double prematurity = plan_rng.uniform(0.25, 0.40);
        double center = t - prematurity * rr_base;
        if (!placed.empty() && center - placed.back().center_s < 0.3)
          center = placed.back().center_s + 0.3;
        placed.push_back({center, ecg::BeatClass::V, 1.0, true});
        planned.push_back({core::AamiClass::V, false});
        rr += prematurity * rr_base;  // compensatory pause
      } else {
        placed.push_back({t, ecg::BeatClass::N, 1.0, true});
        planned.push_back({core::AamiClass::N, false});
      }
      prev_was_pvc = pvc;
    }
    t += std::max(rr, 0.25);
  }

  // PVC prematurity can nudge a beat before its predecessor; the renderer
  // requires sorted input. Stable-sort keeps equal-center fusion pairs in
  // render order.
  std::stable_sort(placed.begin(), placed.end(),
                   [](const ecg::PlacedBeat& a, const ecg::PlacedBeat& b) {
                     return a.center_s < b.center_s;
                   });

  ecg::SynthConfig synth;
  synth.fs_hz = spec.fs_hz;
  synth.duration_s = spec.duration_s;
  synth.num_leads = 1;
  synth.noise_scale = spec.noise_scale;
  synth.seed = spec.seed;
  ecg::Record rec = ecg::render_planned(synth, placed);
  HBRP_REQUIRE(rec.beats.size() == planned.size(),
               "build_scenario: annotation/plan mismatch");

  ScenarioStream out;
  out.fs_hz = spec.fs_hz;
  out.truth.reserve(rec.beats.size());
  for (std::size_t i = 0; i < rec.beats.size(); ++i) {
    TruthBeat tb;
    tb.sample = rec.beats[i].sample;
    tb.cls = rec.beats[i].cls;
    tb.aami = planned[i].aami;
    out.truth.push_back(tb);
  }

  dsp::Signal lead = std::move(rec.leads.front());

  // Pacemaker stimulus artefacts: a 2-sample near-rail spike ~45 ms before
  // each paced QRS (what a surface ECG shows of the pacing pulse).
  const auto spike_lead = static_cast<std::size_t>(
      std::lround(0.045 * spec.fs_hz));
  for (std::size_t i = 0; i < out.truth.size(); ++i) {
    if (!planned[i].paced_spike) continue;
    const std::size_t r = out.truth[i].sample;
    if (r < spike_lead) continue;
    const std::size_t at = r - spike_lead;
    for (std::size_t k = 0; k < 2 && at + k < lead.size(); ++k)
      lead[at + k] =
          static_cast<dsp::Sample>(std::min(lead[at + k] + 700, 2047));
  }

  // Timeline warps (clock skew / sample-rate mismatch), latest-first so
  // earlier episode boundaries stay valid while splicing.
  std::vector<const Episode*> warps;
  for (const Episode& e : spec.episodes)
    if (e.kind == EpisodeKind::ClockSkew || e.kind == EpisodeKind::RateMismatch)
      warps.push_back(&e);
  std::sort(warps.begin(), warps.end(),
            [](const Episode* a, const Episode* b) {
              return a->start_s > b->start_s;
            });
  for (const Episode* e : warps) {
    const auto a = std::min(
        lead.size(), static_cast<std::size_t>(
                         std::lround(e->start_s * spec.fs_hz)));
    const auto b = std::min(
        lead.size(),
        static_cast<std::size_t>(
            std::lround((e->start_s + e->duration_s) * spec.fs_hz)));
    if (b <= a + 8) continue;
    const double factor = e->kind == EpisodeKind::ClockSkew
                              ? 1.0 + e->magnitude
                              : e->magnitude;
    warp_segment(lead, out.truth, a, b, factor);
  }

  // Acquisition faults on the (possibly warped) stream timeline.
  testing::FaultInjectorConfig faults;
  faults.seed = fault_rng.next();
  for (const Episode& e : spec.episodes) {
    const auto a = static_cast<std::size_t>(
        std::lround(e.start_s * spec.fs_hz));
    const auto span = static_cast<std::size_t>(
        std::lround(e.duration_s * spec.fs_hz));
    if (span == 0 || a >= lead.size()) continue;
    switch (e.kind) {
      case EpisodeKind::ArtefactStorm: {
        // Sustained EMG/motion noise with impulse bursts riding on top —
        // the artefact-gate regime of SNIPPETS.md Snippet 2.
        testing::FaultEvent g;
        g.kind = testing::FaultKind::GaussianNoise;
        g.start = a;
        g.duration = span;
        g.magnitude = 120.0 * e.magnitude;
        faults.events.push_back(g);
        testing::append_burst_train(
            faults.events, fault_rng, testing::FaultKind::ImpulseNoise, a,
            span, /*count=*/6, spec.fs_hz / 4u,
            static_cast<std::size_t>(spec.fs_hz), 800.0 * e.magnitude,
            /*rate=*/0.25);
        break;
      }
      case EpisodeKind::ElectrodeDrop: {
        // Lead-off flat-lines with brief recoveries, plus one burst of
        // driver garbage (NaN/Inf) — the nastiest real-world combination.
        testing::append_burst_train(
            faults.events, fault_rng, testing::FaultKind::LeadOff, a, span,
            /*count=*/4, static_cast<std::size_t>(spec.fs_hz / 2),
            static_cast<std::size_t>(2 * spec.fs_hz), /*magnitude=*/10.0);
        testing::append_burst_train(
            faults.events, fault_rng, testing::FaultKind::NonFinite, a, span,
            /*count=*/1, spec.fs_hz / 4u,
            static_cast<std::size_t>(spec.fs_hz / 2), 0.0, /*rate=*/0.6);
        break;
      }
      default: break;
    }
  }

  // Truth beats inside a flat-line burst are physically undetectable;
  // flag them so the scorer can separate "lost to lead-off" from "missed".
  for (TruthBeat& tb : out.truth)
    for (const testing::FaultEvent& e : faults.events)
      if (e.kind == testing::FaultKind::LeadOff && tb.sample >= e.start &&
          tb.sample < e.start + e.duration)
        tb.obscured = true;

  out.artefact_samples = covered_samples(faults.events, lead.size());
  out.samples = testing::FaultInjector::apply(lead, faults);
  HBRP_REQUIRE(out.samples.size() == lead.size(),
               "build_scenario: fault kinds must preserve the timeline");

  std::vector<std::size_t> peaks;
  peaks.reserve(out.truth.size());
  for (const TruthBeat& tb : out.truth) peaks.push_back(tb.sample);
  out.rr = rr_statistics(peaks, spec.fs_hz);
  return out;
}

std::vector<ScenarioSpec> standard_scenarios(double duration_s,
                                             std::uint64_t seed_base) {
  HBRP_REQUIRE(duration_s >= 30.0,
               "standard_scenarios: need >= 30 s per scenario");
  std::vector<ScenarioSpec> specs;
  const double mid = duration_s * 0.4;

  ScenarioSpec clean;
  clean.name = "clean_ward";
  clean.background = ecg::RecordProfile::PvcOccasional;
  specs.push_back(clean);

  ScenarioSpec afib;
  afib.name = "afib_irregular_rr";
  afib.episodes.push_back(
      {EpisodeKind::AfibIrregularRr, 5.0, duration_s - 10.0, 1.0});
  specs.push_back(afib);

  ScenarioSpec vt;
  vt.name = "sustained_vt";
  vt.background = ecg::RecordProfile::PvcOccasional;
  vt.episodes.push_back({EpisodeKind::SustainedVt, mid, 12.0, 1.0});
  specs.push_back(vt);

  ScenarioSpec paced;
  paced.name = "paced_rhythm";
  paced.episodes.push_back(
      {EpisodeKind::PacedRhythm, 5.0, duration_s - 10.0, 1.0});
  specs.push_back(paced);

  ScenarioSpec storm;
  storm.name = "artefact_storm";
  storm.background = ecg::RecordProfile::PvcOccasional;
  storm.episodes.push_back({EpisodeKind::ArtefactStorm, 10.0, 10.0, 1.0});
  storm.episodes.push_back(
      {EpisodeKind::ArtefactStorm, mid + 5.0, 10.0, 1.5});
  specs.push_back(storm);

  ScenarioSpec drop;
  drop.name = "electrode_drop";
  drop.background = ecg::RecordProfile::PvcOccasional;
  drop.episodes.push_back({EpisodeKind::ElectrodeDrop, mid, 15.0, 1.0});
  specs.push_back(drop);

  ScenarioSpec skew;
  skew.name = "clock_skew";
  skew.background = ecg::RecordProfile::PvcOccasional;
  skew.episodes.push_back({EpisodeKind::ClockSkew, 0.0, duration_s, 0.03});
  specs.push_back(skew);

  ScenarioSpec mismatch;
  mismatch.name = "rate_mismatch";
  mismatch.background = ecg::RecordProfile::PvcOccasional;
  mismatch.episodes.push_back(
      {EpisodeKind::RateMismatch, mid, duration_s * 0.25, 300.0 / 360.0});
  specs.push_back(mismatch);

  // Appended after the original eight so existing per-index seeds
  // (seed_base + i) and any "first N scenarios" bench subsets are stable.
  ScenarioSpec svrun;
  svrun.name = "supraventricular_run";
  svrun.episodes.push_back(
      {EpisodeKind::SupraventricularRun, mid, 15.0, 1.0});
  specs.push_back(svrun);

  // The drift tracker's target workload (src/drift): a sustained run of a
  // composite shape no training split contains. Appended tenth, same
  // index-stability contract as above.
  ScenarioSpec shift;
  shift.name = "morphology_shift";
  shift.episodes.push_back(
      {EpisodeKind::MorphologyShift, mid, duration_s * 0.5, 1.0});
  specs.push_back(shift);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].duration_s = duration_s;
    specs[i].seed = seed_base + i;
  }
  return specs;
}

}  // namespace hbrp::scenario
