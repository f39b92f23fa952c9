#include "testing/fault_inject.hpp"

#include <algorithm>
#include <limits>

#include "math/check.hpp"

namespace hbrp::testing {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::LeadOff: return "lead-off";
    case FaultKind::Saturation: return "saturation";
    case FaultKind::DropSamples: return "sample-drop";
    case FaultKind::DupSamples: return "sample-dup";
    case FaultKind::GaussianNoise: return "gaussian-noise";
    case FaultKind::ImpulseNoise: return "impulse-noise";
    case FaultKind::NonFinite: return "non-finite";
  }
  return "?";
}

void append_burst_train(std::vector<FaultEvent>& events, math::Rng& rng,
                        FaultKind kind, std::size_t start, std::size_t span,
                        std::size_t count, std::size_t min_len,
                        std::size_t max_len, double magnitude, double rate) {
  HBRP_REQUIRE(min_len > 0 && min_len <= max_len,
               "append_burst_train: need 0 < min_len <= max_len");
  HBRP_REQUIRE(span >= max_len,
               "append_burst_train: window shorter than the longest burst");
  for (std::size_t b = 0; b < count; ++b) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(min_len),
        static_cast<std::int64_t>(max_len)));
    const std::size_t offset = rng.uniform_index(span - len + 1);
    FaultEvent e;
    e.kind = kind;
    e.start = start + offset;
    e.duration = len;
    e.magnitude = magnitude;
    e.rate = rate;
    events.push_back(e);
  }
}

FaultInjector::FaultInjector(FaultInjectorConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  HBRP_REQUIRE(cfg_.rail_low < cfg_.rail_high,
               "FaultInjector: rail_low must be below rail_high");
  for (const FaultEvent& e : cfg_.events) {
    HBRP_REQUIRE(e.duration > 0, "FaultInjector: event duration must be > 0");
    HBRP_REQUIRE(e.rate >= 0.0 && e.rate <= 1.0,
                 "FaultInjector: event rate must be in [0, 1]");
  }
}

std::vector<double> FaultInjector::feed(dsp::Sample x) {
  const std::size_t i = index_++;
  double value = static_cast<double>(x);
  bool drop = false;
  bool dup = false;

  // Later events in the list win when windows overlap; drop/dup compose
  // with value faults (a saturated stretch can also lose samples).
  for (const FaultEvent& e : cfg_.events) {
    if (i < e.start || i >= e.start + e.duration) continue;
    switch (e.kind) {
      case FaultKind::LeadOff:
        value = e.magnitude;
        break;
      case FaultKind::Saturation:
        value = static_cast<double>(cfg_.rail_high);
        break;
      case FaultKind::DropSamples:
        drop = true;
        break;
      case FaultKind::DupSamples:
        dup = true;
        break;
      case FaultKind::GaussianNoise:
        value = std::clamp(value + rng_.normal(0.0, e.magnitude),
                           static_cast<double>(cfg_.rail_low),
                           static_cast<double>(cfg_.rail_high));
        break;
      case FaultKind::ImpulseNoise:
        if (rng_.bernoulli(e.rate))
          value = std::clamp(
              value + (rng_.bernoulli(0.5) ? e.magnitude : -e.magnitude),
              static_cast<double>(cfg_.rail_low),
              static_cast<double>(cfg_.rail_high));
        break;
      case FaultKind::NonFinite:
        if (rng_.bernoulli(e.rate)) {
          const auto pick = rng_.uniform_index(3);
          value = pick == 0
                      ? std::numeric_limits<double>::quiet_NaN()
                      : (pick == 1 ? std::numeric_limits<double>::infinity()
                                   : -std::numeric_limits<double>::infinity());
        }
        break;
    }
  }

  if (drop) return {};
  if (dup) return {value, value};
  return {value};
}

std::vector<double> FaultInjector::apply(const dsp::Signal& in,
                                         const FaultInjectorConfig& cfg) {
  FaultInjector injector(cfg);
  std::vector<double> out;
  out.reserve(in.size());
  for (const dsp::Sample x : in) {
    const auto ys = injector.feed(x);
    out.insert(out.end(), ys.begin(), ys.end());
  }
  return out;
}

}  // namespace hbrp::testing
