#include "drift/tracker.hpp"

#include <cmath>
#include <limits>

#include "math/check.hpp"

namespace hbrp::drift {

namespace {

// FNV-1a, fed the raw bytes of doubles/ints so any bit-level divergence
// between two tracker states changes the digest.
inline void fnv_mix(std::uint64_t& h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

}  // namespace

DriftTracker::DriftTracker(const TrainingCentroids& seed, DriftConfig cfg)
    : cfg_(cfg), k_(seed.coefficients) {
  HBRP_REQUIRE(k_ > 0, "DriftTracker: coefficients must be > 0");
  HBRP_REQUIRE(!seed.centroids.empty(),
               "DriftTracker: at least one training centroid required");
  HBRP_REQUIRE(seed.scale > 0.0, "DriftTracker: scale must be > 0");
  HBRP_REQUIRE(cfg_.window_beats > 0,
               "DriftTracker: window_beats must be > 0");
  const double sqrt_k = std::sqrt(static_cast<double>(k_));
  const double global_inv_norm = 1.0 / (seed.scale * sqrt_k);

  seed_means_.reserve(seed.centroids.size() * k_);
  seed_inv_norm_.reserve(seed.centroids.size());
  for (const auto& c : seed.centroids) {
    HBRP_REQUIRE(c.mean.size() == k_,
                 "DriftTracker: centroid dimension mismatch");
    HBRP_REQUIRE(c.sigma >= 0.0, "DriftTracker: negative centroid sigma");
    seed_means_.insert(seed_means_.end(), c.mean.begin(), c.mean.end());
    seed_inv_norm_.push_back(c.sigma > 0.0 ? 1.0 / (c.sigma * sqrt_k)
                                           : global_inv_norm);
  }
  window_.assign(cfg_.window_beats, 0);
}

void DriftTracker::push_window(bool normal, bool novel) {
  if (window_fill_ == window_.size()) {
    const std::uint8_t old = window_[window_head_];
    window_normals_ -= old & 1u;
    window_novel_ -= (old >> 1) & 1u;
  } else {
    ++window_fill_;
  }
  const std::uint8_t entry =
      static_cast<std::uint8_t>((normal ? 1u : 0u) | (novel ? 2u : 0u));
  window_[window_head_] = entry;
  window_normals_ += entry & 1u;
  window_novel_ += (entry >> 1) & 1u;
  window_head_ = (window_head_ + 1) % window_.size();
}

double DriftTracker::score() const {
  // Novel normals over normal-classified beats in the window. The
  // denominator is floored at half the window so a window holding only a
  // handful of normals (mid-VT, early stream) cannot alarm off ratio
  // noise — an episode must both classify normal and look novel for a
  // sustained run to score.
  const std::size_t floor_n = cfg_.window_beats / 2 > 0
                                  ? cfg_.window_beats / 2
                                  : std::size_t{1};
  const std::size_t denom =
      window_normals_ > floor_n ? window_normals_ : floor_n;
  return static_cast<double>(window_novel_) / static_cast<double>(denom);
}

DriftObservation DriftTracker::observe(std::span<const std::int32_t> u,
                                       bool normal_classified) {
  HBRP_REQUIRE(u.size() == k_, "DriftTracker::observe: wrong width");
  ++beats_;

  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < seed_inv_norm_.size(); ++i) {
    const double* mean = seed_means_.data() + i * k_;
    double acc = 0.0;
    for (std::size_t j = 0; j < k_; ++j) {
      const double d = static_cast<double>(u[j]) - mean[j];
      acc += d * d;
    }
    const double d = std::sqrt(acc) * seed_inv_norm_[i];
    if (d < best) best = d;
  }
  fnv_mix(distance_hash_, &best, sizeof best);

  DriftObservation obs;
  obs.distance = best;
  obs.novel = normal_classified && best > cfg_.novelty_threshold;
  if (obs.novel) ++novel_beats_;

  push_window(normal_classified, obs.novel);
  obs.score = score();
  const bool above =
      beats_ >= cfg_.min_beats && obs.score >= cfg_.alarm_threshold;
  if (above && !alarm_active_) ++alarms_;
  alarm_active_ = above;
  obs.alarm = alarm_active_;
  return obs;
}

std::uint64_t DriftTracker::state_digest() const {
  std::uint64_t h = distance_hash_;
  fnv_mix(h, &beats_, sizeof beats_);
  fnv_mix(h, &novel_beats_, sizeof novel_beats_);
  fnv_mix(h, &alarms_, sizeof alarms_);
  fnv_mix(h, &window_normals_, sizeof window_normals_);
  fnv_mix(h, &window_novel_, sizeof window_novel_);
  return h;
}

}  // namespace hbrp::drift
