// Contiguous beat-window arena for the batched evaluation engine.
//
// The per-beat evaluation path (one std::vector per window, one heap
// projection buffer per beat) dominates training-time cost once the GA
// scores hundreds of candidate projections against thousands of beats.
// BeatBatch fixes the data layout instead: all windows live back-to-back in
// one arena (beat i occupies samples [i*W, (i+1)*W)), labels ride alongside,
// and the batch entry points (rp::BeatProjector::project_int_batch,
// nfc::NeuroFuzzyClassifier::classify_batch, embedded classify_batch) walk
// the arena with caller-owned scratch buffers — zero per-beat allocation in
// steady state and a cache-friendly sequential access pattern.
//
// A BeatBatch is immutable once built and is safe to share across Executor
// workers; every worker brings its own scratch.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/signal.hpp"
#include "ecg/dataset.hpp"
#include "ecg/types.hpp"

namespace hbrp::core {

class BeatBatch {
 public:
  BeatBatch() = default;
  /// Empty batch accepting windows of exactly `window_length` samples.
  explicit BeatBatch(std::size_t window_length);

  /// Copies every beat window of `ds` into one contiguous arena.
  static BeatBatch from_dataset(const ecg::BeatDataset& ds);

  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t window_length() const { return window_length_; }

  void reserve(std::size_t beats);
  void clear();

  /// Appends one window (must be window_length() samples).
  void append(std::span<const dsp::Sample> window, ecg::BeatClass label);

  /// Window of beat i as a view into the arena.
  std::span<const dsp::Sample> window(std::size_t i) const;

  /// The whole arena: size() * window_length() samples, beat-major.
  std::span<const dsp::Sample> windows() const { return samples_; }

  std::span<const ecg::BeatClass> labels() const { return labels_; }
  ecg::BeatClass label(std::size_t i) const;

 private:
  std::size_t window_length_ = 0;
  std::vector<dsp::Sample> samples_;
  std::vector<ecg::BeatClass> labels_;
};

}  // namespace hbrp::core
