// Deployable embedded classifier bundle.
//
// Everything the WBSN firmware needs for the paper's early-classification
// stage, in its memory-optimized form: the 2-bit packed projection matrix,
// the downsampling factor, the integer MF tables and the Q16 decision
// threshold. export_c_header() emits the tables as a self-contained C
// header for actual firmware integration. On the host, classify_window()
// and classify_batch() run the same arithmetic the node does, projecting
// through the sparse form the projector builds next to the packed one.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "embedded/int_classifier.hpp"
#include "rp/packed_matrix.hpp"
#include "rp/projector.hpp"

namespace hbrp::embedded {

/// Reusable workspace for EmbeddedClassifier::classify_batch. The projected-
/// coefficient buffer grows to the largest batch seen and is then reused:
/// steady-state batch classification performs no heap allocation.
struct ClassifyScratch {
  rp::ProjectionScratch projection;
  std::vector<std::int32_t> u;
  FuzzifyScratch fuzzify;
};

class EmbeddedClassifier {
 public:
  EmbeddedClassifier(rp::BeatProjector projector, IntClassifier classifier,
                     std::uint32_t alpha_q16);

  /// Classifies one beat window at the acquisition rate (e.g. 200 samples
  /// at 360 Hz): downsample -> sparse-index projection -> integer NFC. The
  /// projected-coefficient buffer lives in `scratch`, so a warm scratch
  /// makes the call allocation-free.
  ecg::BeatClass classify_window(std::span<const dsp::Sample> window,
                                 ClassifyScratch& scratch) const;

  /// classify_window from the window's averaged codes (the
  /// projector().downsampled_window() codes classify_window leaves in
  /// scratch.projection.downsampled): the same class, without the window.
  ecg::BeatClass classify_downsampled(std::span<const dsp::Sample> codes,
                                      ClassifyScratch& scratch) const;

  /// Batch form of classify_window over `count` windows concatenated in
  /// `windows` (each projector().expected_window() samples). Equivalent to
  /// classify_window per beat; all intermediate buffers live in `scratch`.
  void classify_batch(std::span<const dsp::Sample> windows, std::size_t count,
                      std::span<ecg::BeatClass> out,
                      ClassifyScratch& scratch) const;

  /// Changes the test-time threshold (paper: alpha_test is tunable
  /// independently of alpha_train).
  void set_alpha_q16(std::uint32_t alpha_q16);
  std::uint32_t alpha_q16() const { return alpha_q16_; }

  const rp::BeatProjector& projector() const { return projector_; }
  const IntClassifier& classifier() const { return classifier_; }

  /// Total parameter RAM on the node: packed matrix + MF tables.
  std::size_t memory_bytes() const;

  /// Writes the classifier as a C header (static const tables + metadata).
  void export_c_header(std::ostream& out, const char* symbol_prefix) const;

 private:
  rp::BeatProjector projector_;
  IntClassifier classifier_;
  std::uint32_t alpha_q16_ = 0;
};

}  // namespace hbrp::embedded
