// Beat-window projector: downsampling + random projection as one unit.
//
// The paper's classifier input chain is: 200-sample beat window at 360 Hz ->
// 4x downsampling (50 samples at 90 Hz) -> k-coefficient random projection.
// BeatProjector owns the trained matrix in its dense (training), 2-bit
// packed (storage) and sparse-index (execution) forms, and applies the
// chain in integer arithmetic only: project_int_into per window and
// project_int_batch over an arena are the system's two projection calls,
// and project_downsampled_into projects the averaged codes a selective
// node uploads in place of its window.
// The trainer's double-typed data is project_int_into's output converted
// to double (core::project_dataset).
#pragma once

#include <cstdint>

#include "dsp/resample.hpp"
#include "kernels/sparse_ternary.hpp"
#include "rp/achlioptas.hpp"
#include "rp/packed_matrix.hpp"

namespace hbrp::rp {

/// Reusable workspace for the allocation-free projection entry points. One
/// scratch per thread of execution; sized lazily on first use and then
/// reused, so the steady state performs no heap allocation per beat.
struct ProjectionScratch {
  dsp::Signal downsampled;
};

class BeatProjector {
 public:
  /// `p` has one column per *downsampled* window sample.
  BeatProjector(TernaryMatrix p, std::size_t downsample_factor);

  std::size_t coefficients() const { return dense_.rows(); }
  std::size_t downsample_factor() const { return downsample_; }
  /// Window length expected at the acquisition rate.
  std::size_t expected_window() const {
    return dense_.cols() * downsample_;
  }
  /// Averaged codes one window downsamples to: expected_window() /
  /// downsample_factor(), the matrix's column count.
  std::size_t downsampled_window() const { return dense_.cols(); }

  /// Downsamples one window and projects it into `out` (coefficients()
  /// values). Allocation-free given a warm `scratch`, which keeps the
  /// window's averaged codes in `downsampled` afterwards.
  void project_int_into(std::span<const dsp::Sample> window,
                        std::span<std::int32_t> out,
                        ProjectionScratch& scratch) const;

  /// Projects a window that is already downsampled: `downsampled` holds
  /// downsampled_window() averaged codes, as project_int_into leaves them
  /// in its scratch. project_int_into is the downsample and then this, so
  /// the two agree bit for bit on the same window.
  void project_downsampled_into(std::span<const dsp::Sample> downsampled,
                                std::span<std::int32_t> out) const;

  /// Batch form: `windows` holds `count` windows of expected_window()
  /// samples each, concatenated; `out` receives count x coefficients()
  /// values, row-major, each row equal to project_int_into of its window.
  /// No per-beat heap allocation: the only buffer is scratch.downsampled,
  /// reused across beats.
  void project_int_batch(std::span<const dsp::Sample> windows,
                         std::size_t count, std::span<std::int32_t> out,
                         ProjectionScratch& scratch) const;

  const TernaryMatrix& matrix() const { return dense_; }
  const PackedTernaryMatrix& packed() const { return packed_; }

 private:
  TernaryMatrix dense_;
  PackedTernaryMatrix packed_;
  // Runtime execution format: per-row +1/-1 index lists built once from the
  // dense matrix. dense_ stays the train-time form, packed_ the
  // storage/serialization form; both projection calls execute from sparse_.
  kernels::SparseTernary sparse_;
  std::size_t downsample_ = 1;
};

}  // namespace hbrp::rp
