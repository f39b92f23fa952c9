// Block-mode ECG conditioning: the dsp/morphology chain as SoA kernels.
//
// dsp::condition_ecg walks a monotonic deque one sample at a time — ~108 ns
// per sample on the committed baseline, which bounds samples/s/core for the
// whole fleet gateway. This module re-states the same chain as whole-array
// passes: each erosion/dilation runs as a van Herk–Gil-Werman (HGW) sliding
// extremum (one suffix scan, one prefix scan, one merge — 3 comparisons per
// sample independent of the element length), and the pointwise subtract /
// round-to-nearest average steps become flat array loops the AVX2 TU
// vectorizes 16 int16 lanes at a time.
//
// Contract: condition_ecg_block() is bit-identical to dsp::condition_ecg()
// for every input (min/max over the same windows with the same replicated
// borders is exact integer arithmetic — there is no floating-point anywhere
// in the chain), and the scalar/AVX2 forms are bit-identical to each other,
// so kernels::active_level() / HBRP_FORCE_SCALAR=1 can never change a
// conditioned sample. tests/test_kernels_dsp.cpp gates both claims.
//
// BlockConditioner is the streaming wrapper the beat monitor uses: it
// accepts samples in arbitrary-sized pushes, defers them into a pending
// batch, and runs the block kernel over a bounded history window whenever
// enough samples accumulate. Once flush_tail() has run, the samples it
// emitted are exactly dsp::condition_ecg() of everything pushed, borders
// included, whatever the push/push_block/sync partition — with a fixed
// group delay and bounded memory. It keeps only the raw history and the
// pending batch; each batch is conditioned in the calling thread's
// DspWorkspace (dsp_workspace.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/morphology.hpp"
#include "dsp/signal.hpp"
#include "kernels/cpu.hpp"

namespace hbrp::kernels {

/// Reusable workspace for the block conditioning chain (no allocation in
/// steady state once the vectors have grown to the record size).
struct ConditionScratch {
  dsp::Signal padded;   ///< edge-replicated input + in-place suffix scan
  dsp::Signal prefix;   ///< HGW prefix scan
  dsp::Signal stage_a;  ///< ping buffer between morphology stages
  dsp::Signal stage_b;  ///< pong buffer
  dsp::Signal baseline; ///< close(open(x)) baseline estimate
  dsp::Signal z;        ///< baseline-removed signal
  dsp::Signal oc;       ///< open(close(z)) noise branch
  dsp::Signal co;       ///< close(open(z)) noise branch
};

/// Sliding-window minimum over a centred window of odd `length`, replicated
/// borders — bit-identical to dsp::erode(). Dispatches scalar/AVX2.
void erode_block(std::span<const dsp::Sample> x, std::size_t length,
                 ConditionScratch& scratch, dsp::Signal& out);

/// Sliding-window maximum, same conventions — bit-identical to dsp::dilate().
void dilate_block(std::span<const dsp::Sample> x, std::size_t length,
                  ConditionScratch& scratch, dsp::Signal& out);

/// Full conditioning chain (baseline removal + impulsive-noise suppression),
/// bit-identical to dsp::condition_ecg(x, cfg). Dispatches scalar/AVX2 once
/// per process via kernels::active_level().
void condition_ecg_block(const dsp::Signal& x, const dsp::FilterConfig& cfg,
                         ConditionScratch& scratch, dsp::Signal& out);
void condition_ecg_block_scalar(const dsp::Signal& x,
                                const dsp::FilterConfig& cfg,
                                ConditionScratch& scratch, dsp::Signal& out);
#if HBRP_KERNELS_X86
void condition_ecg_block_avx2(const dsp::Signal& x,
                              const dsp::FilterConfig& cfg,
                              ConditionScratch& scratch, dsp::Signal& out);
#endif

namespace detail {
#if HBRP_KERNELS_X86
// Low-level vector passes living in the -mavx2 TU. Each executes the same
// integer operation sequence as its scalar counterpart (min/max are exact, a
// subtraction wraps mod 2^16 in both, the rounded average cannot overflow),
// so results are bit-identical for every int16 input.
void merge_extremum_avx2(const dsp::Sample* suffix, const dsp::Sample* prefix,
                         std::size_t n, bool is_min, dsp::Sample* out);
void prefix_scan_blocks_avx2(const dsp::Sample* q, std::size_t total,
                             std::size_t block_len, bool is_min,
                             dsp::Sample* out);
void suffix_scan_blocks_avx2(dsp::Sample* q, std::size_t total,
                             std::size_t block_len, bool is_min);
void extremum3_avx2(const dsp::Sample* padded, std::size_t n, bool is_min,
                    dsp::Sample* out);
void subtract_avx2(const dsp::Sample* a, const dsp::Sample* b, std::size_t n,
                   dsp::Sample* out);
void average_round_avx2(const dsp::Sample* a, const dsp::Sample* b,
                        std::size_t n, dsp::Sample* out);
#endif
}  // namespace detail

/// Streaming wrapper over the block kernel: output index i is released once
/// input i + `delay()` has arrived, and `flush_tail()` finishes the right
/// border, so the full output is dsp::condition_ecg() of the full input —
/// amortized through condition_ecg_block over a bounded history window.
///
/// Usage: call push()/push_block() freely; conditioned samples are appended
/// to `out` in order, possibly in bursts (the conditioner defers work until
/// a batch is worth processing). sync() forces everything already pushed
/// through — after it, all outputs up to (inputs - delay()) have been
/// appended. flush_tail() emits the remaining delay() border outputs with
/// batch right-edge semantics and resets the conditioner.
class BlockConditioner {
 public:
  explicit BlockConditioner(const dsp::FilterConfig& cfg = {});

  /// Feeds one raw sample; appends zero or more conditioned samples.
  void push(dsp::Sample x, dsp::Signal& out);

  /// Feeds a whole block; appends zero or more conditioned samples.
  void push_block(std::span<const dsp::Sample> xs, dsp::Signal& out);

  /// Processes everything pending: afterwards every output of index
  /// < inputs - delay() has been appended, and no other.
  void sync(dsp::Signal& out);

  /// Emits the final delay() outputs (right border, replicating the last
  /// input as the batch operator does) and resets. Pending samples are
  /// sync()ed through first.
  void flush_tail(dsp::Signal& out);

  /// Drops all state (history, pending, counters) without emitting.
  void reset();

  /// Fixed input-to-output group delay in samples: the summed half-widths
  /// of the chain's eight morphology stages, (open - 1) + (close - 1) +
  /// 2 * (noise - 1).
  std::size_t delay() const { return delay_; }

  /// Worst-case extra latency on top of delay(): outputs may be withheld
  /// until a batch fills.
  std::size_t batch_slack() const { return kMinBatch - 1; }

  /// Upper bound on the samples this conditioner holds between calls
  /// (history window + pending batch). The conditioning intermediates are
  /// not in it: they live in the calling thread's kernels::DspWorkspace
  /// (dsp_workspace.hpp), which every conditioner and monitor on that
  /// thread shares.
  std::size_t memory_samples() const { return 2 * delay_ + kMinBatch; }

 private:
  void process_pending(dsp::Signal& out);

  // Smallest batch worth paying the 2*delay() history re-scan for: at 256
  // the amortized window/batch ratio is < 2.8x even for the default 224-
  // sample delay, and pump-sized blocks (thousands of samples) approach 1x.
  static constexpr std::size_t kMinBatch = 256;

  dsp::FilterConfig cfg_;
  std::size_t delay_ = 0;
  std::vector<dsp::Sample> history_;  ///< last <= 2*delay_ consumed samples
  std::vector<dsp::Sample> pending_;  ///< accepted, not yet processed
  std::uint64_t consumed_ = 0;        ///< samples moved into history_
  std::uint64_t emitted_ = 0;         ///< conditioned samples appended
};

}  // namespace hbrp::kernels
