#include "kernels/dsp_condition.hpp"

#include <algorithm>

#include "kernels/dsp_workspace.hpp"
#include "math/check.hpp"

namespace hbrp::kernels {

namespace {

using dsp::Sample;
using dsp::Signal;

template <bool IsMin>
inline Sample op2(Sample a, Sample b) {
  if constexpr (IsMin)
    return a < b ? a : b;
  else
    return a > b ? a : b;
}

// Edge-replicated padded copy q[j] = x[clamp(j - h, 0, n - 1)], j in [0, N).
void build_padded(const Sample* x, std::size_t n, std::size_t h,
                  Signal& padded) {
  padded.resize(n + 2 * h);
  std::fill_n(padded.data(), h, x[0]);
  std::copy_n(x, n, padded.data() + h);
  std::fill_n(padded.data() + h + n, h, x[n - 1]);
}

// van Herk–Gil-Werman sliding extremum over a centred window of odd length
// L: partition the padded signal into blocks of L, compute a suffix scan S
// (extremum from j to its block's end) and a prefix scan R (extremum from
// its block's start to j); the window [c, c + L - 1] straddles at most one
// block boundary, so out[c] = op(S[c], R[c + L - 1]) — three comparisons
// per sample however long the structuring element is. min/max over the same
// window is exact, so this is bit-identical to the monotonic-deque form in
// dsp/morphology.cpp.
template <bool IsMin>
void hgw_extremum(const Sample* x, std::size_t n, std::size_t L,
                  SimdLevel level, ConditionScratch& scr, Sample* out) {
  if (n == 0) return;
  if (L == 1) {
    if (out != x) std::copy_n(x, n, out);
    return;
  }
  if (L == 3) {
    // The noise element is this short at every supported rate; a direct
    // 3-tap pass over the unpadded input (border replication folds into
    // 2-tap ends) beats the two scans. Requires out != x — the chain
    // always ping-pongs between distinct scratch buffers.
    if (n == 1) {
      out[0] = x[0];
      return;
    }
#if HBRP_KERNELS_X86
    if (level == SimdLevel::Avx2) {
      detail::extremum3_avx2(x, n, IsMin, out);
      return;
    }
#endif
    (void)level;
    out[0] = op2<IsMin>(x[0], x[1]);
    for (std::size_t i = 1; i + 1 < n; ++i)
      out[i] = op2<IsMin>(op2<IsMin>(x[i - 1], x[i]), x[i + 1]);
    out[n - 1] = op2<IsMin>(x[n - 2], x[n - 1]);
    return;
  }

  const std::size_t h = L / 2;
  build_padded(x, n, h, scr.padded);
  const std::size_t N = n + 2 * h;

  // Prefix scan R into scr.prefix (reads the untouched padded values),
  // restarting at every block boundary, then suffix scan S in place over
  // padded. Block-at-a-time loops keep the inner scans branch-free (no
  // per-sample modulo); the AVX2 forms run the same exact min/max scan as
  // a log-step shift network.
  scr.prefix.resize(N);
#if HBRP_KERNELS_X86
  if (level == SimdLevel::Avx2) {
    detail::prefix_scan_blocks_avx2(scr.padded.data(), N, L, IsMin,
                                    scr.prefix.data());
    detail::suffix_scan_blocks_avx2(scr.padded.data(), N, L, IsMin);
  } else
#endif
  {
    {
      const Sample* q = scr.padded.data();
      Sample* r = scr.prefix.data();
      for (std::size_t b = 0; b < N; b += L) {
        const std::size_t end = std::min(N, b + L);
        Sample run = q[b];
        r[b] = run;
        for (std::size_t j = b + 1; j < end; ++j) {
          run = op2<IsMin>(run, q[j]);
          r[j] = run;
        }
      }
    }
    {
      Sample* q = scr.padded.data();
      for (std::size_t b = 0; b < N; b += L) {
        const std::size_t end = std::min(N, b + L);
        for (std::size_t j = end - 1; j-- > b;)
          q[j] = op2<IsMin>(q[j], q[j + 1]);
      }
    }
  }
  // Merge: out[c] = op(S[c], R[c + L - 1]).
  const Sample* s = scr.padded.data();
  const Sample* r = scr.prefix.data() + (L - 1);
#if HBRP_KERNELS_X86
  if (level == SimdLevel::Avx2) {
    detail::merge_extremum_avx2(s, r, n, IsMin, out);
    return;
  }
#endif
  for (std::size_t c = 0; c < n; ++c) out[c] = op2<IsMin>(s[c], r[c]);
}

void subtract(const Sample* a, const Sample* b, std::size_t n, Sample* out,
              SimdLevel level) {
#if HBRP_KERNELS_X86
  if (level == SimdLevel::Avx2) {
    detail::subtract_avx2(a, b, n, out);
    return;
  }
#endif
  (void)level;
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<Sample>(a[i] - b[i]);
}

void average_round(const Sample* a, const Sample* b, std::size_t n,
                   Sample* out, SimdLevel level) {
#if HBRP_KERNELS_X86
  if (level == SimdLevel::Avx2) {
    detail::average_round_avx2(a, b, n, out);
    return;
  }
#endif
  (void)level;
  // Round-to-nearest average, same arithmetic-shift form as
  // dsp::suppress_noise: the sum is taken in int, so it cannot overflow,
  // and the average of two Samples is a Sample.
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<Sample>((a[i] + b[i] + 1) >> 1);
}

void check_config(const dsp::FilterConfig& cfg) {
  HBRP_REQUIRE(cfg.baseline_open_len % 2 == 1 &&
                   cfg.baseline_close_len % 2 == 1 && cfg.noise_len % 2 == 1,
               "condition_ecg_block(): element lengths must be odd");
  HBRP_REQUIRE(cfg.baseline_open_len < cfg.baseline_close_len,
               "condition_ecg_block(): baseline opening element must be "
               "shorter than closing one");
}

void condition_impl(const Signal& x, const dsp::FilterConfig& cfg,
                    SimdLevel level, ConditionScratch& scr, Signal& out) {
  check_config(cfg);
  const std::size_t n = x.size();
  out.resize(n);
  if (n == 0) return;
  const std::size_t open_len = cfg.baseline_open_len;
  const std::size_t close_len = cfg.baseline_close_len;
  const std::size_t noise_len = cfg.noise_len;

  auto mn = [&](const Signal& in, std::size_t len, Signal& o) {
    o.resize(in.size());
    hgw_extremum<true>(in.data(), in.size(), len, level, scr, o.data());
  };
  auto mx = [&](const Signal& in, std::size_t len, Signal& o) {
    o.resize(in.size());
    hgw_extremum<false>(in.data(), in.size(), len, level, scr, o.data());
  };

  // Baseline estimate: close(open(x, open_len), close_len).
  mn(x, open_len, scr.stage_a);
  mx(scr.stage_a, open_len, scr.stage_b);
  mx(scr.stage_b, close_len, scr.stage_a);
  mn(scr.stage_a, close_len, scr.baseline);

  // z = x - baseline.
  scr.z.resize(n);
  subtract(x.data(), scr.baseline.data(), n, scr.z.data(), level);

  // oc = open(close(z)) = dilate(erode(erode(dilate(z)))).
  mx(scr.z, noise_len, scr.stage_a);
  mn(scr.stage_a, noise_len, scr.stage_b);
  mn(scr.stage_b, noise_len, scr.stage_a);
  mx(scr.stage_a, noise_len, scr.oc);

  // co = close(open(z)) = erode(dilate(dilate(erode(z)))).
  mn(scr.z, noise_len, scr.stage_a);
  mx(scr.stage_a, noise_len, scr.stage_b);
  mx(scr.stage_b, noise_len, scr.stage_a);
  mn(scr.stage_a, noise_len, scr.co);

  average_round(scr.oc.data(), scr.co.data(), n, out.data(), level);
}

}  // namespace

void erode_block(const Signal& x, std::size_t length, ConditionScratch& scr,
                 Signal& out) {
  HBRP_REQUIRE(length >= 1 && length % 2 == 1,
               "erode_block(): length must be odd and >= 1");
  out.resize(x.size());
  hgw_extremum<true>(x.data(), x.size(), length, active_level(), scr,
                     out.data());
}

void dilate_block(const Signal& x, std::size_t length, ConditionScratch& scr,
                  Signal& out) {
  HBRP_REQUIRE(length >= 1 && length % 2 == 1,
               "dilate_block(): length must be odd and >= 1");
  out.resize(x.size());
  hgw_extremum<false>(x.data(), x.size(), length, active_level(), scr,
                      out.data());
}

void condition_ecg_block(const Signal& x, const dsp::FilterConfig& cfg,
                         ConditionScratch& scratch, Signal& out) {
  condition_impl(x, cfg, active_level(), scratch, out);
}

void condition_ecg_block_scalar(const Signal& x, const dsp::FilterConfig& cfg,
                                ConditionScratch& scratch, Signal& out) {
  condition_impl(x, cfg, SimdLevel::Scalar, scratch, out);
}

#if HBRP_KERNELS_X86
void condition_ecg_block_avx2(const Signal& x, const dsp::FilterConfig& cfg,
                              ConditionScratch& scratch, Signal& out) {
  condition_impl(x, cfg, SimdLevel::Avx2, scratch, out);
}
#endif

BlockConditioner::BlockConditioner(const dsp::FilterConfig& cfg) : cfg_(cfg) {
  check_config(cfg);
  delay_ = (cfg.baseline_open_len - 1) + (cfg.baseline_close_len - 1) +
           2 * (cfg.noise_len - 1);
  history_.reserve(2 * delay_);
  pending_.reserve(kMinBatch);
}

void BlockConditioner::push(dsp::Sample x, Signal& out) {
  pending_.push_back(x);
  if (pending_.size() >= kMinBatch) process_pending(out);
}

void BlockConditioner::push_block(std::span<const Sample> xs, Signal& out) {
  pending_.insert(pending_.end(), xs.begin(), xs.end());
  if (pending_.size() >= kMinBatch) process_pending(out);
}

void BlockConditioner::sync(Signal& out) {
  if (!pending_.empty()) process_pending(out);
}

void BlockConditioner::process_pending(Signal& out) {
  const std::uint64_t total = consumed_ + pending_.size();
  // Condition over the raw history plus the new batch. Every output of
  // index a in [emitted_, total - delay_) reads inputs [a - delay_,
  // a + delay_], and the window keeps 2*delay_ samples of left context, so
  // those outputs never see the window's replicated left border: each one
  // is bit-identical to conditioning the whole stream from sample 0. The
  // window and its output live in the thread's workspace and are dead once
  // the new outputs are copied into `out`.
  DspWorkspace& ws = thread_workspace();
  ws.window.clear();
  ws.window.insert(ws.window.end(), history_.begin(), history_.end());
  ws.window.insert(ws.window.end(), pending_.begin(), pending_.end());
  const std::uint64_t w0 = total - ws.window.size();
  condition_ecg_block(ws.window, cfg_, ws.condition, ws.window_out);
  const std::uint64_t new_emit = total > delay_ ? total - delay_ : 0;
  if (new_emit > emitted_) {
    const auto lo = static_cast<std::ptrdiff_t>(emitted_ - w0);
    const auto hi = static_cast<std::ptrdiff_t>(new_emit - w0);
    out.insert(out.end(), ws.window_out.begin() + lo,
               ws.window_out.begin() + hi);
    emitted_ = new_emit;
  }
  history_.insert(history_.end(), pending_.begin(), pending_.end());
  if (history_.size() > 2 * delay_)
    history_.erase(history_.begin(),
                   history_.end() - static_cast<std::ptrdiff_t>(2 * delay_));
  consumed_ = total;
  pending_.clear();
}

void BlockConditioner::flush_tail(Signal& out) {
  if (!pending_.empty()) process_pending(out);
  if (consumed_ > emitted_) {
    // The final window's batch right border replicates the last sample —
    // exactly the tail dsp::condition_ecg() ends the whole record with.
    DspWorkspace& ws = thread_workspace();
    ws.window.assign(history_.begin(), history_.end());
    const std::uint64_t w0 = consumed_ - ws.window.size();
    condition_ecg_block(ws.window, cfg_, ws.condition, ws.window_out);
    const auto lo = static_cast<std::ptrdiff_t>(emitted_ - w0);
    out.insert(out.end(), ws.window_out.begin() + lo, ws.window_out.end());
  }
  reset();
}

void BlockConditioner::reset() {
  history_.clear();
  pending_.clear();
  consumed_ = 0;
  emitted_ = 0;
}

}  // namespace hbrp::kernels
