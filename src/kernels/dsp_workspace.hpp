// Per-thread workspace for the streaming DSP stages.
//
// kernels::BlockConditioner and core::StreamingBeatMonitor need large
// intermediates — the conditioning chain's ping-pong buffers over the
// history window, and the peak detector's decomposition, envelopes and
// candidate lists over a whole analysis chunk — but only inside one kernel
// call. A conditioner batch is conditioned here and copied out to the
// caller; a scan detects here and leaves only its peak list in the monitor;
// no sink callback runs while the workspace is live. So every conditioner
// and monitor on a thread borrows this one workspace instead of holding its
// own copy, and per-stream memory is the stream's real state (history,
// pending batch, rolling buffer). A workspace is thread_local, so streams
// share it only one call after another, e.g. the sessions of a fleet shard,
// which one thread pumps.
//
// A thread's workspace keeps the capacity of the largest block it has
// processed: a conditioner fed one 10-minute push_block leaves that much
// behind until the thread exits. The production paths (gateway, fleet,
// node client) feed packets of at most 512 samples, so their workspace
// stays at the default-config size: ~85 KB at 360 Hz, the detector over an
// 8 s chunk plus the conditioner (86,864 B measured by
// Footprint.ThreadWorkspaceAtDefaultConfig; 1 KB = 1024 bytes).
#pragma once

#include "dsp/signal.hpp"
#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"

namespace hbrp::kernels {

struct DspWorkspace {
  ConditionScratch condition;  ///< condition_ecg_block intermediates
  dsp::Signal window;          ///< BlockConditioner: history + pending batch
  dsp::Signal window_out;      ///< BlockConditioner: conditioned window
  PeakScratch peaks;           ///< detector intermediates (monitor scans)
};

/// The calling thread's workspace, created on first use and freed at
/// thread exit. Its contents are scratch that any streaming stage on the
/// thread may overwrite: use them within one call, never across a sink.
DspWorkspace& thread_workspace();

}  // namespace hbrp::kernels
