// scenario::runner — replays a compiled scenario through the system's two
// ingest paths and scores the outcome against AAMI-class ground truth.
//
// Paths:
//   run_direct  the reference: sanitize the scenario's double stream with
//               the exact node-boundary rule, offer the codes straight
//               into a FleetEngine session, pump to completion. No
//               sockets; deterministic for any thread/shard count.
//   run_wire    the deployment path: SensorNodeClient -> (optional
//               ChaosProxy) -> GatewayServer over loopback, gateway and
//               proxy each on their own serve() thread, the client driven
//               by the caller. StreamEverything returns the gateway's
//               verdict stream (bit-identical to run_direct when the
//               chaos is lossless); Selective returns the upload-verdict
//               stream plus the node's local log.
//
// Scoring maps each delivered verdict to the nearest truth beat within a
// tolerance window and fills a core::AamiConfusion, from which the
// paper-level NDR/ARR plus miss/false rates fall out. Truth beats flagged
// `obscured` (inside a lead-off flat-line) are excluded from the miss
// accounting: no detector can see them, so they would only add noise to
// the regression gate.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "embedded/bundle.hpp"
#include "net/client.hpp"
#include "scenario/chaos.hpp"
#include "scenario/episodes.hpp"

namespace hbrp::scenario {

/// One delivered verdict, normalized across paths for exact comparison.
struct Verdict {
  std::uint64_t seq = 0;
  std::uint64_t r_peak = 0;
  std::uint8_t beat_class = 0;  ///< ecg::BeatClass
  std::uint8_t quality = 0;     ///< dsp::SignalQuality
  bool operator==(const Verdict&) const = default;
};

std::vector<Verdict> run_direct(const embedded::EmbeddedClassifier& clf,
                                const ScenarioStream& stream,
                                std::size_t threads = 1,
                                std::size_t shards = 1);

struct WireRunResult {
  std::vector<Verdict> verdicts;
  net::TxStats tx;
  std::vector<std::uint8_t> local_log;  ///< selective: 1-byte beat records
  std::uint64_t gateway_upload_dups = 0;  ///< re-verdicted duplicate uploads
  std::uint64_t gateway_drift_escalations = 0;  ///< unique, dedup-guarded
  std::uint64_t chaos_kills = 0;
  std::uint64_t chaos_bit_flips = 0;
  /// Client drained (all uploads verdict-confirmed) and closed cleanly.
  bool completed = false;
};

/// `chaos` = nullptr wires the client straight to the gateway. With chaos,
/// cfg.upstream_port is filled in by the runner. `drain_budget_ms` bounds
/// the retransmission endgame under connection-killing chaos.
/// `node_template`, when given, seeds the client's NodeConfig (drift
/// escalation, monitor geometry, buffer caps...) — the runner still
/// overwrites port and policy.
WireRunResult run_wire(const embedded::EmbeddedClassifier& clf,
                       const ScenarioStream& stream, net::TxPolicy policy,
                       const ChaosConfig* chaos = nullptr,
                       std::size_t threads = 1, std::size_t shards = 1,
                       int drain_budget_ms = 30000,
                       const net::NodeConfig* node_template = nullptr);

/// AAMI-class outcome of one verdict stream against one truth track.
struct ScenarioScore {
  core::AamiConfusion confusion;
  std::size_t truth_beats = 0;
  std::size_t obscured = 0;        ///< truth inside lead-off (not scored)
  std::size_t matched = 0;
  std::size_t missed = 0;          ///< unobscured truth with no verdict
  std::size_t false_detections = 0;
  double ndr = 0.0;   ///< confusion.ndr(): normal kept normal
  double arr = 0.0;   ///< confusion.arr(): abnormal recognized (miss-aware)
  double miss_rate = 0.0;   ///< missed / (truth_beats - obscured)
  double false_rate = 0.0;  ///< false_detections / verdicts
};

ScenarioScore score_verdicts(const ScenarioStream& stream,
                             const std::vector<Verdict>& verdicts,
                             double tolerance_s = 0.15);

}  // namespace hbrp::scenario
