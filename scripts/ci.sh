#!/usr/bin/env bash
# Full CI sweep: tier-1 build + tests, then the sanitizer matrix.
#
#   1. default (Release) build with warnings as errors (-DHBRP_WERROR=ON),
#      a check that no ctest name prints a parameter's raw bytes, the
#      full ctest suite — the tier-1 gate — then
#      the DSP kernel-equivalence subset re-run under HBRP_FORCE_SCALAR=1,
#      so the scalar halves of the block kernels are gated even on AVX2
#      hosts, then the integer-only gate: scripts/fp_free_check.py
#      disassembles the Release static libraries and fails when one of the
#      node's listed per-sample and per-beat functions is missing or holds
#      a floating-point instruction (a tamper self-check first proves it
#      fails on detect_r_peaks_block, which still computes in double);
#   2. ASan + UBSan build (-DENABLE_SANITIZERS=ON), full ctest suite; a
#      UBSan report aborts its test (-fno-sanitize-recover=undefined);
#   3. TSan build (-DENABLE_TSAN=ON), full ctest suite — races in
#      core::Executor, the parallel GA fitness fan-out, the chunked metric
#      merges, the fleet engine's producer/pump concurrency, the
#      gateway/client loopback traffic and the per-thread DSP workspaces
#      would surface here;
#   4. fleet soak smoke: bench_fleet --quick --threads=0 — the
#      sessions x reactors scaling grid with its serial-vs-sharded
#      bit-identity gate (exits non-zero on any per-session sequence
#      divergence), then perf_gate.py compares its identity/speedup keys
#      against the committed BENCH_fleet.json (the full-run-only
#      fleet_widest_speedup key warn-skips on quick grids by design);
#   5. fault-replay smoke: holter_monitor 0.5 feeds a bare monitor a
#      record with lead-off, saturation and a NaN burst, converting the
#      injector's doubles to ADC codes at its edge; the step fails unless
#      it exits 0 and its replay reports a nonzero non-finite count. Then
#      the gateway loopback soak smoke: gateway_ward (8 concurrent sensor
#      clients over real loopback TCP, one with an injected flaky
#      electrode; exits non-zero on an unclean close or a verdict sequence
#      gap), a fleet_server smoke (the example that snapshots live
#      sessions), bench_net --quick, whose stream runs gate wire verdicts
#      against direct in-process ingest bit-for-bit across the reactor
#      axis (plus the same perf_gate comparison vs BENCH_net.json, whose
#      identity keys are compared before any different-CPU skip; a tamper
#      self-check first proves a false identity_pass fails it), and
#      fleet_soak — 10k concurrent loopback sessions through a 2-reactor
#      gateway with a 512 MB peak-RSS ceiling. The telemetry JSON that
#      gateway_ward, fleet_server and fleet_soak print is parsed by
#      scripts/telemetry_json_check.py, which fails on invalid JSON or a
#      schema_version other than service::kTelemetrySchemaVersion;
#   6. perf gate: a quick bench_microkernels pass compared against the
#      committed BENCH_microkernels.json by scripts/perf_gate.py — fails on
#      >15% per-op CPU-time regression (tolerance doubled on virtualized
#      hosts, skipped outright when the CPU model is unknown or differs
#      from the baseline's). One retry absorbs a noisy first pass. Before
#      it, a list-only bench_microkernels run in an empty temporary
#      directory must leave no BENCH_*.json there (a report of no timings
#      at the default path would overwrite the committed baseline);
#   7. robustness gate: a quick bench_scenarios pass (adversarial ward
#      suite replayed direct + over chaotic loopback TCP) compared against
#      the committed BENCH_scenarios.json by scripts/robustness_gate.py —
#      fails when AAMI NDR/ARR degrade, miss/false rates rise, or a
#      wire-identity/selective-integrity flag goes false. No retry: those
#      gated values are seeded and repeat exactly, so any drift in them is
#      a real behavior change. The selective bytes move with chaos timing
#      from run to run (up to ~22% over four runs of one binary) and only
#      warn; the chaos_* and uploads counters are not read. A tamper
#      self-check first asserts the gate actually fails on an injected
#      regression, so a silently broken gate cannot pass;
#   8. drift gate: a quick bench_drift pass (tracker cost, morphology-shift
#      detection latency, false-alarm sweep, thread/shard identity)
#      compared against the committed BENCH_drift.json by the same
#      robustness_gate.py (drift mode), with its own tamper self-check;
#   9. lifecycle gate: a quick bench_lifecycle pass (hot-swap verdict-split
#      identity across thread layouts, MODEL_PUSH throughput + corrupt-push
#      rejection, stage->apply swap latency, per-A/B-arm scenario metrics)
#      compared against the committed BENCH_lifecycle.json by the same
#      robustness_gate.py (lifecycle mode), with its own tamper self-check,
#      plus an ab_ward smoke run (the per-arm rollout report must build its
#      table and exit clean). Steps 7-9 share one function,
#      robustness_gate_step;
#  10. end-to-end benchmark: bench/e2e built on its own into build-e2e,
#      then its ctest — a tiny-budget smoke of every BENCHMARK.json
#      workload (each run checks its verdict streams against an in-process
#      oracle) and the tamper self-test.
#
# Usage: scripts/ci.sh [--skip-sanitizers]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SANITIZERS=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    *)
      echo "usage: scripts/ci.sh [--skip-sanitizers]" >&2
      exit 2
      ;;
  esac
done

run_suite() {
  local build_dir="$1"
  shift
  local cmake_flags=("$@")
  echo "==== configure ${build_dir} (${cmake_flags[*]:-default})"
  cmake -B "${build_dir}" -S . "${cmake_flags[@]}"
  echo "==== build ${build_dir}"
  cmake --build "${build_dir}" -j
}

# --- 1. tier-1: default build + full suite --------------------------------
run_suite build -DHBRP_WERROR=ON
# A ctest name must not carry a parameter's raw bytes: gtest prints a struct
# without a PrintTo as "N-byte object <...>", pointers included, so the name
# would change from build to build.
echo "==== ctest names are stable (no raw parameter bytes)"
if ctest --test-dir build -N | grep -e '-byte object <'; then
  echo "ctest names above print raw parameter bytes; add a PrintTo" >&2
  exit 1
fi
ctest --test-dir build --output-on-failure -j

# --- 1a. DSP kernel equivalence, forced-scalar dispatch -------------------
# The full suite above already ran the KernelsDsp/Drift binaries under the
# default once-per-process dispatch (AVX2 where the host has it); this
# re-run pins the dispatcher to the scalar kernels so both code paths of
# every block DSP kernel are gated on every CI host. The
# drift suites ride along because the tracker consumes the projections the
# kernels produce — its digests must be dispatch-independent too — and so
# does Dataset, because build_dataset conditions and detects with the
# dispatched kernels and its pinned output digests must hold under both.
# TrainedBundleDigest pins a trained model, and training evaluates its MFs
# with the dispatched log_fuzzy_batch kernel. The Golden digests (block
# kernel output, delineation fiducials, fleet verdict stream, wire frames)
# must hold under both.
echo "==== DSP kernel equivalence under HBRP_FORCE_SCALAR=1"
HBRP_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure \
  -R 'KernelsDsp|ExtremumEquivalence|Drift|Lifecycle|Dataset|TrainedBundleDigest|Golden' -j

# --- 1a2. integer-only gate over the node's functions ---------------------
# The paper's node has no FPU. scripts/fp_free_check.py lists the streaming
# node's functions that compute in integers only today and fails when one
# is missing from the Release libraries or holds an SSE/AVX floating-point
# arithmetic, compare or convert instruction, or any x87 instruction.
# Self-check first: the detector still thresholds in double, so the gate
# must exit 1 (floating point found) on it.
fp_libs=(build/src/kernels/libhbrp_kernels.a build/src/rp/libhbrp_rp.a
  build/src/embedded/libhbrp_embedded.a build/src/net/libhbrp_net.a
  build/src/core/libhbrp_core.a build/src/delineation/libhbrp_delineation.a)
echo "==== integer-only gate self-check (must fail on detect_r_peaks_block)"
fp_rc=0
python3 scripts/fp_free_check.py --only detect_r_peaks_block "${fp_libs[@]}" \
  >/dev/null || fp_rc=$?
if [[ "${fp_rc}" -ne 1 ]]; then
  echo "integer-only gate self-check FAILED: exit ${fp_rc} on" \
    "detect_r_peaks_block, expected 1" >&2
  exit 1
fi
echo "==== integer-only gate (scripts/fp_free_check.py)"
python3 scripts/fp_free_check.py "${fp_libs[@]}"

# --- 1b. fleet soak smoke: scaling grid + bit-identity gate ---------------
# Quick-run reports stay under build/ so a CI pass never dirties the tree
# (the committed BENCH_*.json are full-run baselines, written deliberately).
echo "==== fleet soak smoke (bench_fleet --quick)"
./build/bench/bench_fleet --quick --threads=0 --json=build/BENCH_fleet_quick.json
echo "==== fleet gate (identity/speedup keys vs BENCH_fleet.json)"
# The quick grid deliberately omits the full-run fleet_widest_speedup key,
# so that comparison warn-skips; identity_pass is gated hard.
python3 scripts/perf_gate.py BENCH_fleet.json build/BENCH_fleet_quick.json

# --- 1c. fault replay + gateway loopback soak smoke -----------------------
# The examples' stdout is kept under build/ so what they print (the fault
# replay's counts, the telemetry JSON) can be checked.
echo "==== fault-replay smoke (holter_monitor: lead-off, saturation, NaN burst)"
./build/examples/holter_monitor 0.5 | tee build/holter_monitor.log
nonfinite=$(sed -n 's/^ *\([0-9][0-9]*\) non-finite samples rejected.*/\1/p' \
  build/holter_monitor.log)
if [[ -z "${nonfinite}" || "${nonfinite}" -eq 0 ]]; then
  echo "holter_monitor smoke FAILED: the fault replay reported no" \
    "non-finite samples" >&2
  exit 1
fi
echo "==== gateway soak smoke (gateway_ward: 8 clients + fault injection)"
./build/examples/gateway_ward 8 20 0 | tee build/gateway_ward.log
python3 scripts/telemetry_json_check.py build/gateway_ward.log \
  "Gateway stats:" "Fleet telemetry snapshot:"
echo "==== fleet collector smoke (fleet_server: 4 nodes, live snapshot)"
./build/examples/fleet_server 4 10 1 | tee build/fleet_server.log
python3 scripts/telemetry_json_check.py build/fleet_server.log \
  "Fleet telemetry snapshot:"
echo "==== net identity gate (bench_net --quick)"
./build/bench/bench_net --quick --threads=0 --json=build/BENCH_net_quick.json
# Self-check first: perf_gate.py compares identity keys before any
# different-CPU skip, so a copy of the report with identity_pass false
# must fail it on every host.
echo "==== net identity gate self-check (gate must fail on identity_pass=false)"
python3 - build/BENCH_net_quick.json build/BENCH_net_tampered.json <<'EOF2'
import json
import sys
src, dst = sys.argv[1:]
with open(src, encoding="utf-8") as f:
    report = json.load(f)
report["identity_pass"] = False
with open(dst, "w", encoding="utf-8") as f:
    json.dump(report, f)
EOF2
if python3 scripts/perf_gate.py BENCH_net.json build/BENCH_net_tampered.json \
    >/dev/null 2>&1; then
  echo "net identity gate self-check FAILED: tampered report passed" >&2
  exit 1
fi
python3 scripts/perf_gate.py BENCH_net.json build/BENCH_net_quick.json

# --- 1c2. 10k-session loopback soak smoke ---------------------------------
# Ramps 10k concurrent SensorNodeClients (2 s of signal each) against a
# 2-reactor gateway and fails on any unestablished node, unclean close,
# verdict gap, or a peak RSS above 512 MB. Where the host's hard fd limit
# cannot hold 2 fds per node the driver self-scales the node count down
# and says so — the pass criteria then apply to the scaled count.
echo "==== fleet soak smoke (fleet_soak: 10k sessions, RSS-capped)"
./build/examples/fleet_soak 10000 2 2 512 | tee build/fleet_soak.log
python3 scripts/telemetry_json_check.py build/fleet_soak.log "reactors:"

# --- 1d. perf gate: microkernels vs committed baseline --------------------
# A run that times nothing writes no report: listing the benchmarks from the
# repository root must not overwrite BENCH_microkernels.json.
echo "==== bench_microkernels --benchmark_list_tests writes no report"
list_dir=$(mktemp -d)
(cd "${list_dir}" &&
  "${OLDPWD}/build/bench/bench_microkernels" --benchmark_list_tests >/dev/null)
if compgen -G "${list_dir}/BENCH_*.json" >/dev/null; then
  echo "a list-only bench_microkernels run wrote a report:" \
    "${list_dir}"/BENCH_*.json >&2
  rm -rf "${list_dir}"
  exit 1
fi
rm -rf "${list_dir}"
echo "==== perf gate (bench_microkernels vs BENCH_microkernels.json)"
run_perf_gate() {
  ./build/bench/bench_microkernels --benchmark_min_time=0.05 \
    --json=build/BENCH_microkernels_fresh.json >/dev/null
  python3 scripts/perf_gate.py BENCH_microkernels.json \
    build/BENCH_microkernels_fresh.json
}
if ! run_perf_gate; then
  echo "==== perf gate failed; retrying once to rule out timing noise"
  run_perf_gate
fi

# --- 1e-1g. seeded robustness gates vs committed baselines ---------------
# Each step runs a quick bench pass, proves robustness_gate.py fails on a
# copy of that report with one key tampered (so a silently broken gate
# cannot pass), then gates the real report against the committed
# BENCH_<name>.json. No retry: what fails a gate is seeded and repeats
# exactly (scenarios: NDR/ARR, miss/false rates and the identity and
# selective_ok flags), so any drift in it is a real behavior change. The
# scenarios' selective bytes depend on chaos timing and only warn, and
# their chaos_* and uploads counters are not gated.
#   robustness_gate_step <name> <tampered key> <python expr of old value v>
robustness_gate_step() {
  local name="$1" key="$2" tamper="$3"
  local baseline="BENCH_${name}.json"
  local quick="build/BENCH_${name}_quick.json"
  local tampered="build/BENCH_${name}_tampered.json"
  echo "==== ${name} gate self-check (gate must fail on injected regression)"
  "./build/bench/bench_${name}" --quick --threads=0 --json="${quick}"
  python3 - "${quick}" "${tampered}" "${key}" "${tamper}" <<'EOF'
import json
import sys
src, dst, key, tamper = sys.argv[1:]
with open(src, encoding="utf-8") as f:
    report = json.load(f)
report[key] = eval(tamper, {"__builtins__": {}}, {"v": report[key]})
with open(dst, "w", encoding="utf-8") as f:
    json.dump(report, f)
EOF
  if python3 scripts/robustness_gate.py "${baseline}" "${tampered}" \
      >/dev/null 2>&1; then
    echo "${name} gate self-check FAILED: tampered report passed the gate" >&2
    exit 1
  fi
  echo "==== ${name} gate (bench_${name} vs ${baseline})"
  python3 scripts/robustness_gate.py "${baseline}" "${quick}"
}

# 1e. adversarial scenarios: AAMI NDR/ARR, miss/false rates, wire identity.
robustness_gate_step scenarios sc_sustained_vt_arr 'v - 0.10'
# 1f. morphology drift: detection latency, false alarms, layout identity.
robustness_gate_step drift drift_false_alarm_rate '0.5'
# 1g. lifecycle: hot-swap identity, MODEL_PUSH NACKs, per-arm metrics.
robustness_gate_step lifecycle lifecycle_identity_pass 'False'
echo "==== A/B rollout report smoke (ab_ward)"
./build/examples/ab_ward 8 50 42

# --- 1h. end-to-end benchmark: standalone build + smokes + self-test -----
# bench/e2e is a CMake project of its own (it pulls in the root project
# with tests, benches and examples off), so it is built here the way
# bench/e2e/run.py builds it. Its ctest runs every workload at a tiny
# budget, then the tamper self-test, which passes only when a run with one
# flipped reference verdict reports failures.
echo "==== bench_e2e standalone build"
cmake -S bench/e2e -B build-e2e -DCMAKE_BUILD_TYPE=Release
cmake --build build-e2e -j
echo "==== bench_e2e smokes + tamper self-test"
ctest --test-dir build-e2e --output-on-failure

if [[ "${SKIP_SANITIZERS}" -eq 1 ]]; then
  echo "==== sanitizer jobs skipped"
  exit 0
fi

# --- 2. ASan + UBSan ------------------------------------------------------
run_suite build-asan -DENABLE_SANITIZERS=ON
ctest --test-dir build-asan --output-on-failure -j

# --- 3. TSan: full suite --------------------------------------------------
run_suite build-tsan -DENABLE_TSAN=ON
ctest --test-dir build-tsan --output-on-failure -j

echo "==== CI sweep complete"
