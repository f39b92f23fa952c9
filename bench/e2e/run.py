#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of it.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve from this file. The build goes to
$CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e, relative to the
repository root) and is reused by later runs. bench_e2e's own output goes to
stderr; the last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": X, "unit": "<unit>"}, ...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer
metric (--trace 1). Exits non-zero, printing no result, when the sources
cannot be built or the benchmark produced no report.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_TIMEOUT_S = 700  # + RUN_TIMEOUT_S stays within a 900 s first run
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "bench_e2e"


def build(bdir):
    """Configures (once) and builds the bench_e2e target; the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources missing under {ROOT / 'src'}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(bdir), "--target", "bench_e2e", "-j", "4"],
        stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - time.monotonic()))
    return bdir / "bench_e2e"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        log(f"run.py: build failed: {e}")
        return 1

    runs = bdir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    report_path = runs / f"{stem}.json"
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--json={report_path}"]
    if args.trace:
        cmd.append(f"--trace={runs / (stem + '.trace.json')}")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: bench_e2e did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if not report_path.is_file():
        log(f"run.py: bench_e2e exited {proc.returncode} without a report")
        return 1
    report = json.loads(report_path.read_text(encoding="utf-8"))

    # Every run measures all "metric." keys; the ledger's "layer." keys come
    # with --trace. BENCHMARK.json gates some "metric." keys and lists the
    # unsteady ones as per-layer keys.
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        key = next((p + name for p in ("metric.", "layer.")
                    if p + name in report), None)
        unit = report.get("unit." + name)
        if key is None or unit != m["unit"]:
            log(f"run.py: report lacks {name} in {m['unit']} (got {unit!r})")
            return 1
        metrics[name] = {"value": report[key], "unit": unit}
    print(json.dumps({
        "correct": bool(report["correct"]) and proc.returncode == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
