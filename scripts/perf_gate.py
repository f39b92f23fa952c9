#!/usr/bin/env python3
"""CI perf-regression gate over the committed micro-benchmark baseline.

Usage: perf_gate.py BASELINE_JSON FRESH_JSON [--tolerance=0.15]

Compares every ``*_ns_per_op`` key the two reports share (per-op CPU time,
written by bench_microkernels --json=...) and fails when any fresh number is
more than ``tolerance`` slower than the committed baseline.

Also gated, with the same warn-skip policy for missing keys:
  - ``*_speedup`` keys (higher is better — parallel/SIMD speedup ratios,
    e.g. bench_fleet's ``fleet_widest_speedup``): a regression is a fresh
    value below baseline*(1 - tol), where tol is floored at 50% because
    speedups fold in scheduler and core-count noise that per-op CPU time
    does not;
  - ``*identity_pass`` booleans (bit-identity gates): FAIL if the baseline
    says true and the fresh run says false — determinism is never allowed
    to regress, whatever the timing noise.

Comparability rules (the gate must never fail on numbers that were never
comparable in the first place):
  - the identity booleans do not depend on the host, so they are compared
    first, on any machine;
  - if either report's ``cpu_model`` is missing or "unknown", or the two
    models differ, the timing comparison SKIPS (exit 0 unless an identity
    gate failed) with a clear message — a baseline recorded on one machine
    says nothing about another;
  - if either report says ``virtualized: true`` the tolerance is doubled and
    a notice is printed — VM timing is noisy even for CPU time;
  - keys present in only one report are listed but never fatal, so adding or
    retiring a benchmark (or a quick run that intentionally omits full-grid
    keys) does not require regenerating the baseline in the same commit.

Exit codes: 0 pass/skip, 1 regression, 2 usage or unreadable input.
"""

import json
import sys

DEFAULT_TOLERANCE = 0.15


def load_report(path):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"perf_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"perf_gate: {path} is valid JSON but not an object "
              f"(got {type(data).__name__}); not a bench report",
              file=sys.stderr)
        sys.exit(2)
    return data


def compare_identities(base, fresh):
    """Compares every shared ``*identity_pass`` boolean pair.

    Returns (compared keys, keys whose true baseline turned false)."""
    compared, broken = [], []
    for key in sorted(k for k in base if k.endswith("identity_pass")):
        if key not in fresh:
            print(f"perf_gate: WARNING — identity key {key} missing from "
                  "fresh run, skipped")
            continue
        b, f = base[key], fresh[key]
        if not (isinstance(b, bool) and isinstance(f, bool)):
            print(f"perf_gate: WARNING — {key} is not a boolean pair "
                  f"({b!r} vs {f!r}), skipped")
            continue
        compared.append(key)
        marker = ""
        if b and not f:
            broken.append(key)
            marker = "  <-- IDENTITY BROKEN"
        print(f"  {key:<40} {str(b):>12} -> {str(f):>12}{marker}")
    return compared, broken


def main(argv):
    tolerance = DEFAULT_TOLERANCE
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            try:
                tolerance = float(arg.split("=", 1)[1])
            except ValueError:
                print(f"perf_gate: bad value in '{arg}'", file=sys.stderr)
                return 2
            if not 0.0 < tolerance < 10.0:
                print(f"perf_gate: tolerance out of range in '{arg}'",
                      file=sys.stderr)
                return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2

    base = load_report(paths[0])
    fresh = load_report(paths[1])

    # Bit-identity booleans: a true baseline must never turn false, on any
    # host — so this runs before the machine-comparability skip below.
    identities, identity_failures = compare_identities(base, fresh)
    if identity_failures:
        print(f"\nperf_gate: FAIL — bit-identity regressed on: "
              f"{', '.join(identity_failures)}\n"
              "A true baseline identity gate turned false; this is a "
              "determinism bug, not timing noise — fix it, do not "
              "regenerate the baseline.")
        return 1

    base_cpu = base.get("cpu_model", "unknown")
    fresh_cpu = fresh.get("cpu_model", "unknown")
    if base_cpu == "unknown" or fresh_cpu == "unknown":
        print("perf_gate: SKIP timings — cpu_model unknown "
              f"(baseline: '{base_cpu}', fresh: '{fresh_cpu}'); "
              "numbers are not comparable on an unidentified machine "
              f"({len(identities)} identity key(s) gated)")
        return 0
    if base_cpu != fresh_cpu:
        print("perf_gate: SKIP timings — baseline was recorded on a "
              f"different CPU ({len(identities)} identity key(s) gated)\n"
              f"  baseline: {base_cpu}\n  fresh:    {fresh_cpu}")
        return 0

    if base.get("virtualized") or fresh.get("virtualized"):
        tolerance *= 2.0
        print(f"perf_gate: virtualized host — tolerance widened to "
              f"{tolerance:.0%}")

    # Warn-skips accumulated across every shared_keys()/comparable() call,
    # summarized once at exit so a partial run's coverage gap is visible in
    # one line instead of scattered warnings.
    skipped = {"missing": 0, "incomparable": 0}

    def shared_keys(suffix):
        keys = sorted(k for k in base if k.endswith(suffix))
        in_both = [k for k in keys if k in fresh]
        only_base = [k for k in keys if k not in fresh]
        only_fresh = sorted(k for k in fresh
                            if k.endswith(suffix) and k not in base)
        if only_base:
            # Warn-and-skip, never fail: a quick/partial fresh run (or a
            # retired benchmark) legitimately lacks baseline keys.
            skipped["missing"] += len(only_base)
            print(f"perf_gate: WARNING — {len(only_base)} baseline key(s) "
                  f"missing from fresh run, skipped: {', '.join(only_base)}")
        if only_fresh:
            print(f"perf_gate: note — {len(only_fresh)} new key(s) not in "
                  f"baseline yet: {', '.join(only_fresh)}")
        return in_both

    def comparable(key, b, f):
        if isinstance(b, bool) or isinstance(f, bool) or not (
                isinstance(b, (int, float)) and isinstance(f, (int, float))
                and b > 0):
            skipped["incomparable"] += 1
            print(f"perf_gate: WARNING — {key} is not a comparable pair "
                  f"({b!r} vs {f!r}), skipped")
            return False
        return True

    shared = shared_keys("_ns_per_op")
    regressions = []
    for key in shared:
        b, f = base[key], fresh[key]
        if not comparable(key, b, f):
            continue
        ratio = f / b
        marker = ""
        if ratio > 1.0 + tolerance:
            regressions.append((key, b, f, ratio))
            marker = "  <-- REGRESSION"
        print(f"  {key:<40} {b:>12.1f} -> {f:>12.1f} ns/op "
              f"({ratio - 1.0:+7.1%}){marker}")

    # Speedup ratios: higher is better, tolerance floored at 50% (parallel
    # speedups carry scheduler/core-count noise per-op CPU time does not).
    speedup_tol = max(tolerance, 0.5)
    speedups = shared_keys("_speedup")
    for key in speedups:
        b, f = base[key], fresh[key]
        if not comparable(key, b, f):
            continue
        ratio = f / b
        marker = ""
        if ratio < 1.0 - speedup_tol:
            regressions.append((key, b, f, ratio))
            marker = "  <-- REGRESSION"
        print(f"  {key:<40} {b:>11.2f}x -> {f:>11.2f}x speedup "
              f"({ratio - 1.0:+7.1%}){marker}")

    total_skipped = skipped["missing"] + skipped["incomparable"]
    if total_skipped:
        print(f"perf_gate: {total_skipped} key(s) warn-skipped "
              f"({skipped['missing']} missing from fresh run, "
              f"{skipped['incomparable']} not comparable) — these were NOT "
              f"gated")

    if not shared and not speedups and not identities:
        print("perf_gate: SKIP — no shared gated keys to compare")
        return 0

    if regressions:
        print(f"\nperf_gate: FAIL — {len(regressions)} benchmark(s) more "
              f"than {tolerance:.0%} slower than {paths[0]}:")
        for key, b, f, ratio in regressions:
            print(f"  {key}: {b:.1f} -> {f:.1f} ns/op ({ratio - 1.0:+.1%})")
        print("If the slowdown is intentional, regenerate the baseline with\n"
              "  ./build/bench/bench_microkernels --json=BENCH_microkernels.json\n"
              "and commit it with the change that explains it.")
        return 1

    compared = len(shared) + len(speedups) + len(identities)
    print(f"perf_gate: PASS — {compared} gated key(s) within tolerance "
          f"of {paths[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
