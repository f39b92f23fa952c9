#!/usr/bin/env python3
"""CI robustness gate over the committed adversarial-scenario baseline.

Usage: robustness_gate.py BASELINE_JSON FRESH_JSON [--tolerance=0.02]
                                                   [--bytes-tolerance=0.10]
                                                   [--beats-tolerance=6]

Both inputs are bench reports. When they are BENCH_drift.json reports
(``"bench": "drift"``) the drift mode gates instead:

  - ``drift_identity`` false — the tracker's state diverged across
    thread/shard layouts (fatal, no tolerance);
  - ``drift_false_alarm_rate`` rose above the baseline — a previously
    quiet scenario now alarms (fatal);
  - a ``drift_detect_beats_m*`` that the baseline detected (value >= 0)
    comes back -1 (never alarmed) or slower by more than
    ``beats-tolerance`` beats (fatal);
  - ``all_ok`` false — the bench's own internal gate tripped.

When they are BENCH_lifecycle.json reports (``"bench": "lifecycle"``) the
lifecycle mode gates:

  - ``lifecycle_identity_pass`` false — a hot-swap failed to split the
    verdict stream into exact per-model halves (fatal, no tolerance);
  - ``lifecycle_corrupt_push_nacked`` false — a tampered MODEL_PUSH was
    not rejected (fatal);
  - an ``ab_{a,b}_{ndr,arr}`` dropping, or ``ab_{a,b}_{miss,false}_rate``
    rising, by more than ``tolerance`` (fatal — the suite is seeded, so
    drift is a real behavior change);
  - ``all_ok`` false — the bench's own internal gate tripped.
  - ``swap_latency_*`` / ``push_mb_per_s`` are wall-clock on a shared
    host: a large drift only WARNS.

Otherwise the inputs are BENCH_scenarios.json reports
(bench_scenarios --json=...). For every scenario the two reports share,
the gate FAILS (exit 1) when:

  - the fresh ``sc_<name>_identity`` or ``sc_<name>_selective_ok`` flag is
    false — the wire path diverged from direct ingest, or the selective
    path lost/duplicated an upload under chaos (these are correctness
    bits, tolerance does not apply);
  - ``ndr`` or ``arr`` dropped by more than ``tolerance`` (absolute);
  - ``miss_rate`` or ``false_rate`` rose by more than ``tolerance``.

Bytes-on-wire (``bytes_stream``/``bytes_selective``) drifting more than
``bytes-tolerance`` (relative) only WARNS: byte counts move legitimately
with protocol framing changes, and the paper's energy argument has its own
bench. Scenarios present only in the baseline are warn-skipped, so a
``--quick`` fresh run (a trimmed suite) still gates what it covers.
What fails the gate is seeded and repeats exactly (fixed seeds, fixed
trainer config), so any drift in it is a real behavior change, not noise;
the tolerance only absorbs intentional small reshapes of the pipeline.
Selective bytes are not: retransmits under the chaos link's seeded kills
depend on timing, so ``bytes_selective`` moves from run to run of one
binary (up to ~22% over four runs), and the ``chaos_*`` and ``uploads``
counters, which move with it, are not read.

Reports stamp a ``schema_version``; this gate understands version
KNOWN_SCHEMA. A report with a newer schema warns once and the gate skips
any key it does not recognize instead of failing, so adding report keys
never breaks an older checkout's CI.

Exit codes: 0 pass/skip, 1 regression, 2 usage or unreadable input.
"""

import json
import sys

DEFAULT_TOLERANCE = 0.02
DEFAULT_BYTES_TOLERANCE = 0.10
DEFAULT_BEATS_TOLERANCE = 6
KNOWN_SCHEMA = 2

# Per-scenario metrics: (suffix, direction, fatal). direction +1 = higher
# is better (a drop fails), -1 = lower is better (a rise fails).
METRICS = [
    ("ndr", +1, True),
    ("arr", +1, True),
    ("miss_rate", -1, True),
    ("false_rate", -1, True),
]
FLAG_SUFFIXES = ["identity", "selective_ok"]
BYTES_SUFFIXES = ["bytes_stream", "bytes_selective"]


def load_report(path):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"robustness_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"robustness_gate: {path} is valid JSON but not an object "
              f"(got {type(data).__name__}); not a bench report",
              file=sys.stderr)
        sys.exit(2)
    return data


def check_schema(report, path):
    version = report.get("schema_version")
    if isinstance(version, int) and version > KNOWN_SCHEMA:
        print(f"robustness_gate: WARNING — {path} has schema_version "
              f"{version} (this gate knows {KNOWN_SCHEMA}); unknown keys "
              f"are skipped, not failed")


def gate_drift(base, fresh, base_path, beats_tolerance):
    """BENCH_drift.json mode: detection latency, false alarms, identity."""
    failures = []

    if fresh.get("drift_identity") is not True:
        failures.append(("drift_identity",
                         "tracker state diverged across thread/shard "
                         "layouts"))

    b_rate, f_rate = base.get("drift_false_alarm_rate"), \
        fresh.get("drift_false_alarm_rate")
    if numeric(b_rate) and numeric(f_rate):
        marker = ""
        if f_rate > b_rate:
            marker = "  <-- REGRESSION"
            failures.append(("drift_false_alarm_rate",
                             f"{b_rate:.3f} -> {f_rate:.3f}"))
        print(f"  {'drift_false_alarm_rate':<38} {b_rate:>7.3f} -> "
              f"{f_rate:>7.3f}{marker}")
    else:
        print("robustness_gate: WARNING — drift_false_alarm_rate is not a "
              f"comparable pair ({b_rate!r} vs {f_rate!r}), skipped")

    detect_keys = sorted(k for k in base
                         if k.startswith("drift_detect_beats_"))
    for key in detect_keys:
        b, f = base.get(key), fresh.get(key)
        if not (numeric(b) and numeric(f)):
            print(f"robustness_gate: WARNING — {key} missing from fresh "
                  f"run, skipped")
            continue
        if b < 0:
            # The baseline never alarmed at this magnitude (below the
            # detection floor by design); nothing to hold the fresh run to.
            continue
        marker = ""
        if f < 0:
            marker = "  <-- REGRESSION"
            failures.append((key, f"detected in {b:.0f} beats -> never"))
        elif f - b > beats_tolerance:
            marker = "  <-- REGRESSION"
            failures.append((key, f"{b:.0f} -> {f:.0f} beats"))
        print(f"  {key:<38} {b:>7.0f} -> {f:>7.0f}{marker}")

    b_clean = base.get("drift_max_clean_score")
    f_clean = fresh.get("drift_max_clean_score")
    if numeric(b_clean) and numeric(f_clean) and f_clean > b_clean + 0.05:
        print(f"robustness_gate: WARNING — drift_max_clean_score rose "
              f"{b_clean:.3f} -> {f_clean:.3f}; the false-alarm margin is "
              f"shrinking")

    if fresh.get("all_ok") is False:
        failures.append(("all_ok",
                         "bench_drift reported an internal gate failure"))

    if failures:
        print(f"\nrobustness_gate: FAIL — {len(failures)} drift "
              f"regression(s) vs {base_path}:")
        for key, detail in failures:
            print(f"  {key}: {detail}")
        print("If the change is intentional, regenerate the baseline with\n"
              "  ./build/bench/bench_drift --threads=0 "
              "--json=BENCH_drift.json\nand commit it with the change that "
              "explains it.")
        return 1
    print(f"robustness_gate: PASS — drift detection/false-alarm/identity "
          f"within bounds of {base_path}")
    return 0


def gate_lifecycle(base, fresh, base_path, tolerance):
    """BENCH_lifecycle.json mode: swap identity, push rejection, A/B arms."""
    failures = []

    for flag, detail in [
        ("lifecycle_identity_pass",
         "hot-swap verdict stream no longer splits into exact per-model "
         "halves"),
        ("lifecycle_corrupt_push_nacked",
         "a tampered MODEL_PUSH was not rejected"),
    ]:
        if fresh.get(flag) is not True:
            failures.append((flag, detail))

    for arm in ("a", "b"):
        for suffix, direction in [("ndr", +1), ("arr", +1),
                                  ("miss_rate", -1), ("false_rate", -1)]:
            key = f"ab_{arm}_{suffix}"
            b, f = base.get(key), fresh.get(key)
            if not (numeric(b) and numeric(f)):
                print(f"robustness_gate: WARNING — {key} is not a "
                      f"comparable pair ({b!r} vs {f!r}), skipped")
                continue
            delta = (f - b) * direction  # negative = got worse
            marker = ""
            if delta < -tolerance:
                marker = "  <-- REGRESSION"
                failures.append((key, f"{b:.3f} -> {f:.3f}"))
            print(f"  {key:<38} {b:>7.3f} -> {f:>7.3f}{marker}")

    for key in ("swap_latency_p50_us", "swap_latency_p99_us",
                "push_mb_per_s"):
        b, f = base.get(key), fresh.get(key)
        if not (numeric(b) and numeric(f)) or b <= 0:
            continue
        ratio = f / b
        worse = ratio > 3.0 if key.startswith("swap") else ratio < 1.0 / 3.0
        if worse:
            print(f"robustness_gate: WARNING — {key} moved {b:.1f} -> "
                  f"{f:.1f}; wall-clock on a shared host, not fatal, but "
                  f"check the swap/push path if this persists")

    if fresh.get("all_ok") is False:
        failures.append(("all_ok",
                         "bench_lifecycle reported an internal gate "
                         "failure"))

    if failures:
        print(f"\nrobustness_gate: FAIL — {len(failures)} lifecycle "
              f"regression(s) vs {base_path}:")
        for key, detail in failures:
            print(f"  {key}: {detail}")
        print("If the change is intentional, regenerate the baseline with\n"
              "  ./build/bench/bench_lifecycle --threads=0 "
              "--json=BENCH_lifecycle.json\nand commit it with the change "
              "that explains it.")
        return 1
    print(f"robustness_gate: PASS — lifecycle identity/push/A-B within "
          f"bounds of {base_path}")
    return 0


def scenario_names(report):
    names = []
    for key in report:
        if key.startswith("sc_") and key.endswith("_ndr"):
            names.append(key[len("sc_"):-len("_ndr")])
    return sorted(names)


def numeric(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def main(argv):
    tolerance = DEFAULT_TOLERANCE
    bytes_tolerance = DEFAULT_BYTES_TOLERANCE
    beats_tolerance = DEFAULT_BEATS_TOLERANCE
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--beats-tolerance="):
            try:
                beats_tolerance = float(arg.split("=", 1)[1])
            except ValueError:
                print(f"robustness_gate: bad value in '{arg}'",
                      file=sys.stderr)
                return 2
        elif arg.startswith("--tolerance="):
            try:
                tolerance = float(arg.split("=", 1)[1])
            except ValueError:
                print(f"robustness_gate: bad value in '{arg}'",
                      file=sys.stderr)
                return 2
        elif arg.startswith("--bytes-tolerance="):
            try:
                bytes_tolerance = float(arg.split("=", 1)[1])
            except ValueError:
                print(f"robustness_gate: bad value in '{arg}'",
                      file=sys.stderr)
                return 2
        else:
            paths.append(arg)
    if len(paths) != 2 or not 0.0 <= tolerance < 1.0:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2

    base = load_report(paths[0])
    fresh = load_report(paths[1])
    check_schema(base, paths[0])
    check_schema(fresh, paths[1])

    for mode in ("drift", "lifecycle"):
        if base.get("bench") == mode or fresh.get("bench") == mode:
            if base.get("bench") != fresh.get("bench"):
                print(f"robustness_gate: cannot compare a "
                      f"'{base.get('bench')}' report against a "
                      f"'{fresh.get('bench')}' report", file=sys.stderr)
                return 2
            if mode == "drift":
                return gate_drift(base, fresh, paths[0], beats_tolerance)
            return gate_lifecycle(base, fresh, paths[0], tolerance)

    base_names = scenario_names(base)
    fresh_names = scenario_names(fresh)
    shared = [n for n in base_names if n in fresh_names]
    only_base = [n for n in base_names if n not in fresh_names]
    only_fresh = [n for n in fresh_names if n not in base_names]
    if only_base:
        print(f"robustness_gate: WARNING — {len(only_base)} baseline "
              f"scenario(s) missing from fresh run, skipped: "
              f"{', '.join(only_base)}")
    if only_fresh:
        print(f"robustness_gate: note — new scenario(s) not in baseline "
              f"yet: {', '.join(only_fresh)}")
    if not shared:
        print("robustness_gate: SKIP — no shared scenarios to compare")
        return 0

    failures = []
    for name in shared:
        prefix = f"sc_{name}_"
        for suffix in FLAG_SUFFIXES:
            flag = fresh.get(prefix + suffix)
            if flag is None:
                print(f"robustness_gate: WARNING — {prefix + suffix} "
                      f"missing from fresh run, skipped")
            elif flag is not True:
                failures.append((name, suffix, "correctness flag is false"))
        for suffix, direction, fatal in METRICS:
            key = prefix + suffix
            b, f = base.get(key), fresh.get(key)
            if not (numeric(b) and numeric(f)):
                print(f"robustness_gate: WARNING — {key} is not a "
                      f"comparable pair ({b!r} vs {f!r}), skipped")
                continue
            delta = (f - b) * direction  # negative = got worse
            marker = ""
            if delta < -tolerance:
                marker = "  <-- REGRESSION" if fatal else "  (warn)"
                if fatal:
                    failures.append(
                        (name, suffix, f"{b:.3f} -> {f:.3f}"))
            print(f"  {key:<38} {b:>7.3f} -> {f:>7.3f}{marker}")
        for suffix in BYTES_SUFFIXES:
            key = prefix + suffix
            b, f = base.get(key), fresh.get(key)
            if not (numeric(b) and numeric(f)) or b <= 0:
                continue
            drift = f / b - 1.0
            if abs(drift) > bytes_tolerance:
                print(f"robustness_gate: WARNING — {key} drifted "
                      f"{drift:+.1%} ({b:.0f} -> {f:.0f} bytes); not fatal, "
                      f"but check the framing if this is unexpected")

    if fresh.get("all_ok") is False:
        failures.append(("(suite)", "all_ok",
                         "bench_scenarios reported an internal gate failure"))

    if failures:
        print(f"\nrobustness_gate: FAIL — {len(failures)} regression(s) vs "
              f"{paths[0]}:")
        for name, metric, detail in failures:
            print(f"  {name}/{metric}: {detail}")
        print("If the change is intentional, regenerate the baseline with\n"
              "  ./build/bench/bench_scenarios --threads=0 "
              "--json=BENCH_scenarios.json\n"
              "and commit it with the change that explains it.")
        return 1

    print(f"robustness_gate: PASS — {len(shared)} scenario(s) within "
          f"{tolerance:.2f} of {paths[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
