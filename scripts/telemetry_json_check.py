#!/usr/bin/env python3
"""Parse the telemetry JSON an example prints and check its schema version.

Usage: telemetry_json_check.py LOG MARKER [MARKER ...]

LOG is the captured stdout of an example. Each MARKER is a line prefix
that the example prints right before one JSON value:

  "Gateway stats:"             GatewayStats::json() (gateway_ward)
  "Fleet telemetry snapshot:"  FleetEngine::telemetry_json() (gateway_ward,
                               fleet_server)
  "reactors:"                  GatewayServer::reactors_json() (fleet_soak)

The check FAILS (exit 1) when a marker is missing, the value after it is not
valid JSON, an object block carries no ``schema_version``, or any
``schema_version`` in any block differs from ``kTelemetrySchemaVersion`` in
src/service/telemetry.hpp. The per-reactor array carries no version stamp,
so only its shape is checked: a non-empty list of objects.
"""

import json
import pathlib
import re
import sys

HEADER = pathlib.Path(__file__).resolve().parent.parent / "src" / "service" / \
    "telemetry.hpp"


def expected_version():
    match = re.search(r"kTelemetrySchemaVersion\s*=\s*(\d+)",
                      HEADER.read_text(encoding="utf-8"))
    if match is None:
        sys.exit(f"telemetry_json_check: no kTelemetrySchemaVersion in "
                 f"{HEADER}")
    return int(match.group(1))


def versions(value):
    """Every schema_version value anywhere inside a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "schema_version":
                yield item
            else:
                yield from versions(item)
    elif isinstance(value, list):
        for item in value:
            yield from versions(item)


def check_block(text, marker, want):
    """Returns a list of failure messages for the value after `marker`."""
    at = text.find(marker)
    if at < 0:
        return [f"marker {marker!r} not found"]
    start = at + len(marker)
    while start < len(text) and text[start].isspace():
        start += 1
    try:
        value, _ = json.JSONDecoder().raw_decode(text, start)
    except json.JSONDecodeError as err:
        return [f"{marker!r}: invalid JSON: {err}"]
    if isinstance(value, list):
        if not value or not all(isinstance(v, dict) for v in value):
            return [f"{marker!r}: expected a non-empty list of objects"]
    found = list(versions(value))
    if isinstance(value, dict) and not found:
        return [f"{marker!r}: no schema_version"]
    bad = sorted({v for v in found if v != want}, key=str)
    if bad:
        return [f"{marker!r}: schema_version {bad} != {want}"]
    print(f"telemetry_json_check: {marker!r} ok "
          f"({len(found)} schema_version stamps)")
    return []


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    text = pathlib.Path(argv[1]).read_text(encoding="utf-8")
    want = expected_version()
    failures = []
    for marker in argv[2:]:
        failures += check_block(text, marker, want)
    for failure in failures:
        print(f"telemetry_json_check: FAIL {argv[1]}: {failure}",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
