#!/usr/bin/env python3
"""Integer-only gate: the node's listed functions contain no floating point.

Usage: fp_free_check.py [--only NAME] LIB.a [LIB.a ...]

Disassembles the given static libraries (``objdump -d -C``) and checks
every function on the list below. The gate FAILS (exit 1) when a listed
function contains any instruction of these classes:

  - SSE/AVX floating-point arithmetic, scalar or packed (``addsd``,
    ``vmulps``, ``sqrtss``, ``vfmadd231sd``, ...);
  - SSE/AVX floating-point compares (``ucomisd``, ``cmpltps``,
    ``vcmpneqpd``, ...) and conversions (``cvtsi2sd``, ``cvttsd2si``, ...);
  - any x87 instruction (``fld``, ``fstp``, ...).

Moves, shuffles and bitwise ops on XMM/YMM registers are not counted:
integer code uses them too, for copies and zeroing. A function's clones
(``[clone .cold]``, ``.isra``, ``.constprop``, ...) count as part of it.
Only a function's own body is read: a call into another function is
checked only if that function is listed too.

A name matches a symbol when it equals the symbol's qualified name (the
demangled name before its parameter list, less any template arguments and
return type) or is a ``::``-suffix of it, so ``IntClassifier::classify``
matches ``hbrp::embedded::IntClassifier::classify`` and every overload of
it, but not ``classify_batch``.

Exit codes: 0 every listed function found and free of floating point,
1 floating point found, 2 a listed function is missing, the input is not
x86-64, or usage error. ``--only`` replaces the list; CI uses it for a
tamper self-check on a function that does compute in floating point, which
must exit 1.
"""

import re
import subprocess
import sys

# Per-sample, per-chunk and per-beat work of the streaming node that is
# integer-only today. Add a function here once its floating point is gone.
FUNCTIONS = [
    "condition_ecg_block_scalar",
    # condition_ecg_block_scalar tail-calls condition_impl, whose erode and
    # dilate passes are hgw_extremum: the conditioning work itself.
    "condition_impl",
    "hgw_extremum",
    "BlockConditioner::process_pending",
    "wavelet_impl",
    "SparseTernary::apply_into",
    "BeatProjector::project_int_into",
    "IntClassifier::fuzzify",
    "IntClassifier::defuzzify",
    "IntClassifier::classify",
    "IntClassifier::classify_batch",
    "linearized_eval_batch_scalar",
    "net::encode_sample_chunk",
    "StreamingBeatMonitor::push",
    "StreamingBeatMonitor::push_block",
    "StreamingBeatMonitor::scan",
]

_SUFFIX = r"(ss|sd|ps|pd)"
FP_MNEMONIC = re.compile(
    r"^(?:"
    # SSE/AVX arithmetic, scalar and packed.
    rf"v?(?:add|sub|mul|div|min|max|sqrt|rcp|rsqrt|hadd|hsub|addsub|dp"
    rf"|round){_SUFFIX}"
    # Fused multiply-add forms.
    r"|vfn?m(?:add|sub)\w*|vfm(?:addsub|subadd)\w*"
    # Compares.
    rf"|v?cmp\w*{_SUFFIX}|v?u?comis[sd]"
    # Conversions.
    r"|v?cvt\w+"
    # x87.
    r"|f\w+"
    r")$")

# Tokens objdump prints ahead of a mnemonic.
PREFIXES = {"lock", "rep", "repz", "repnz", "repe", "repne", "notrack",
            "bnd", "data16", "addr32", "cs", "ds", "es", "ss", "fs", "gs"}

FUNC_HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")
ANONYMOUS = "(anonymous namespace)"


def qualified_name(symbol):
    """The demangled symbol's name, without parameters or clone suffix."""
    depth = 0
    i = 0
    while i < len(symbol):
        if symbol.startswith(ANONYMOUS, i):
            i += len(ANONYMOUS)
            continue
        ch = symbol[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return symbol[:i]
        i += 1
    return symbol


def matches(name, qualified):
    # A template's demangled name carries its return type and arguments.
    return re.search(rf"(?:^|::| ){re.escape(name)}(?:<.*>)?$",
                     qualified) is not None


def mnemonic(line):
    """The instruction mnemonic of one disassembly line, or None."""
    parts = line.split("\t")
    if len(parts) < 3 or not parts[0].strip().endswith(":"):
        return None
    tokens = parts[2].split()
    while tokens and tokens[0] in PREFIXES:
        tokens.pop(0)
    return tokens[0] if tokens else None


def scan(libs, names):
    """Returns {name: [(symbol, [fp mnemonics])]} for every listed name."""
    found = {name: [] for name in names}
    for lib in libs:
        out = subprocess.run(["objdump", "-d", "-C", lib], check=True,
                             capture_output=True, text=True).stdout
        if "file format elf64-x86-64" not in out:
            print(f"fp_free_check: {lib} is not x86-64 code", file=sys.stderr)
            sys.exit(2)
        current = None
        for line in out.splitlines():
            header = FUNC_HEADER.match(line)
            if header:
                symbol = header.group(1)
                qualified = qualified_name(symbol)
                current = None
                for name in names:
                    if matches(name, qualified):
                        current = []
                        found[name].append((symbol, current))
                        break
                continue
            if current is None:
                continue
            op = mnemonic(line)
            if op and FP_MNEMONIC.match(op):
                current.append(op)
    return found


def main(argv):
    names = FUNCTIONS
    libs = []
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--only":
            if not args:
                print(__doc__, file=sys.stderr)
                return 2
            names = [args.pop(0)]
        elif arg.startswith("-"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            libs.append(arg)
    if not libs:
        print(__doc__, file=sys.stderr)
        return 2

    found = scan(libs, names)
    missing = [name for name in names if not found[name]]
    dirty = 0
    for name in names:
        for symbol, ops in found[name]:
            if ops:
                dirty += 1
                print(f"fp_free_check: FAIL {symbol}: {len(ops)} "
                      f"floating-point instruction(s): "
                      f"{', '.join(sorted(set(ops)))}")
    for name in missing:
        print(f"fp_free_check: FAIL {name}: no such function in "
              f"{', '.join(libs)}")
    if missing:
        return 2
    if dirty:
        return 1
    symbols = sum(len(found[name]) for name in names)
    print(f"fp_free_check: PASS — {len(names)} function(s), {symbols} "
          f"symbol(s), no floating-point instruction")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
