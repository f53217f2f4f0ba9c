#!/usr/bin/env python3
"""CI perf gate over bench_kernels --json output.

Reads the bench payload from stdin (or a file argument) and fails unless

  * the simd tier beats scalar on the dense_1q case by at least the floor
    (default 1.5x, override with --min). The floor is deliberately far
    below the recorded ~2.4x (BENCH_kernels.json): it exists to catch the
    vector tier silently degrading to scalar-ish throughput — a dispatch
    regression or a de-vectorized kernel — not to pin an exact number on
    noisy shared CI hosts;
  * the simd tier is no slower than scalar on every non-permutation row,
    the low-qubit rows (_q0, _q1, _q2) included: a gate on the qubits the
    hierarchical executor puts every part's lowest qubits on must not fall
    back to slower-than-scalar code. The perm_* rows are skipped: both
    tiers share the permutation kernels, so their ratio is noise around 1.

Usage:
    bench_kernels --json --quick | check_kernel_speedup.py [--min 1.5]
    check_kernel_speedup.py bench_output.json
"""

import argparse
import json
import sys


def tier_speedup(case, tier):
    """speedup_vs_scalar of `tier` in one bench case, None when absent."""
    for t in case.get("tiers", []):
        if t.get("tier") == tier:
            return float(t["speedup_vs_scalar"])
    return None


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("payload", nargs="?", help="bench JSON file (default stdin)")
    ap.add_argument("--case", default="dense_1q")
    ap.add_argument("--tier", default="simd")
    ap.add_argument("--min", type=float, default=1.5,
                    help="minimum speedup_vs_scalar (default 1.5)")
    args = ap.parse_args(argv[1:])

    if args.payload:
        with open(args.payload, encoding="utf-8") as f:
            data = json.load(f)
    else:
        data = json.load(sys.stdin)

    if not data.get("simd_available", False):
        # Nothing to gate on a non-AVX2 host; the containment lint and the
        # scalar test pass still cover that configuration.
        print("check_kernel_speedup: simd tier unavailable on this host; "
              "skipping")
        return 0

    cases = {c.get("case"): c for c in data.get("cases", [])}
    if args.case not in cases:
        print(f"check_kernel_speedup: no case '{args.case}' in payload")
        return 1
    ok = True
    for name, case in cases.items():
        if name.startswith("perm_"):
            continue
        floor = args.min if name == args.case else 1.0
        speedup = tier_speedup(case, args.tier)
        if speedup is None:
            print(f"check_kernel_speedup: case '{name}' has no tier "
                  f"'{args.tier}'")
            ok = False
            continue
        verdict = "OK" if speedup >= floor else "FAIL"
        print(f"check_kernel_speedup: {name}/{args.tier} {speedup:.3f}x vs "
              f"scalar (floor {floor}x) {verdict}")
        ok = ok and speedup >= floor
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
