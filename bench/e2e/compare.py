#!/usr/bin/env python3
"""Compares two sets of bench/e2e runs (parent, change) per workload.

Usage:
  compare.py PARENT.log CHANGE.log
  compare.py --self-test

Each log is the concatenated stdout of run.py runs: every
`# workload=W ... seed=S` line is paired with the JSON result line that
follows it. Untraced runs pair up in file order per workload, so run the
two checkouts alternately: parent, change, change, parent, ... Traced
runs count only for the failure check.

For every (workload, end-to-end metric) row of BENCHMARK.json it applies
the paired rule, first match wins:
  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither), and the medians differ by more
              than the parent's interquartile range;
  regression  the change's best run is worse than the parent's worst run
              by more than the bound, whatever the spread;
  unresolved  either side's IQR/median exceeds the metric's bound, unless
              every change run beats every parent run;
  regression  the change's median is worse than the parent's by more than
              the bound;
  ok          none of the above: no regression beyond the bound.
Exit status 1 when any row is a regression or any run failed a check.
"""

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def parse_log(text):
    """{workload: [result, ...]} in file order."""
    runs, workload = {}, None
    for line in text.splitlines():
        if line.startswith("# workload="):
            workload = line.split()[1].split("=", 1)[1]
        elif line.startswith("{") and workload is not None:
            runs.setdefault(workload, []).append(json.loads(line))
            workload = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare_metric(parent, change, bound, better):
    """Verdict and statistics of one (workload, metric) row."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: x worse
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(mp), (c3 - c1) / abs(mc))
    worse_by = sign * (mc - mp) / abs(mp)
    # Best and worst run of each side, in the metric's direction.
    best_c, worst_c = (min(change), max(change)) if sign > 0 else \
        (max(change), min(change))
    best_p, worst_p = (min(parent), max(parent)) if sign > 0 else \
        (max(parent), min(parent))
    all_better = sign * (best_p - worst_c) > 0
    all_worse_by = sign * (best_c - worst_p) / abs(mp)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(mc - mp) > p3 - p1 and worse_by < 0):
        verdict = "gain"
    elif all_worse_by > bound:
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "ok"
    return {"verdict": verdict, "pairs": len(pairs), "wins": wins,
            "parent": (mp, p1, p3), "change": (mc, c1, c3),
            "worse_by": worse_by, "spread": spread}


def compare(parent_runs, change_runs, spec):
    """Rows of (workload, metric, row dict) plus failure notes."""
    rows, notes = [], []
    names = [m["name"] for m in spec["end_to_end"]]
    for workload in sorted(set(parent_runs) | set(change_runs)):
        ps, cs = parent_runs.get(workload, []), change_runs.get(workload, [])
        for side, runs in (("parent", ps), ("change", cs)):
            failed = sum(r["failed"] for r in runs)
            if failed or not all(r["correct"] for r in runs):
                notes.append(f"{workload}: {side} runs report {failed} "
                             "failed operations")
        ps, cs = ([r for r in runs if all(n in r["metrics"] for n in names)]
                  for runs in (ps, cs))
        if not ps or not cs:
            notes.append(f"{workload}: no runs on one side")
            continue
        if min(len(ps), len(cs)) < MIN_PAIRS:
            notes.append(f"{workload}: only {min(len(ps), len(cs))} pairs "
                         f"(a gain needs {MIN_PAIRS})")
        for m in spec["end_to_end"]:
            name = m["name"]
            row = compare_metric([r["metrics"][name]["value"] for r in ps],
                                 [r["metrics"][name]["value"] for r in cs],
                                 m["bound"], m["better"])
            rows.append((workload, name, row))
    return rows, notes


def report(rows, notes):
    print(f"{'workload':8} {'metric':12} {'verdict':10} {'pairs':>5} "
          f"{'wins':>4} {'parent med [q1,q3]':>30} {'change med [q1,q3]':>30} "
          f"{'worse_by':>8} {'spread':>6}")
    for workload, name, r in rows:
        fmt = lambda t: f"{t[0]:.5g} [{t[1]:.5g},{t[2]:.5g}]"  # noqa: E731
        print(f"{workload:8} {name:12} {r['verdict']:10} {r['pairs']:5} "
              f"{r['wins']:4} {fmt(r['parent']):>30} {fmt(r['change']):>30} "
              f"{r['worse_by']:+8.3f} {r['spread']:6.3f}")
    for n in notes:
        print(f"note: {n}")
    bad = any(r["verdict"] == "regression" for _, _, r in rows)
    return 1 if bad or any("failed" in n for n in notes) else 0


def self_test():
    """Synthetic parent/change logs with known verdicts."""
    spec = {"end_to_end": [
        {"name": "exec_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}
    rng = random.Random(7)

    def log(workload, center, noise, runs=10, failed=0):
        lines = []
        for i in range(runs):
            x = center * (1 + rng.uniform(-noise, noise))
            lines.append(f"# workload={workload} target=t n=23 seed={i}")
            lines.append(json.dumps({
                "correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {"exec_s": {"value": x, "unit": "s"},
                            "rate": {"value": 1 / x, "unit": "1/s"}}}))
        return "\n".join(lines)

    cases = [  # (name, parent (center, noise), change (center, noise), want)
        ("noise", (1.0, 0.02), (1.0, 0.02), "ok"),
        ("regression", (1.0, 0.01), (1.25, 0.01), "regression"),
        ("gain", (1.0, 0.01), (0.8, 0.01), "gain"),
        ("wide", (1.0, 0.4), (1.05, 0.4), "unresolved"),
        ("wide-regression", (1.0, 0.25), (2.2, 0.25), "regression"),
    ]
    failures = []
    for name, (pc, pn), (cc, cn), want in cases:
        rows, _ = compare(parse_log(log(name, pc, pn)),
                          parse_log(log(name, cc, cn)), spec)
        for _, metric, r in rows:
            if r["verdict"] != want:
                failures.append(f"{name}/{metric}: got {r['verdict']}, "
                                f"want {want}")
    _, notes = compare(parse_log(log("f", 1.0, 0.01)),
                       parse_log(log("f", 1.0, 0.01, failed=1)), spec)
    if not any("failed" in n for n in notes):
        failures.append("failed runs were not reported")
    _, notes = compare(parse_log(log("few", 1.0, 0.01, runs=5)),
                       parse_log(log("few", 0.5, 0.01, runs=5)), spec)
    if not any("pairs" in n for n in notes):
        failures.append("fewer than 10 pairs was not reported")
    for f in failures:
        print(f"SELF-TEST FAILED: {f}")
    print(f"compare.py self-test: {'ok' if not failures else 'FAILED'}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description="Paired parent-versus-change rule per workload row.")
    ap.add_argument("parent", nargs="?", type=Path)
    ap.add_argument("change", nargs="?", type=Path)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if a.parent is None or a.change is None:
        ap.error("need PARENT.log and CHANGE.log")
    spec = json.loads(SPEC.read_text())
    return report(*compare(parse_log(a.parent.read_text()),
                           parse_log(a.change.read_text()), spec))


if __name__ == "__main__":
    sys.exit(main())
