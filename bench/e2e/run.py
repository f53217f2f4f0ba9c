#!/usr/bin/env python3
"""End-to-end benchmark of HiSVSIM: builds bench_e2e, runs one workload.

Usage (from the repository root):
  python3 bench/e2e/run.py --workload NAME|all --seconds S [--seed N]
                           [--trace 0|1]
  python3 bench/e2e/run.py --quick          self-test at 12 qubits
  python3 bench/e2e/run.py --regen-golden   recompute bench/e2e/golden.json

Workloads: flat, hier, blocked, dist, sweep (see README.md). Every run
first builds bench_e2e into build-bench/ (Release, checked validators
off; only the core library and bench_e2e), then measures the host's
stream bandwidth in a separate process, then runs the workload in its own
process. The last line of stdout is one JSON object

  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with the end-to-end metrics untraced (--trace 0) or the per-layer metrics
traced (--trace 1; the Chrome trace lands in build-bench/traces/).
--seconds is the measuring time of one run; BENCHMARK.json's run_seconds
is the value the benchmark is defined with. Exit status: 0 = every output
checked correct, 1 = some check failed, 2 = the benchmark could not run
(no source tree, build failure, crash).
"""

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "bench_e2e"
GOLDEN = BENCH_DIR / "golden.json"
WORKLOADS = ["flat", "hier", "blocked", "dist", "sweep"]
GOLDEN_SEEDS = list(range(25))
RUN_TIMEOUT_S = 170
COVERAGE_RANGE = (0.9, 1.1)


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds bench_e2e; the build log goes to stderr
    only when the build fails."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no HiSVSIM source tree at {ROOT} (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        die("cmake not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-8000:])
            die(f"build step failed: {' '.join(cmd)}")


def call(args, timeout=RUN_TIMEOUT_S, stderr=None):
    """Runs bench_e2e; returns (exit code, stdout lines). Its stderr goes to
    ours unless `stderr` is a list, which then receives the lines."""
    try:
        p = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                           stderr=None if stderr is None else subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"bench_e2e {' '.join(args[:3])} timed out after {timeout} s")
    if stderr is not None:
        stderr += p.stderr.splitlines()
    return p.returncode, p.stdout.splitlines()


def stream_gbps(mib):
    code, out = call(["probe", "--mib", str(mib)])
    if code != 0 or not out:
        die("stream probe failed")
    return json.loads(out[-1])["stream_gbps"]


def expect_args(seed, corrupt=False):
    """golden.json entries for this seed, as --expect flags
    (case@qubits=values); bench_e2e uses those of its own cases.
    `corrupt` perturbs the first value of each entry: the self-test's
    must-fail input."""
    entries = json.loads(GOLDEN.read_text())["entries"]
    args = []
    for key, values in sorted(entries.items()):
        case, n, s = key.split("/")
        if s != f"seed{seed}":
            continue
        if corrupt:
            values = [values[0] + 1e-6, *values[1:]]
        args += ["--expect",
                 f"{case}@{n[1:]}=" + ",".join(repr(v) for v in values)]
    return args


def load_trace_validator():
    path = ROOT / "tools" / "trace_summary.py"
    if not path.is_file():
        return None
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("trace_summary", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.validate


def schema_findings(result, trace):
    """Differences between the printed metrics and BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    findings = [f"metric {k} missing" for k in want if k not in got]
    findings += [f"metric {k} not in BENCHMARK.json" for k in got
                 if k not in want]
    findings += [f"metric {k} unit {got[k]!r}, BENCHMARK.json says "
                 f"{want[k]!r}" for k in want if k in got and got[k] != want[k]]
    for key, kind in (("correct", bool), ("attempted", int), ("failed", int)):
        if not isinstance(result.get(key), kind):
            findings.append(f"{key} missing or not {kind.__name__}")
    return findings


def run_workload(workload, seed, seconds, trace, quick=False, corrupt=False,
                 echo=True, stderr=None):
    """Runs one workload; returns (exit code, result dict)."""
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
            "--stream-gbps", repr(stream_gbps(64 if quick else 512))]
    if quick:
        args.append("--quick")
    args += expect_args(seed, corrupt)
    trace_path = BUILD_DIR / "traces" / f"{workload}-seed{seed}.json"
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.unlink(missing_ok=True)
        args += ["--trace-out", str(trace_path)]
    code, out = call(args, stderr=stderr)
    if code not in (0, 1) or not out:
        die(f"bench_e2e run --workload {workload} exited {code}")
    result = json.loads(out[-1])
    if echo:
        print("\n".join(out[:-1]))
    findings = schema_findings(result, trace)
    if trace:
        validate = load_trace_validator()
        if not trace_path.is_file():
            findings.append(f"trace {trace_path} not written")
        elif validate is not None:
            doc = json.loads(trace_path.read_text())
            findings += [f"trace: {f}" for f in validate(doc)]
        # At 12 qubits a traced execute takes about a millisecond, and the
        # gaps between the engine's timers are a share of that.
        coverage = result.get("metrics", {}).get("layers.coverage", {})
        lo, hi = COVERAGE_RANGE
        if not quick and not lo <= coverage.get("value", 0.0) <= hi:
            findings.append(f"layers.coverage {coverage.get('value')} "
                            f"outside [{lo}, {hi}]")
        if echo:
            print(f"# trace: {trace_path.relative_to(ROOT)}")
    for f in findings:
        print(f"# CHECK FAILED: {f}")
    if findings:
        result["correct"] = False
    return (0 if result["correct"] else 1), result


def quick_self_test():
    """Every workload at 12 qubits, untraced and traced, plus one run
    against corrupted golden entries that must fail."""
    start = time.monotonic()
    problems = []
    checks = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            checks += 1
            code, r = run_workload(workload, 7, 0, trace, quick=True,
                                   echo=False)
            if code != 0 or not r["correct"] or r["failed"] != 0:
                problems.append(f"{workload} trace={int(trace)}: {r}")
    checks += 1
    errors = []
    code, r = run_workload("flat", 7, 0, False, quick=True, corrupt=True,
                           echo=False, stderr=errors)
    if code != 1 or r["failed"] == 0 or r["correct"] or \
            not any(e.startswith("FAIL:") for e in errors):
        problems.append(f"corrupted golden entries were not flagged: {r}")
    for p in problems:
        print(f"# SELF-TEST FAILED: {p}")
    print(f"# quick self-test: {checks - len(problems)}/{checks} passed in "
          f"{time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": not problems, "attempted": checks,
                      "failed": len(problems), "metrics": {}}))
    return 0 if not problems else 1


def regen_golden():
    """Workloads that share a case (flat, hier and dist run the same
    24-qubit circuits) must compute the same reference for it."""
    entries = {}
    for workload in WORKLOADS:
        for seed, quick in [(s, False) for s in GOLDEN_SEEDS] + [(7, True)]:
            args = ["golden", "--workload", workload, "--seed", str(seed)]
            code, out = call(args + (["--quick"] if quick else []), timeout=600)
            if code != 0:
                die(f"golden {workload} seed {seed} failed")
            g = json.loads(out[-1])
            for case, values in g["cases"].items():
                key = f"{case}/n{g['n']}/seed{seed}"
                if entries.setdefault(key, values) != values:
                    die(f"golden {key}: {workload} disagrees with an earlier "
                        "workload")
            print(f"golden: {workload} seed={seed} n={g['n']}", file=sys.stderr)
    GOLDEN.write_text(json.dumps({
        "about": "Reference outputs per case/qubits/seed, computed by "
                 "`run.py --regen-golden` on the flat target with scalar "
                 "kernels and no optimization passes. State cases: "
                 "[Re, Im] of sum_i psi_i * w[i mod 1021] (w drawn from the "
                 "seed) and the norm. Sweep cases: the MaxCut energy of "
                 "each point.",
        "seeds": GOLDEN_SEEDS,
        "entries": entries}, indent=1) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float,
                    help="measuring time of one run (BENCHMARK.json: "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--regen-golden", action="store_true")
    a = ap.parse_args()
    if not (a.quick or a.regen_golden or a.workload):
        ap.error("one of --workload, --quick, --regen-golden is required")
    if a.workload and a.seconds is None:
        ap.error("--workload needs --seconds")

    build()
    if a.quick:
        return quick_self_test()
    if a.regen_golden:
        return regen_golden()
    if a.workload != "all":
        code, result = run_workload(a.workload, a.seed, a.seconds, a.trace)
        print(json.dumps(result))
        return code
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, result = run_workload(workload, a.seed, a.seconds, a.trace)
        print(json.dumps(result))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
