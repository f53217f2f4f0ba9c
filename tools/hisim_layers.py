#!/usr/bin/env python3
"""hisim-layers: architecture-layering analyzer for the HiSVSIM tree.

The paper's design is navigable because the module graph is a strict
DAG — flat building blocks at the bottom, the hierarchical and
distributed executors stacked above them:

    common -> circuit/qasm/dag -> opt/sv/partition -> noise -> dist
           -> hisvsim            (circuits: leaf consumers)

This tool keeps that layering *enforceable* rather than aspirational: it
parses every `#include "..."` edge under src/, checks each against the
declared per-module dependency table below, and fails the build (ctest
entries `hisim_layers` / `hisim_layers_selftest`; CI `lint` job) on:

  module    a directory under src/ that is not declared in the table
            (new modules must be added here, deliberately, with their
            allowed dependencies)
  edge      an include crossing modules along an undeclared edge — an
            upward include (a lower layer reaching into a higher one) or
            a sideways one nobody signed off on
  cycle     a file-level include cycle (printed as the full chain)
  missing   a quoted include that resolves to no file under src/

Usage:
  hisim_layers.py [REPO_ROOT]   analyze <root>/src (default: this repo)
  hisim_layers.py --dot [ROOT]  emit the observed module DAG as Graphviz
                                (the ARCHITECTURE.md diagram)
  hisim_layers.py --self-test   run against tools/lint_fixtures/layers/

Exit status 0 = layering holds, 1 = violations (one per line as
path:line: [rule] message).
"""

import re
import sys
from pathlib import Path

# The declared architecture: module -> modules it may include directly.
# This table is the authority; an include the table does not allow is a
# violation even if it would compile. Keep edges tight — allow a new
# dependency only when the layering argument for it is written down in
# docs/ARCHITECTURE.md ("Static analysis").
DECLARED_DEPS = {
    "common": set(),
    "circuit": {"common"},
    "qasm": {"common", "circuit"},
    "dag": {"common", "circuit"},
    "opt": {"common", "circuit"},
    "noise": {"common", "circuit"},
    "partition": {"common", "circuit", "dag", "qasm"},
    "sv": {"common", "circuit", "partition"},
    "dist": {"common", "circuit", "dag", "partition", "sv", "noise"},
    "hisvsim": {"common", "circuit", "qasm", "dag", "opt", "sv",
                "partition", "noise", "dist"},
    # Circuit generators are leaf consumers of the circuit layer: nothing
    # in src/ may depend on them (only tests/benches/tools do).
    "circuits": {"common", "circuit"},
}

CXX_SUFFIXES = {".hpp", ".cpp", ".inl", ".h", ".cc"}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def module_of(rel):
    """Module name of a src/-relative POSIX path, or None for a file
    sitting directly in src/."""
    parts = rel.split("/")
    return parts[0] if len(parts) > 1 else None


def declared_depth(module, _memo={}):
    """Longest declared dependency chain below `module` (common = 0).
    Doubles as the cycle check on the declared table itself."""
    if module in _memo:
        depth = _memo[module]
        if depth is None:
            raise SystemExit(f"DECLARED_DEPS is cyclic at '{module}'")
        return depth
    _memo[module] = None  # in progress
    deps = DECLARED_DEPS[module]
    _memo[module] = 1 + max((declared_depth(d) for d in deps), default=-1)
    return _memo[module]


def scan(src_root):
    """Returns (files, edges): `files` is the set of src/-relative paths,
    `edges` is a list of (from_rel, lineno, include_path)."""
    files = set()
    edges = []
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(src_root).as_posix()
        files.add(rel)
        for i, line in enumerate(path.read_text(errors="replace")
                                 .splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if m:
                edges.append((rel, i, m.group(1)))
    return files, edges


def find_cycle(graph):
    """First file-level include cycle as a path list [a, b, ..., a], or
    None. Deterministic: nodes and neighbors visited in sorted order."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    stack = []

    def dfs(n):
        color[n] = GRAY
        stack.append(n)
        for m in sorted(graph.get(n, ())):
            if color.get(m, WHITE) == GRAY:
                return stack[stack.index(m):] + [m]
            if color.get(m, WHITE) == WHITE:
                cyc = dfs(m)
                if cyc:
                    return cyc
        stack.pop()
        color[n] = BLACK
        return None

    for n in sorted(graph):
        if color[n] == WHITE:
            cyc = dfs(n)
            if cyc:
                return cyc
    return None


def analyze(root):
    """Returns findings for <root>/src as (rel, lineno, rule, message)."""
    src_root = Path(root) / "src"
    if not src_root.is_dir():
        return [("src", 0, "module", f"no src/ directory under {root}")]
    files, edges = scan(src_root)
    findings = []

    for rel in sorted(files):
        mod = module_of(rel)
        if mod is None:
            findings.append((rel, 0, "module",
                             "file sits directly in src/ — every file "
                             "belongs to a declared module directory"))
        elif mod not in DECLARED_DEPS:
            findings.append((rel, 0, "module",
                             f"module '{mod}' is not declared in "
                             "tools/hisim_layers.py DECLARED_DEPS — new "
                             "modules are added there, with their allowed "
                             "dependencies, deliberately"))

    graph = {rel: set() for rel in files}
    for rel, lineno, inc in edges:
        if inc not in files:
            findings.append((rel, lineno, "missing",
                             f'include "{inc}" resolves to no file under '
                             "src/ (project includes are rooted at src/)"))
            continue
        graph[rel].add(inc)
        mod, imod = module_of(rel), module_of(inc)
        if mod == imod or mod not in DECLARED_DEPS \
                or imod not in DECLARED_DEPS:
            continue  # intra-module, or already reported as unknown
        if imod not in DECLARED_DEPS[mod]:
            allowed = ", ".join(sorted(DECLARED_DEPS[mod])) or "(nothing)"
            direction = "upward" if imod in DECLARED_DEPS \
                and declared_depth(imod) >= declared_depth(mod) \
                else "undeclared"
            findings.append((rel, lineno, "edge",
                             f'include "{inc}": {direction} dependency '
                             f"{mod} -> {imod}; {mod} may include only "
                             f"[{allowed}]"))

    cyc = find_cycle(graph)
    if cyc:
        findings.append((cyc[0], 0, "cycle",
                         "include cycle: " + " -> ".join(cyc)))
    return findings


def observed_module_edges(root):
    src_root = Path(root) / "src"
    files, edges = scan(src_root)
    out = set()
    for rel, _, inc in edges:
        if inc in files:
            a, b = module_of(rel), module_of(inc)
            if a and b and a != b:
                out.add((a, b))
    return out


def emit_dot(root):
    """Graphviz digraph of the observed module DAG, rank-grouped by
    declared depth (the dependent points at its dependency)."""
    edges = observed_module_edges(root)
    by_depth = {}
    for mod in DECLARED_DEPS:
        by_depth.setdefault(declared_depth(mod), []).append(mod)
    lines = ["digraph hisim_layers {",
             "  rankdir=BT;  // dependencies below their dependents",
             "  node [shape=box, fontname=monospace];"]
    for depth in sorted(by_depth):
        mods = "; ".join(f'"{m}"' for m in sorted(by_depth[depth]))
        lines.append(f"  {{ rank=same; {mods}; }}")
    for a, b in sorted(edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- self-test ---------------------------------------------------------------

# fixture tree -> set of rules it must trigger (empty = must pass clean).
FIXTURE_EXPECT = {
    "clean": set(),
    "upward": {"edge"},
    "cycle": {"cycle"},
    "unknown": {"module"},
    "missing": {"missing"},
}


def self_test(script_dir):
    fixtures = script_dir / "lint_fixtures" / "layers"
    failures = []
    for name, expected in sorted(FIXTURE_EXPECT.items()):
        tree = fixtures / name
        if not (tree / "src").is_dir():
            failures.append(f"missing fixture tree {name}/src")
            continue
        found = {rule for _, _, rule, _ in analyze(tree)}
        if found != expected:
            failures.append(f"{name}: expected rules {sorted(expected)}, "
                            f"got {sorted(found)}")
    # The dot emitter must report the clean fixture's one cross-module
    # edge and group modules by declared depth.
    dot = emit_dot(fixtures / "clean")
    if '"circuit" -> "common"' not in dot or "rank=same" not in dot:
        failures.append("emit_dot lost the clean fixture's edge/ranks")
    # The declared table itself must be a DAG with common at the bottom.
    if declared_depth("common") != 0 or declared_depth("hisvsim") < 3:
        failures.append("DECLARED_DEPS depths are implausible")
    for f in failures:
        print(f"self-test FAIL: {f}")
    if not failures:
        print(f"self-test OK: {len(FIXTURE_EXPECT)} fixture trees")
    return 1 if failures else 0


def main(argv):
    script_dir = Path(__file__).resolve().parent
    args = argv[1:]
    if args and args[0] == "--self-test":
        return self_test(script_dir)
    dot = bool(args) and args[0] == "--dot"
    if dot:
        args = args[1:]
    root = Path(args[0]).resolve() if args else script_dir.parent
    if dot:
        sys.stdout.write(emit_dot(root))
        return 0
    findings = analyze(root)
    for rel, line, rule, msg in findings:
        print(f"src/{rel}:{line}: [{rule}] {msg}")
    if findings:
        print(f"hisim-layers: {len(findings)} violation(s)")
        return 1
    mods = len(DECLARED_DEPS)
    print(f"hisim-layers: clean ({mods} modules, "
          f"{len(observed_module_edges(root))} module edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
