#!/usr/bin/env python3
"""hisim-lint: repository-specific static checks for the HiSVSIM tree.

Four rule families (see docs/ARCHITECTURE.md, "Correctness tooling"):

  rng       Nondeterminism primitives -- libc rand()/srand()/time(),
            std::random_device, and unseeded std::mt19937 -- are forbidden
            outside the sanctioned RNG module. Reproducibility (fixed-seed
            bit-identical runs) is a load-bearing contract of the simulator:
            every draw must flow through hisim::Rng with an explicit seed.

  simd      AVX2 intrinsics (immintrin.h / _mm256_* / __m256*) may appear
            only in the dedicated -mavx2 translation unit. Any other TU
            touching them would execute illegal instructions on non-AVX2
            hosts, defeating the runtime-dispatch design.

  thread    Raw std::thread / std::jthread are confined to the worker-pool
            module. Everything else must go through hisim::task_group so
            thread counts, affinity, and sanitizer suppressions stay
            centralized.

  hw_concurrency
            std::thread::hardware_concurrency() is confined to
            src/common/parallel.cpp, which asks once and caches the answer.
            Everywhere else in src/ reads parallel::num_threads(): the
            query can cost a syscall, and on a hot path such as the pool's
            for_range a per-call query can dominate a run.

  mutex     Raw std::mutex / std::condition_variable / std::lock_guard /
            std::unique_lock / std::scoped_lock are confined to
            src/common/parallel.* -- everywhere else in src/ must use the
            capability-annotated hisim::Mutex / MutexLock / CondVar
            wrappers, or Clang's thread-safety analysis cannot see the
            locking (src/common/thread_annotations.hpp).

  sleep     std::this_thread::sleep_for/sleep_until are forbidden in src/:
            production code never synchronizes by sleeping -- use a CondVar
            wait or a latch. (Tests/benches are exempt; timing probes
            there are legitimate.)

  chrono    Raw std::chrono (steady_clock and friends) is confined to
            common/timer.hpp and the trace layer (common/trace.*) in src/.
            Everywhere else times through hisim::Timer/Stopwatch or a
            trace::TraceSpan so clock choice, unit conversions, and the
            trace timeline stay in one place -- ad-hoc now() calls are how
            mixed-clock timestamps and double-counted phases creep in.
            (Tests/benches are exempt, same as sleep.)

  include   Hygiene: no relative-parent ("../") includes (all project
            includes are rooted at src/), and no `using namespace` at
            header scope.

Usage:
  hisim_lint.py [REPO_ROOT]   lint the tree (default: script's repo)
  hisim_lint.py --self-test   run the linter against its fixtures

Exit status 0 = clean, 1 = findings (printed one per line as
path:line: [rule] message).
"""

import re
import sys
from pathlib import Path

# Files allowed to use each restricted construct, as POSIX paths relative
# to the repo root.
SANCTIONED = {
    "rng": {
        "src/common/rng.hpp",
        "src/common/rng.cpp",
    },
    "simd": {
        "src/sv/kernels_avx2.cpp",
    },
    "thread": {
        "src/common/parallel.hpp",
        "src/common/parallel.cpp",
    },
    # The one place the hardware thread count is queried (and cached).
    "hw_concurrency": {
        "src/common/parallel.cpp",
    },
    # The annotated wrappers themselves are the only place the raw
    # primitives may appear; everything else uses hisim::Mutex et al.
    "mutex": {
        "src/common/parallel.hpp",
        "src/common/parallel.cpp",
    },
    # The timing wrappers and the trace clock are the only direct
    # std::chrono users; everything else goes through Timer/TraceSpan.
    "chrono": {
        "src/common/timer.hpp",
        "src/common/trace.hpp",
        "src/common/trace.cpp",
    },
}

# Directories scanned, relative to the repo root.
SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
CXX_SUFFIXES = {".hpp", ".cpp", ".inl", ".h", ".cc"}

RNG_PATTERNS = [
    (re.compile(r"\bs?rand\s*\("), "libc rand()/srand()"),
    (re.compile(r"\btime\s*\("), "libc time()"),
    (re.compile(r"std\s*::\s*random_device"), "std::random_device"),
    # Default-constructed (unseeded) mt19937: declaration with no
    # initializer, or an empty ()/{} initializer. A seeded construction
    # (std::mt19937 g(seed)) does not match, but is still nondeterminism
    # smuggled past hisim::Rng -- flag every mt19937 outside the RNG module.
    (re.compile(r"std\s*::\s*mt19937(?:_64)?\b"), "std::mt19937"),
]
SIMD_PATTERNS = [
    (re.compile(r'#\s*include\s*[<"](?:x86)?(?:imm|avx2?)intrin\.h[>"]'),
     "intrinsics header include"),
    (re.compile(r"\b_mm256?_\w+"), "AVX2 intrinsic call"),
    (re.compile(r"\b__m256[id]?\b"), "AVX2 vector type"),
]
THREAD_PATTERN = re.compile(r"std\s*::\s*j?thread\b")
HW_CONCURRENCY_PATTERN = re.compile(r"\bhardware_concurrency\b")
MUTEX_PATTERN = re.compile(
    r"std\s*::\s*(?:recursive_|timed_|shared_)?mutex\b"
    r"|std\s*::\s*condition_variable(?:_any)?\b"
    r"|std\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b")
SLEEP_PATTERN = re.compile(r"std\s*::\s*this_thread\s*::\s*sleep_(?:for|until)\b")
CHRONO_PATTERN = re.compile(
    r"std\s*::\s*chrono\b"
    r"|\b(?:steady|system|high_resolution)_clock\b")
PARENT_INCLUDE = re.compile(r'#\s*include\s*"\.\./')
USING_NAMESPACE = re.compile(r"\busing\s+namespace\b")

_COMMENT_OR_STRING = re.compile(
    r'//[^\n]*'            # line comment
    r'|/\*.*?\*/'          # block comment
    r'|"(?:\\.|[^"\\\n])*"'   # string literal
    r"|'(?:\\.|[^'\\\n])'",   # char literal
    re.DOTALL,
)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving newlines so
    line numbers in findings stay exact."""
    def blank(m):
        s = m.group(0)
        # Keep include paths visible: the include-hygiene rules match on
        # the quoted path itself.
        return "".join(c if c == "\n" else " " for c in s)

    # Includes are handled before blanking (see lint_file), so blanking
    # every literal here is safe.
    return _COMMENT_OR_STRING.sub(blank, text)


def lint_file(rel, text, sanctioned=SANCTIONED):
    """Returns findings for one file as (rel, lineno, rule, message)."""
    findings = []
    is_header = rel.endswith((".hpp", ".h", ".inl"))
    # Containment rules police production code: tests spawn raw threads on
    # purpose (thread-safety suites) and may probe hardware_concurrency.
    # The rng rule applies everywhere -- a nondeterministic test is flaky.
    in_src = rel.startswith("src/")

    # Include hygiene runs on the raw text: the offending token is inside a
    # quoted include path, which stripping would blank.
    for i, line in enumerate(text.splitlines(), 1):
        if PARENT_INCLUDE.search(line):
            findings.append((rel, i, "include",
                             'relative-parent include ("../"): project '
                             "includes are rooted at src/"))

    stripped = strip_comments_and_strings(text)
    for i, line in enumerate(stripped.splitlines(), 1):
        if is_header and USING_NAMESPACE.search(line):
            findings.append((rel, i, "include",
                             "`using namespace` at header scope leaks into "
                             "every includer"))
        if rel not in sanctioned["rng"]:
            for pat, what in RNG_PATTERNS:
                if pat.search(line):
                    findings.append((rel, i, "rng",
                                     f"{what}: all randomness must flow "
                                     "through hisim::Rng with an explicit "
                                     "seed (src/common/rng.hpp)"))
        if in_src and rel not in sanctioned["simd"]:
            for pat, what in SIMD_PATTERNS:
                if pat.search(line):
                    findings.append((rel, i, "simd",
                                     f"{what} outside the dedicated -mavx2 "
                                     "TU (src/sv/kernels_avx2.cpp) would "
                                     "crash non-AVX2 hosts"))
        if in_src and rel not in sanctioned["thread"] \
                and THREAD_PATTERN.search(line):
            findings.append((rel, i, "thread",
                             "raw std::thread outside the worker pool "
                             "(src/common/parallel.*); use "
                             "hisim::task_group"))
        if in_src and rel not in sanctioned["hw_concurrency"] \
                and HW_CONCURRENCY_PATTERN.search(line):
            findings.append((rel, i, "hw_concurrency",
                             "hardware_concurrency() outside "
                             "src/common/parallel.cpp; read "
                             "parallel::num_threads(), which caches it"))
        if in_src and rel not in sanctioned["mutex"] \
                and MUTEX_PATTERN.search(line):
            findings.append((rel, i, "mutex",
                             "raw std:: locking primitive outside "
                             "src/common/parallel.*; use the annotated "
                             "hisim::Mutex/MutexLock/CondVar wrappers so "
                             "the thread-safety analysis sees the lock"))
        if in_src and SLEEP_PATTERN.search(line):
            findings.append((rel, i, "sleep",
                             "std::this_thread::sleep_* in production "
                             "code: synchronize with a CondVar wait or a "
                             "latch, never by sleeping"))
        if in_src and rel not in sanctioned["chrono"] \
                and CHRONO_PATTERN.search(line):
            findings.append((rel, i, "chrono",
                             "raw std::chrono outside common/timer.hpp "
                             "and common/trace.*; time through "
                             "hisim::Timer/Stopwatch or a "
                             "trace::TraceSpan"))
    return findings


def lint_tree(root):
    findings = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if rel.startswith("tools/lint_fixtures/"):
                continue  # intentionally-bad self-test inputs
            findings.extend(lint_file(rel, path.read_text(errors="replace")))
    return findings


# --- self-test ---------------------------------------------------------------

# fixture file -> set of rule names it must trigger (empty = must be clean).
FIXTURE_EXPECT = {
    "bad_rng.cpp": {"rng"},
    "bad_simd.cpp": {"simd"},
    "bad_thread.cpp": {"thread"},
    # Spelled through std::thread, so the thread rule fires as well.
    "bad_hw_concurrency.cpp": {"thread", "hw_concurrency"},
    "bad_mutex.cpp": {"mutex"},
    "bad_sleep.cpp": {"sleep"},
    "bad_chrono.cpp": {"chrono"},
    "bad_include.hpp": {"include"},
    "good_clean.cpp": set(),
    "good_commented.cpp": set(),
}


def self_test(script_dir):
    fixtures = script_dir / "lint_fixtures"
    failures = []
    for name, expected in sorted(FIXTURE_EXPECT.items()):
        path = fixtures / name
        if not path.is_file():
            failures.append(f"missing fixture {name}")
            continue
        # Fixtures are linted as if they sat under src/, where every rule
        # family applies.
        found = {rule for _, _, rule, _ in
                 lint_file(f"src/{name}", path.read_text())}
        if found != expected:
            failures.append(
                f"{name}: expected rules {sorted(expected)}, got "
                f"{sorted(found)}")
    # A sanctioned file must not be flagged for its own rule.
    sanctioned_probe = lint_file("src/common/rng.hpp",
                                 "#include <random>\nstd::random_device d;\n")
    if any(rule == "rng" for _, _, rule, _ in sanctioned_probe):
        failures.append("sanctioned file src/common/rng.hpp was flagged")
    wrapper_probe = lint_file("src/common/parallel.hpp",
                              "#include <mutex>\nstd::mutex mu;\n"
                              "std::unique_lock<std::mutex> lk(mu);\n")
    if any(rule == "mutex" for _, _, rule, _ in wrapper_probe):
        failures.append("sanctioned file src/common/parallel.hpp was "
                        "flagged for mutex")
    # The pool header may name std::thread but not query the count; the
    # pool source is the one sanctioned caller.
    hw_probe = "unsigned n = std::thread::hardware_concurrency();\n"
    if {rule for _, _, rule, _ in
            lint_file("src/common/parallel.hpp", hw_probe)} != \
            {"hw_concurrency"}:
        failures.append("src/common/parallel.hpp not flagged (alone) for "
                        "hw_concurrency")
    if lint_file("src/common/parallel.cpp", hw_probe):
        failures.append("sanctioned file src/common/parallel.cpp was "
                        "flagged for hw_concurrency")
    # The mutex/sleep/chrono rules police src/ only: tests may lock,
    # sleep, and time things directly.
    test_probe = lint_file(
        "tests/test_x.cpp",
        "#include <mutex>\nstd::mutex mu;\n"
        "void f() { std::this_thread::sleep_for(d); }\n"
        "auto t = std::chrono::steady_clock::now();\n")
    if any(rule in ("mutex", "sleep", "chrono")
           for _, _, rule, _ in test_probe):
        failures.append("mutex/sleep/chrono rules leaked outside src/")
    # The clock wrappers themselves are sanctioned for chrono.
    chrono_probe = lint_file(
        "src/common/timer.hpp",
        "#include <chrono>\n"
        "auto t = std::chrono::steady_clock::now();\n")
    if any(rule == "chrono" for _, _, rule, _ in chrono_probe):
        failures.append("sanctioned file src/common/timer.hpp was flagged "
                        "for chrono")
    for f in failures:
        print(f"self-test FAIL: {f}")
    if not failures:
        print(f"self-test OK: {len(FIXTURE_EXPECT)} fixtures")
    return 1 if failures else 0


def main(argv):
    script_dir = Path(__file__).resolve().parent
    if len(argv) > 1 and argv[1] == "--self-test":
        return self_test(script_dir)
    root = Path(argv[1]).resolve() if len(argv) > 1 else script_dir.parent
    findings = lint_tree(root)
    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if findings:
        print(f"hisim-lint: {len(findings)} finding(s)")
        return 1
    print("hisim-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
