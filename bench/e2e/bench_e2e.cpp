// End-to-end benchmark program: times the public API (Engine::compile,
// ExecutionPlan::execute / execute_sweep) on one workload and checks every
// timed output against a flat scalar reference. run.py builds and drives
// it; README.md describes the workloads and every metric.
//
//   bench_e2e probe  [--mib M]
//   bench_e2e golden --workload W --seed S [--quick]
//   bench_e2e setup  --workload W --seed S --seconds T [--quick]
//   bench_e2e run    --workload W --seed S --seconds T --trace 0|1
//                    [--quick] [--trace-out PATH] [--stream-gbps G]
//                    [--expect CASE@QUBITS=v1,v2,...]...
//
// `run` prints human-readable `#` lines, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/generators.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dag/circuit_dag.hpp"
#include "hisvsim/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/observables.hpp"

namespace {

using namespace hisim;

// The QAOA problem graph is fixed so that every seed runs the same
// partition structure: on random graphs the hierarchical execute time
// varies by more than 2x between seeds, which would drown any change in
// seed-to-seed spread. The seed draws the angles and the check weights.
constexpr std::uint64_t kGraphSeed = 7;
constexpr unsigned kQuickQubits = 12;
// At least two untraced rounds, so that the repeat check runs; more only
// while they fit the run's --seconds, which bounds a run's length on a
// slow host (a 24-qubit round takes 5-12 s).
constexpr unsigned kExecRounds = 2;
// Set-up is timed in separate `bench_e2e setup` processes. A compile takes
// 0.2-10 ms, and on the reference host one process can run it 1.5x slower
// than the next for its whole life, so a run takes the median over
// several processes: one before the executes, one after each kSetupEvery
// seconds of executes, and at least kSetupProcs in all. Each compiles
// round-robin for kSetupWindow, at least kSetupReps per case.
constexpr unsigned kSetupProcs = 5;
constexpr double kSetupEvery = 2.0;
constexpr double kSetupWindow = 0.2;
constexpr unsigned kSetupReps = 5;
constexpr std::size_t kSweepPoints = 8;
constexpr std::size_t kCheckWeights = 1021;
constexpr double kTolerance = 1e-9;
constexpr double kAmpBytes = 16.0;

struct Workload {
  const char* name;
  Target target;
  unsigned qubits;
  unsigned limit;           // Options::limit; 0 = the engine's auto limit
  unsigned process_qubits;  // distributed targets only
  bool sweep;
};

// Sizes: the 24-qubit state (256 MiB) is 2.4x the 105 MiB LLC of the
// 4-core reference host, so flat, hier and dist stream a DRAM-resident
// state. The sweep runs 22 qubits to fit the run time (it keeps four
// states live at once). `blocked` runs 20: its time is per-call overhead,
// which moves with host load by up to 2x within seconds, so it needs the
// dozens of executes per run that 20 qubits allow for a steady median.
const Workload kWorkloads[] = {
    {"flat", Target::Flat, 24, 0, 0, false},
    {"hier", Target::Hierarchical, 24, 0, 0, false},
    {"blocked", Target::Hierarchical, 20, 14, 0, false},
    {"dist", Target::DistributedThreaded, 24, 0, 2, false},
    {"sweep", Target::Hierarchical, 22, 0, 0, true},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

Options options_for(const Workload& w) {
  Options o;
  o.target = w.target;
  o.limit = w.limit;
  o.process_qubits = w.process_qubits;
  return o;
}

struct Case {
  std::string name;
  Circuit circuit;                    // what Engine::compile receives
  std::vector<ParamBinding> points;   // sweep only
  std::vector<sv::PauliString> zz;    // sweep only: one Z_a Z_b per edge
};

std::vector<Case> make_cases(const Workload& w, unsigned n,
                             std::uint64_t seed) {
  const circuits::QaoaInstance inst = circuits::qaoa_instance(n, 2, kGraphSeed);
  std::vector<Case> cases;
  if (w.sweep) {
    Case c{"qaoa-sweep", inst.circuit, {}, {}};
    Rng rng(seed);
    for (std::size_t i = 0; i < kSweepPoints; ++i) {
      const double gamma = rng.uniform(0.1, M_PI);
      const double beta = rng.uniform(0.1, M_PI / 2);
      c.points.push_back(inst.uniform_binding(gamma, beta));
    }
    for (const auto& [a, b] : inst.edges) {
      sv::PauliString zz;
      zz.factors = {{a, sv::Pauli::Z}, {b, sv::Pauli::Z}};
      c.zz.push_back(std::move(zz));
    }
    cases.push_back(std::move(c));
    return cases;
  }
  // QFT of |0...0> is the uniform state whatever its phases do, so the
  // QFT runs on a seeded RY product state that every gate acts on.
  Rng prep(seed);
  Circuit qft(n, "qft");
  for (Qubit q = 0; q < n; ++q) qft.add(Gate::ry(q, prep.uniform(0.1, M_PI)));
  qft.append(circuits::qft(n));
  cases.push_back({"qft", std::move(qft), {}, {}});
  // Same draw as circuits::qaoa(n, 2, seed), on the fixed graph: seed 7
  // reproduces circuits::qaoa(n, 2, 7) exactly.
  Rng rng(seed ^ 0xA0A0ull);
  ParamBinding angles;
  for (std::size_t r = 0; r < inst.gammas.size(); ++r) {
    angles[inst.gammas[r]] = rng.uniform(0.1, M_PI);
    angles[inst.betas[r]] = rng.uniform(0.1, M_PI / 2);
  }
  Circuit qaoa = inst.circuit.bound(angles);
  qaoa.set_name("qaoa-p2");
  cases.push_back({"qaoa-p2", std::move(qaoa), {}, {}});
  return cases;
}

std::vector<double> check_weights(std::uint64_t seed) {
  Rng rng(seed ^ 0xF1D0F1D0ull);
  std::vector<double> w(kCheckWeights);
  for (double& x : w) x = rng.uniform(-1.0, 1.0);
  return w;
}

// ---------------------------------------------------------------------------
// Output checks

constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

std::uint64_t mix(std::uint64_t h, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return (h ^ bits) * 0x100000001b3ull;
}

std::uint64_t state_digest(const sv::StateVector& s, double norm) {
  std::uint64_t h = kDigestSeed;
  const cplx* a = s.data();
  for (Index i = 0; i < s.size(); ++i)
    h = mix(mix(h, a[i].real()), a[i].imag());
  return mix(h, norm);
}

/// What one execution produced, reduced to what the checks compare:
/// `values` against the reference within kTolerance, `digest` bit-for-bit
/// against the previous rep, `first_digest` against the serial replay of
/// sweep point 0 (state cases: the state's digest).
struct Outcome {
  std::vector<double> values;
  std::uint64_t digest = 0;
  std::uint64_t first_digest = 0;
  double norm_error = 0.0;
};

/// Fingerprint sum_i psi_i * w[i mod 1021], plus the norm.
Outcome state_outcome(const sv::StateVector& s, double norm,
                      const std::vector<double>& w) {
  double re = 0.0, im = 0.0;
  std::size_t j = 0;
  const cplx* a = s.data();
  for (Index i = 0; i < s.size(); ++i) {
    re += a[i].real() * w[j];
    im += a[i].imag() * w[j];
    if (++j == w.size()) j = 0;
  }
  const std::uint64_t h = state_digest(s, norm);
  return {{re, im, norm}, h, h, std::abs(norm - 1.0)};
}

/// MaxCut energy sum_e (1 - <Z_a Z_b>) / 2 of one point.
double energy(const std::vector<double>& zz) {
  double e = 0.0;
  for (double v : zz) e += 0.5 * (1.0 - v);
  return e;
}

std::uint64_t point_digest(const std::vector<double>& zz, double norm) {
  std::uint64_t h = kDigestSeed;
  for (double v : zz) h = mix(h, v);
  return mix(h, norm);
}

Outcome sweep_outcome(const std::vector<Result>& rs) {
  Outcome o;
  o.digest = kDigestSeed;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    o.values.push_back(energy(rs[i].observables));
    const std::uint64_t d = point_digest(rs[i].observables, rs[i].norm);
    if (i == 0) o.first_digest = d;
    o.digest = (o.digest ^ d) * 0x100000001b3ull;
    o.norm_error = std::max(o.norm_error, std::abs(rs[i].norm - 1.0));
  }
  return o;
}

ExecOptions sweep_options(const Case& c) {
  ExecOptions x;
  x.want_state = false;
  x.observables = c.zz;
  return x;
}

/// One execution of a case: what the checks compare, the engine's
/// results (one per sweep point, else one, with the state), and the wall
/// time of the API call alone.
struct Run {
  Outcome outcome;
  std::vector<Result> results;
  double seconds = 0.0;
};

Run run_case(const ExecutionPlan& plan, const Case& c,
             const std::vector<double>& w) {
  Run run;
  trace::TraceSpan span("execute", "bench");
  if (!c.points.empty()) {
    const ExecOptions x = sweep_options(c);
    Timer t;
    run.results = plan.execute_sweep(c.points, x);
    run.seconds = t.seconds();
    run.outcome = sweep_outcome(run.results);
    return run;
  }
  Timer t;
  Result r = plan.execute();
  run.seconds = t.seconds();
  run.outcome = state_outcome(r.state, r.norm, w);
  run.results.push_back(std::move(r));
  return run;
}

/// The reference: flat target, scalar kernel tier, no optimization passes.
std::vector<double> reference_values(const Case& c,
                                     const std::vector<double>& w) {
  Options o;
  o.target = Target::Flat;
  o.kernel_tier = sv::KernelTier::Scalar;
  o.opt_level = 0;
  return run_case(Engine::compile(c.circuit, o), c, w).outcome.values;
}

/// Counts operations and failures; every failure is reported on stderr.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void pass() { ++attempted; }
  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
};

/// Checks an outcome against the reference and the previous rep's digest
/// (nullptr = no previous rep). Returns an empty string when it passes.
std::string check(const Outcome& o, const std::vector<double>& ref,
                  const std::uint64_t* previous) {
  char buf[256];
  if (o.norm_error > kTolerance) {
    std::snprintf(buf, sizeof buf, "norm off by %.3g", o.norm_error);
    return buf;
  }
  if (o.values.size() != ref.size()) return "reference has a different shape";
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (!(std::abs(o.values[i] - ref[i]) <= kTolerance)) {
      std::snprintf(buf, sizeof buf,
                    "value %zu is %.17g, reference %.17g", i, o.values[i],
                    ref[i]);
      return buf;
    }
  if (previous != nullptr && *previous != o.digest)
    return "not bit-identical to the previous rep";
  return {};
}

// ---------------------------------------------------------------------------
// Small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double llc_mib() {
  long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes <= 0) bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return bytes > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) : 0.0;
}

std::string self_path() {
  char buf[4096];
  const ssize_t len = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) throw std::runtime_error("cannot read /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(len));
}

unsigned bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, hw));
}

/// A Result::metrics value; 0 when the target does not report the key.
double metric(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// Runs f() under a bench-category span and adds its wall time to `acc`.
template <typename F>
auto timed(double& acc, const char* span_name, F&& f) {
  trace::TraceSpan span(span_name, "bench");
  Timer t;
  auto result = f();
  acc += t.seconds();
  return result;
}

/// Round-robin rounds until `budget` seconds are spent: a new round starts
/// only when the mean round so far still fits, and at least `min_rounds`
/// run whatever the budget.
void run_rounds(double budget, unsigned min_rounds,
                const std::function<void()>& round) {
  Timer t;
  for (unsigned r = 0;; ++r) {
    if (r >= min_rounds && t.seconds() * (r + 1.0) / r > budget) break;
    round();
  }
}

struct MetricOut {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<MetricOut>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Host stream probe

/// Read+write pass over `mib` MiB on `threads` std::threads; GB/s of the
/// median of three passes (the first touch is untimed).
double stream_gbps(std::size_t mib, unsigned threads) {
  const std::size_t count = mib * 1024 * 1024 / sizeof(double);
  std::vector<double> a(count, 1.0);
  std::vector<double> secs;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    std::vector<std::thread> pool;
    for (unsigned k = 0; k < threads; ++k)
      pool.emplace_back([&a, k, threads, count] {
        const std::size_t lo = count * k / threads;
        const std::size_t hi = count * (k + 1) / threads;
        for (std::size_t i = lo; i < hi; ++i) a[i] = a[i] * 0.5 + 0.5;
      });
    for (std::thread& th : pool) th.join();
    secs.push_back(t.seconds());
  }
  return 2.0 * static_cast<double>(count * sizeof(double)) / median(secs) /
         1e9;
}

// ---------------------------------------------------------------------------
// Per-layer split (traced runs)

/// One traced round of one case. Compile and execute phases come from the
/// engine's own timers (Result::metrics); the bench times only what the
/// engine does not report: the DAG build and the observables.
struct Layers {
  double wall = 0.0;     // the execute call (sweep: point 0, serially)
  double move = 0.0;     // execute wall minus apply, plus the shard gather
  double apply = 0.0;
  double observe = 0.0;  // norm, plus the sweep's expectations
  double dag = 0.0;      // dag::CircuitDag on the plan's circuit
  double outer_bytes = 0.0, outer_s = 0.0;  // hierarchical gather+scatter
  double exchanges = 0.0, exchange_bytes = 0.0;
};

/// Adds the execute-side phases one Result reports.
void add_engine_layers(const std::map<std::string, double>& m,
                       bool distributed, Layers& L) {
  // The distributed executor reports per-step distributions (".sum" is
  // the run total); its "gather.seconds" is the shard gather that follows
  // the execute wall, where the hierarchical one is inside it.
  const double apply =
      metric(m, distributed ? "apply.seconds.sum" : "apply.seconds");
  L.apply += apply;
  L.move += metric(m, "execute.wall_seconds") - apply;
  if (distributed) {
    L.move += metric(m, "gather.seconds");
  } else {
    L.outer_s += metric(m, "gather.seconds") + metric(m, "scatter.seconds");
    L.outer_bytes += metric(m, "sv.outer_bytes_moved");
  }
  L.exchanges += metric(m, "exchange.count");
  L.exchange_bytes += metric(m, "exchange.bytes");
}

struct KernelStat {
  double seconds = 0.0, calls = 0.0, bytes = 0.0;
};

/// The plan's circuit gate by gate through sv::apply_gate on the full
/// state, as the flat target runs it, timed per gate kind. Bytes are
/// computed: 32 B per amplitude (read and written) per gate.
std::uint64_t replay_kernels(const Circuit& c, const sv::KernelOps& k,
                             std::map<std::string, KernelStat>& kernels) {
  sv::StateVector state(c.num_qubits());
  const double amps = static_cast<double>(state.size());
  for (const Gate& g : c.gates()) {
    const std::string kind = gate_name(g.kind);
    trace::TraceSpan span(trace::intern("kernel." + kind), "bench");
    Timer t;
    sv::apply_gate(state, g, k);
    KernelStat& ks = kernels[kind];
    ks.seconds += t.seconds();
    ks.calls += 1.0;
    ks.bytes += 2.0 * kAmpBytes * amps;
  }
  return state_digest(state, state.norm());
}

// ---------------------------------------------------------------------------
// Commands

struct Args {
  std::string command, workload, trace_out;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  double stream = 0.0;
  std::size_t mib = 512;
  std::map<std::string, std::vector<double>> expect;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e probe|golden|setup|run "
               "[--workload W] [--seed S] [--seconds T] [--trace 0|1] "
               "[--quick] [--trace-out PATH] [--stream-gbps G] "
               "[--expect CASE@QUBITS=v,...] [--mib M]\n",
               why.c_str());
  std::exit(2);
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    char* end = nullptr;
    const std::string item = s.substr(pos, comma - pos);
    out.push_back(std::strtod(item.c_str(), &end));
    if (item.empty() || *end != '\0') usage("bad number '" + item + "'");
    pos = comma + 1;
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--trace-out") a.trace_out = val;
    else if (key == "--stream-gbps")
      a.stream = std::strtod(val.c_str(), nullptr);
    else if (key == "--mib") a.mib = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--expect") {
      const std::size_t eq = val.find('=');
      if (eq == std::string::npos) usage("--expect needs CASE@QUBITS=values");
      a.expect[val.substr(0, eq)] = parse_list(val.substr(eq + 1));
    } else {
      usage("unknown flag " + key);
    }
  }
  return a;
}

int cmd_probe(const Args& a) {
  const unsigned threads = bench_threads();
  std::printf("{\"stream_gbps\": %.17g, \"threads\": %u, \"mib\": %zu}\n",
              stream_gbps(a.mib, threads), threads, a.mib);
  return 0;
}

int cmd_golden(const Args& a, const Workload& w) {
  const unsigned n = a.quick ? kQuickQubits : w.qubits;
  const std::vector<double> weights = check_weights(a.seed);
  std::printf("{\"n\": %u, \"cases\": {", n);
  const std::vector<Case> cases = make_cases(w, n, a.seed);
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const std::vector<double> v = reference_values(cases[ci], weights);
    std::printf("%s\"%s\": [", ci ? ", " : "", cases[ci].name.c_str());
    for (std::size_t i = 0; i < v.size(); ++i)
      std::printf("%s%.17g", i ? ", " : "", v[i]);
    std::printf("]");
  }
  std::printf("}}\n");
  return 0;
}

/// Compiles round-robin across cases for --seconds, at least kSetupReps
/// per case, and prints "<attempted> <failed>" and per case "<median s>
/// <compiles>" on one line.
int cmd_setup(const Args& a, const Workload& w) {
  const unsigned n = a.quick ? kQuickQubits : w.qubits;
  const std::vector<Case> cases = make_cases(w, n, a.seed);
  const Options opt = options_for(w);
  Tally tally;
  std::vector<std::vector<double>> s(cases.size());
  run_rounds(a.seconds, kSetupReps, [&] {
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      try {
        Timer t;
        const ExecutionPlan plan = Engine::compile(cases[ci].circuit, opt);
        s[ci].push_back(t.seconds());
        tally.pass();
      } catch (const std::exception& e) {
        tally.fail(cases[ci].name + " compile: " + e.what());
      }
    }
  });
  std::printf("%zu %zu", tally.attempted, tally.failed);
  for (const std::vector<double>& v : s)
    std::printf(" %.17g %zu", median(v), v.size());
  std::printf("\n");
  return 0;
}

int cmd_run(const Args& a, const Workload& w) {
  if constexpr (checked_build) {
    std::fprintf(stderr, "bench_e2e: refusing a checked build (HISIM_CHECKED)"
                         ": armed validators perturb timings\n");
    return 2;
  }
  const unsigned threads = bench_threads();
  parallel::set_num_threads(threads);
  const unsigned n = a.quick ? kQuickQubits : w.qubits;
  const bool distributed = target_is_distributed(w.target);
  const Options opt = options_for(w);
  const std::vector<Case> cases = make_cases(w, n, a.seed);
  const std::vector<double> weights = check_weights(a.seed);
  const std::size_t nc = cases.size();
  Tally tally;

  // Warm-up: spin up the worker pool and backend threads on the target.
  for (const Case& c : make_cases(w, kQuickQubits, a.seed))
    run_case(Engine::compile(c.circuit, opt), c, weights);

  // The plans the executes run; set-up is timed in separate processes.
  std::vector<ExecutionPlan> plans;
  for (const Case& c : cases) {
    plans.push_back(Engine::compile(c.circuit, opt));
    tally.pass();
  }

  // One `bench_e2e setup` process: adds its per-case medians to setup_s
  // and its operations to the tally.
  std::vector<std::vector<double>> setup_s(nc);
  std::size_t setup_samples = 0;
  const std::string setup_cmd =
      "'" + self_path() + "' setup --workload " + w.name + " --seed " +
      std::to_string(a.seed) + " --seconds " +
      std::to_string(a.quick ? 0.0 : kSetupWindow) +
      (a.quick ? " --quick" : "");
  const auto setup_process = [&] {
    std::string out;
    FILE* p = popen(setup_cmd.c_str(), "r");
    if (p != nullptr) {
      char buf[512];
      while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    }
    const int status = p != nullptr ? pclose(p) : -1;
    std::istringstream in(out);
    std::size_t attempted = 0, failed = 0;
    bool ok = status == 0 && static_cast<bool>(in >> attempted >> failed);
    std::vector<double> med(nc);
    std::vector<std::size_t> count(nc);
    for (std::size_t ci = 0; ci < nc && ok; ++ci)
      ok = static_cast<bool>(in >> med[ci] >> count[ci]);
    if (!ok) {
      tally.fail("set-up process: exit status " + std::to_string(status));
      return;
    }
    tally.attempted += attempted;
    tally.failed += failed;
    for (std::size_t ci = 0; ci < nc; ++ci)
      if (count[ci] > 0) {
        setup_s[ci].push_back(med[ci]);
        setup_samples += count[ci];
      }
  };

  // Reference outputs: golden.json's when run.py passed them, otherwise
  // computed here, untimed.
  std::vector<std::vector<double>> ref(nc);
  bool computed = false;
  for (std::size_t ci = 0; ci < nc; ++ci) {
    const auto it = a.expect.find(cases[ci].name + "@" + std::to_string(n));
    if (it != a.expect.end()) {
      ref[ci] = it->second;
    } else {
      ref[ci] = reference_values(cases[ci], weights);
      computed = true;
    }
  }

  std::printf("# workload=%s target=%s n=%u seed=%llu threads=%u kernel=%s "
              "reference=%s\n",
              w.name, target_name(w.target), n,
              static_cast<unsigned long long>(a.seed), threads,
              sv::kernel_tier_name(plans[0].kernel_tier()),
              computed ? "computed in-run (seed not in golden.json)"
                       : "golden.json");
  std::printf("# host: stream_gbps=%.2f llc_mib=%.1f state_mib=%.1f\n",
              a.stream, llc_mib(),
              kAmpBytes * static_cast<double>(dim(n)) / (1024.0 * 1024.0));

  // Executes one case, checks it after the timer stopped, and records the
  // time and digest of a passing rep. Returns whether it passed.
  std::vector<std::vector<double>> exec_s(nc);
  std::vector<std::uint64_t> last_digest(nc, 0);
  std::vector<std::uint64_t> last_first(nc, 0);
  std::vector<bool> has_digest(nc, false);
  const auto attempt = [&](std::size_t ci, const char* label, Run& run) {
    const Case& c = cases[ci];
    const std::size_t ops = c.points.empty() ? 1 : c.points.size();
    try {
      run = run_case(plans[ci], c, weights);
    } catch (const std::exception& e) {
      for (std::size_t i = 0; i < ops; ++i)
        tally.fail(c.name + " " + label + ": " + e.what());
      return false;
    }
    const std::string why = check(run.outcome, ref[ci],
                                  has_digest[ci] ? &last_digest[ci] : nullptr);
    if (!why.empty()) {
      for (std::size_t i = 0; i < ops; ++i)
        tally.fail(c.name + " " + label + ": " + why);
      return false;
    }
    for (std::size_t i = 0; i < ops; ++i) tally.pass();
    last_digest[ci] = run.outcome.digest;
    last_first[ci] = run.outcome.first_digest;
    has_digest[ci] = true;
    return true;
  };

  std::vector<MetricOut> metrics;
  if (!a.trace) {
    setup_process();
    unsigned procs = 1;
    Timer since_setup;
    run_rounds(a.seconds, kExecRounds, [&] {
      for (std::size_t ci = 0; ci < nc; ++ci) {
        Run run;
        if (attempt(ci, "execute", run)) exec_s[ci].push_back(run.seconds);
        if (since_setup.seconds() >= kSetupEvery) {
          setup_process();
          ++procs;
          since_setup.reset();
        }
      }
    });
    for (; procs < kSetupProcs; ++procs) setup_process();
    double exec_total = 0.0, setup_total = 0.0;
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const std::vector<double>& t = exec_s[ci];
      const double med = median(t);
      exec_total += med;
      setup_total += median(setup_s[ci]);
      std::printf("# case %s: exec median=%.4f s min=%.4f max=%.4f "
                  "samples=%zu; setup median=%.3f ms processes=%zu; "
                  "parts=%zu\n"
                  "#   exec samples (s):",
                  cases[ci].name.c_str(), med,
                  t.empty() ? 0.0 : *std::min_element(t.begin(), t.end()),
                  t.empty() ? 0.0 : *std::max_element(t.begin(), t.end()),
                  t.size(), median(setup_s[ci]) * 1e3, setup_s[ci].size(),
                  plans[ci].num_parts());
      for (double x : t) std::printf(" %.4f", x);
      std::printf("\n");
    }
    std::printf("# setup: %u processes, %zu timed compiles\n", procs,
                setup_samples);
    metrics = {{"exec_s", exec_total, "s"},
               {"setup_s", setup_total, "s"},
               {"peak_rss_mb", peak_rss_mib(), "MiB"}};
  } else {
    // Untraced executes first: the baseline for trace.overhead and the
    // pool task count (the registry counts whether or not spans record).
    trace::Counter& pool_tasks =
        trace::MetricsRegistry::global().counter("pool.tasks");
    std::vector<std::vector<double>> tasks(nc);
    run_rounds(a.seconds / 3.0, 1, [&] {
      for (std::size_t ci = 0; ci < nc; ++ci) {
        const std::uint64_t before = pool_tasks.value();
        Run run;
        if (attempt(ci, "untraced execute", run)) {
          exec_s[ci].push_back(run.seconds);
          tasks[ci].push_back(static_cast<double>(pool_tasks.value() - before));
        }
      }
    });

    // Traced from here. Each round times the DAG build, then executes
    // every case through the engine with tracing on; the previous-rep
    // check compares the first traced execute with the last untraced one,
    // so tracing must not change the output. The split comes from the
    // traced execute's Result::metrics, which ring drops cannot skew.
    trace::TraceSession::start();
    std::vector<std::vector<double>> traced_s(nc);
    std::vector<std::vector<Layers>> layers(nc);  // per case, per round
    std::vector<std::map<std::string, double>> last(nc);  // Result::metrics
    const auto traced_round = [&](std::size_t ci) {
      const Case& c = cases[ci];
      Layers L;
      timed(L.dag, "dag", [&] { return dag::CircuitDag(plans[ci].circuit()); });
      Run run;
      if (!attempt(ci, "traced execute", run)) return;
      traced_s[ci].push_back(run.seconds);
      if (c.points.empty()) {
        const Result& r = run.results.front();
        L.wall = run.seconds;
        add_engine_layers(r.metrics, distributed, L);
        timed(L.observe, "observe", [&] { return r.state.norm(); });
        last[ci] = r.metrics;
      } else {
        // Point 0 once more, serially and with its kernels inline as a
        // sweep point runs them, so that the bench can time its parts.
        ExecOptions x = sweep_options(c);
        x.bindings = c.points.front();
        x.want_state = true;
        parallel::inline_scope inline_only;
        Result r;
        try {
          r = timed(L.wall, "sweep.point", [&] { return plans[ci].execute(x); });
        } catch (const std::exception& e) {
          tally.fail(c.name + " serial point: " + e.what());
          return;
        }
        add_engine_layers(r.metrics, distributed, L);
        std::vector<double> zz;
        const double norm = timed(L.observe, "observe", [&] {
          for (const sv::PauliString& p : c.zz)
            zz.push_back(sv::expectation(r.state, p));
          return r.state.norm();
        });
        if (point_digest(zz, norm) != last_first[ci]) {
          tally.fail(c.name + " serial point: output differs from the sweep's");
          return;
        }
        tally.pass();
        last[ci] = r.metrics;
      }
      layers[ci].push_back(L);
    };
    run_rounds(a.seconds - a.seconds / 3.0, 1, [&] {
      for (std::size_t ci = 0; ci < nc; ++ci) traced_round(ci);
    });
    // Flat only: the per-gate kernel split, which no engine timer has.
    std::map<std::string, KernelStat> kernels;
    if (w.target == Target::Flat)
      for (std::size_t ci = 0; ci < nc; ++ci) {
        const sv::KernelOps& kops = sv::kernel_ops(plans[ci].kernel_tier());
        if (replay_kernels(plans[ci].circuit(), kops, kernels) ==
            last_digest[ci])
          tally.pass();
        else
          tally.fail(cases[ci].name +
                     " kernel replay: output differs from the engine's");
      }
    trace::TraceSession::stop();
    if (!a.trace_out.empty()) trace::TraceSession::write(a.trace_out);

    // Per-case medians over rounds, summed over cases.
    const auto case_median = [&](std::size_t ci, double Layers::*field) {
      std::vector<double> v;
      for (const Layers& L : layers[ci]) v.push_back(L.*field);
      return median(v);
    };
    const auto sum_median = [&](double Layers::*field) {
      double total = 0.0;
      for (std::size_t ci = 0; ci < nc; ++ci) total += case_median(ci, field);
      return total;
    };
    // Compile phases of the executed plans (one compile each), from the
    // compile.* keys every Result carries.
    double opt_s = 0.0, structure_s = 0.0, removed = 0.0, parts = 0.0;
    double traced = 0.0, untraced = 0.0, tasks_total = 0.0, apply_bytes = 0.0;
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const std::map<std::string, double>& r = last[ci];
      opt_s += metric(r, "compile.optimize_seconds");
      structure_s += metric(r, "compile.total_seconds") -
                     metric(r, "compile.optimize_seconds");
      removed += metric(r, "compile.gates_removed");
      parts += static_cast<double>(plans[ci].num_parts());
      traced += median(traced_s[ci]);
      untraced += median(exec_s[ci]);
      tasks_total += median(tasks[ci]);
      // Every executed gate reads and writes every amplitude once, on
      // every target: 32 B x 2^n per gate.
      apply_bytes += 2.0 * kAmpBytes * static_cast<double>(dim(n)) *
                     static_cast<double>(plans[ci].circuit().num_gates());
    }
    const double move = sum_median(&Layers::move);
    const double apply = sum_median(&Layers::apply);
    const double observe = sum_median(&Layers::observe);
    const auto ratio = [](double x, double y) { return y > 0.0 ? x / y : 0.0; };
    metrics = {
        {"opt.s", opt_s, "s"},
        {"opt.gates_removed", removed, "count"},
        {"dag.s", sum_median(&Layers::dag), "s"},
        {"structure.s", structure_s, "s"},
        {"partition.parts", parts, "count"},
        {"move.s", move, "s"},
        {"apply.s", apply, "s"},
        {"apply.gbps", ratio(apply_bytes, apply) / 1e9, "GB/s"},
        {"sv.outer_gbps",
         ratio(sum_median(&Layers::outer_bytes), sum_median(&Layers::outer_s)) /
             1e9,
         "GB/s"},
        {"observe.s", observe, "s"},
        {"pool.tasks_per_exec", tasks_total, "count"},
        {"exchange.count", sum_median(&Layers::exchanges), "count"},
        {"exchange.bytes", sum_median(&Layers::exchange_bytes), "B"},
        {"layers.coverage",
         ratio(move + apply + observe, sum_median(&Layers::wall)), "ratio"},
        {"trace.overhead", ratio(traced, untraced), "ratio"},
        {"trace.dropped",
         static_cast<double>(trace::TraceSession::dropped_count()), "count"},
        {"host.stream_gbps", a.stream, "GB/s"},
        {"host.threads", static_cast<double>(threads), "count"},
        {"host.state_mib",
         kAmpBytes * static_cast<double>(dim(n)) / (1024.0 * 1024.0), "MiB"},
        {"host.llc_mib", llc_mib(), "MiB"},
    };
    for (std::size_t ci = 0; ci < nc; ++ci) {
      std::printf("# case %s: wall=%.4f s move=%.4f apply=%.4f observe=%.4f "
                  "rounds=%zu; traced exec=%.4f untraced=%.4f; parts=%zu\n"
                  "#   engine metrics (last traced round):",
                  cases[ci].name.c_str(), case_median(ci, &Layers::wall),
                  case_median(ci, &Layers::move),
                  case_median(ci, &Layers::apply),
                  case_median(ci, &Layers::observe), layers[ci].size(),
                  median(traced_s[ci]), median(exec_s[ci]),
                  plans[ci].num_parts());
      for (const auto& [key, value] : last[ci])
        std::printf(" %s=%.6g", key.c_str(), value);
      std::printf("\n");
    }
    for (const auto& [kind, ks] : kernels)
      std::printf("# kernel %s: %.4f s calls=%.0f gbps=%.2f\n", kind.c_str(),
                  ks.seconds, ks.calls, ks.bytes / ks.seconds / 1e9);
  }

  std::printf("# fail_frac=%.6g (%zu/%zu)\n",
              tally.attempted ? static_cast<double>(tally.failed) /
                                    static_cast<double>(tally.attempted)
                              : 0.0,
              tally.failed, tally.attempted);
  const bool correct = tally.failed == 0;
  print_result(correct, tally, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.command == "probe") return cmd_probe(a);
    const Workload* w = find_workload(a.workload);
    if (w == nullptr) usage("unknown workload '" + a.workload + "'");
    if (a.command == "golden") return cmd_golden(a, *w);
    if (a.command == "setup") return cmd_setup(a, *w);
    if (a.command == "run") return cmd_run(a, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
  usage("unknown command '" + a.command + "'");
}
