#include "hisvsim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dist/backend.hpp"
#include "dist/iqs_baseline.hpp"
#include "hisvsim/plan_impl.hpp"
#include "noise/trajectory.hpp"

namespace hisim {

const char* target_name(Target t) {
  switch (t) {
    case Target::Flat: return "flat";
    case Target::Hierarchical: return "hierarchical";
    case Target::DistributedSerial: return "distributed-serial";
    case Target::DistributedThreaded: return "distributed-threaded";
    case Target::IqsBaseline: return "iqs-baseline";
  }
  return "?";
}

Target parse_target(const std::string& name) {
  for (Target t : {Target::Flat, Target::Hierarchical,
                   Target::DistributedSerial, Target::DistributedThreaded,
                   Target::IqsBaseline})
    if (name == target_name(t)) return t;
  throw Error("unknown target '" + name +
              "' (expected flat, hierarchical, distributed-serial, "
              "distributed-threaded, iqs-baseline)");
}

bool target_is_distributed(Target t) {
  return t == Target::DistributedSerial || t == Target::DistributedThreaded ||
         t == Target::IqsBaseline;
}

Target target_for_backend(dist::BackendKind kind) {
  return kind == dist::BackendKind::Threaded ? Target::DistributedThreaded
                                             : Target::DistributedSerial;
}

using detail::PlanImpl;

namespace {

/// The targets whose plan is sharded and exchanges once per part; only
/// they run a second partitioning level.
bool exchanges_per_part(Target t) {
  return t == Target::DistributedSerial || t == Target::DistributedThreaded;
}

/// The (p, level-1 limit, level-2 limit) a target compiles with. Flat and
/// iqs-baseline compile the one-part plan (0, n, off): flat runs it on one
/// rank, iqs-baseline applies its gates one by one on 2^p shards.
/// Hierarchical adds Alg. 1's level 2 at its limit capped at the circuit
/// width. The distributed targets run level 2 at level2_limit; one as wide
/// as a shard (>= n - p) is off. Both second levels default (0) to the
/// cache limit sv::kCacheQubits.
dist::DistOptions dist_options(const Options& opt, unsigned num_qubits) {
  dist::DistOptions d;
  d.part.strategy = opt.strategy;
  d.part.seed = opt.seed;
  d.part.limit = 0;  // all local qubits
  if (opt.target == Target::Hierarchical) {
    d.level2_limit =
        std::min(opt.limit != 0 ? opt.limit : sv::kCacheQubits, num_qubits);
  } else if (exchanges_per_part(opt.target)) {
    d.process_qubits = opt.process_qubits;
    d.part.limit = opt.limit;
    const unsigned level2 =
        opt.level2_limit != 0 ? opt.level2_limit : sv::kCacheQubits;
    d.level2_limit = level2 < num_qubits - opt.process_qubits ? level2 : 0;
  }
  return d;
}

dist::CommBackend* backend_for_target(Target t) {
  return t == Target::DistributedThreaded ? &dist::threaded_backend()
                                          : &dist::serial_backend();
}

void append_kv(std::ostringstream& os, bool& first, const char* key) {
  if (!first) os << ",\n";
  first = false;
  os << "  \"" << key << "\": ";
}

/// 17 significant digits: the printed value parses back to the exact
/// double (the same round-trip policy as json_params and the metrics).
void json_num(std::ostringstream& os, bool& first, const char* key,
              double v) {
  append_kv(os, first, key);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void json_int(std::ostringstream& os, bool& first, const char* key,
              unsigned long long v) {
  append_kv(os, first, key);
  os << v;
}

void json_quoted(std::ostringstream& os, const std::string& v) {
  os << '"';
  for (char ch : v) {
    if (ch == '"' || ch == '\\') os << '\\';
    os << ch;
  }
  os << '"';
}

void json_str(std::ostringstream& os, bool& first, const char* key,
              const std::string& v) {
  append_kv(os, first, key);
  json_quoted(os, v);
}

/// Emits a ParamBinding as a "params" object. 17 significant digits: the
/// printed angle re-binds to the exact double that executed (same
/// round-trip policy as qasm/writer.cpp).
void json_params(std::ostringstream& os, bool& first,
                 const ParamBinding& params) {
  if (params.empty()) return;
  append_kv(os, first, "params");
  os << '{';
  bool pfirst = true;
  for (const auto& [name, value] : params) {
    if (!pfirst) os << ", ";
    pfirst = false;
    json_quoted(os, name);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    os << ": " << buf;
  }
  os << '}';
}

/// The k heaviest outcomes of a histogram, weight-descending.
std::vector<std::pair<double, Index>> heaviest(
    const std::map<Index, double>& counts, std::size_t k) {
  std::vector<std::pair<double, Index>> top;
  top.reserve(counts.size());
  for (const auto& [outcome, w] : counts) top.emplace_back(w, outcome);
  std::sort(top.rbegin(), top.rend());
  if (top.size() > k) top.resize(k);
  return top;
}

/// Emits the top outcomes (full histograms scale as 2^n) as a
/// "top_counts" object keyed by outcome index.
void json_top_counts(std::ostringstream& os, bool& first,
                     const std::vector<std::pair<double, Index>>& top) {
  append_kv(os, first, "top_counts");
  os << '{';
  for (std::size_t i = 0; i < top.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", top[i].first);
    os << (i ? ", " : "") << '"' << top[i].second << "\": " << buf;
  }
  os << '}';
}

/// Fans fn(i) over the worker pool, one index per chunk. Any throw
/// (allocation failure, internal check) is captured and rethrown on the
/// calling thread — an exception must never escape into the pool's
/// worker loop. Shared by execute_sweep and execute_trajectories.
void run_indexed_on_pool(std::size_t count,
                         const std::function<void(std::size_t)>& fn) {
  Mutex err_mu;
  std::exception_ptr first_error;
  parallel::for_range(
      0, count,
      [&](Index lo, Index hi) {
        for (Index i = lo; i < hi; ++i) {
          try {
            fn(static_cast<std::size_t>(i));
          } catch (...) {
            MutexLock lk(err_mu);
            if (!first_error) first_error = std::current_exception();
            return;
          }
        }
      },
      /*grain=*/1);
  if (first_error) std::rethrow_exception(first_error);
}

/// ExecOptions preconditions independent of the binding: the initial
/// state's shape and the observables' qubits. execute_sweep and
/// execute_trajectories check them on the calling thread before any work
/// fans out; every execute checks them before it simulates.
void check_exec_options(const ExecOptions& opts, unsigned n) {
  if (opts.initial_state)
    HISIM_CHECK_MSG(opts.initial_state->num_qubits() == n,
                    "initial state has " << opts.initial_state->num_qubits()
                                         << " qubits, plan expects " << n);
  for (const sv::PauliString& p : opts.observables) p.check(n);
}

}  // namespace

double Result::total_seconds() const {
  // A phase the target did not run has no key and adds nothing.
  const auto get = [this](const char* key) {
    const auto it = metrics.find(key);
    return it == metrics.end() ? 0.0 : it->second;
  };
  if (ranks > 0)
    return get("apply.seconds.sum") + get("exchange.modeled_seconds.sum");
  return get("apply.seconds") + get("relayout.seconds");
}

std::vector<std::pair<double, Index>> Result::top_counts(
    std::size_t k) const {
  std::map<Index, double> counts;
  for (Index s : samples) counts[s] += 1.0;
  return heaviest(counts, k);
}

std::string Result::to_json() const {
  std::ostringstream os;
  bool first = true;
  os << "{\n";
  json_str(os, first, "circuit", circuit);
  json_int(os, first, "qubits", qubits);
  json_int(os, first, "gates", gates);
  json_str(os, first, "target", target_name(target));
  json_str(os, first, "strategy", partition::strategy_name(strategy));
  json_int(os, first, "opt_level", opt_level);
  json_int(os, first, "gates_pre_opt", gates_pre_opt);
  json_str(os, first, "kernel", kernel);
  if (!opt_passes.empty()) {
    // Per-pass removed-gate counts, pipeline order ("gates_pre_opt" minus
    // the sum of these is "gates").
    append_kv(os, first, "opt_passes");
    os << '{';
    for (std::size_t i = 0; i < opt_passes.size(); ++i) {
      if (i) os << ", ";
      json_quoted(os, opt_passes[i].pass);
      os << ": " << opt_passes[i].removed;
    }
    os << '}';
  }
  json_int(os, first, "parts", parts);
  json_int(os, first, "inner_parts", inner_parts);
  if (ranks > 0) json_int(os, first, "ranks", ranks);
  json_num(os, first, "total_seconds", total_seconds());
  // Every measured and modeled number, on every target, without tracing.
  append_kv(os, first, "metrics");
  os << trace::metrics_to_json(metrics);
  json_params(os, first, params);
  json_int(os, first, "shots", samples.size());
  if (!samples.empty()) json_top_counts(os, first, top_counts(16));
  if (!observables.empty()) {
    append_kv(os, first, "observables");
    os << '[';
    for (std::size_t i = 0; i < observables.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.12g", observables[i]);
      os << (i ? "," : "") << buf;
    }
    os << ']';
  }
  append_kv(os, first, "norm");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12f", norm);
  os << buf << "\n}";
  return os.str();
}

const Options& ExecutionPlan::options() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  return impl_->opt;
}
Target ExecutionPlan::target() const { return options().target; }
sv::KernelTier ExecutionPlan::kernel_tier() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  return impl_->kernels->tier;
}
const Circuit& ExecutionPlan::circuit() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  return impl_->dplan.circuit;
}
// On one rank (p = 0) the level-1 part is the whole circuit, so the parts
// are its level-2 parts when level 2 ran (Alg. 1), else that one part, and
// no part is inner. iqs-baseline applies gate by gate and reports 0.
std::size_t ExecutionPlan::num_parts() const {
  if (target() == Target::IqsBaseline) return 0;
  const dist::DistPlan& d = impl_->dplan;
  return d.process_qubits == 0 && d.level2_limit > 0 ? d.inner_parts
                                                     : d.num_parts();
}
std::size_t ExecutionPlan::num_inner_parts() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  const dist::DistPlan& d = impl_->dplan;
  return d.process_qubits == 0 ? 0 : d.inner_parts;
}
unsigned ExecutionPlan::num_ranks() const {
  return target_is_distributed(target()) ? 1u << options().process_qubits
                                         : 0u;
}
double ExecutionPlan::compile_seconds() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  return impl_->compile_seconds;
}
double ExecutionPlan::partition_seconds() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  return impl_->dplan.partition_seconds;
}
const std::vector<std::string>& ExecutionPlan::param_names() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  return impl_->param_names;
}
const OptReport& ExecutionPlan::opt_report() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  return impl_->opt_report;
}
bool ExecutionPlan::noisy() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  return !impl_->noise.empty();
}
std::size_t ExecutionPlan::num_noise_slots() const {
  HISIM_CHECK_MSG(impl_, "empty ExecutionPlan");
  return impl_->noise.slots.size();
}

ExecutionPlan Engine::compile(const Circuit& c, const Options& opt) {
  return Engine(opt).compile(c);
}

ExecutionPlan Engine::compile(const Circuit& c) const {
  // Only the distributed-serial/-threaded executor runs a second level;
  // any other target would drop the limit without notice.
  HISIM_CHECK_MSG(opt_.level2_limit == 0 || exchanges_per_part(opt_.target),
                  "level2_limit applies only to the distributed-serial and "
                  "distributed-threaded targets (target is "
                      << target_name(opt_.target) << ")");
  // Options::trace starts (or restarts) the collection window here so
  // one session covers this compile and every execute that follows.
  if (opt_.trace && !trace::TraceSession::active())
    trace::TraceSession::start();
  Timer compile_timer;
  trace::TraceSpan compile_span("compile", "engine");
  auto impl = std::make_shared<PlanImpl>();
  impl->opt = opt_;
  // Resolve the kernel tier up front: a forced-but-unavailable tier must
  // fail here, not on a worker thread mid-execute.
  impl->kernels = &sv::kernel_ops(opt_.kernel_tier);
  // Noise instrumentation happens before any structural work: the
  // reserved slots are ordinary (identity) gates of the circuit every
  // downstream artifact — DAG, partitioning, lowering, the exchange
  // schedule — accounts for exactly once. Trajectories later substitute
  // sampled operators into the slots without touching that structure.
  //
  // Each phase that rewrites the circuit leaves its output in `work`, and
  // the plan takes `work` by move: only an untouched input is copied.
  Circuit work;
  const Circuit* source = &c;
  double instrument_seconds = 0.0;
  if (!opt_.noise.empty()) {
    Timer t;
    trace::TraceSpan span("instrument", "engine");
    noise::Instrumented in = noise::instrument(c, opt_.noise);
    work = std::move(in.circuit);
    impl->noise = std::move(in.noise);
    source = &work;
    instrument_seconds = t.seconds();
  }
  // Optimization runs after instrumentation and before partitioning, so a
  // removed gate is removed from every downstream artifact, and the slots
  // (barriers to every pass) keep noisy structure intact. A circuit the
  // pipeline leaves untouched compiles to a bit-identical plan.
  double optimize_seconds = 0.0;
  if (opt_.opt_level != 0) {
    Timer t;
    trace::TraceSpan span("optimize", "engine");
    work = optimize(*source, opt_.opt_level, &impl->opt_report);
    source = &work;
    optimize_seconds = t.seconds();
  } else {
    impl->opt_report.gates_before = impl->opt_report.gates_after =
        source->num_gates();
  }
  if (source == &c) work = c;
  impl->param_names = work.param_names();
  const unsigned n = work.num_qubits();

  if (opt_.target == Target::IqsBaseline)
    HISIM_CHECK_MSG(opt_.process_qubits > 0 && opt_.process_qubits < n,
                    "iqs-baseline requires 0 < process_qubits < qubits");
  HISIM_CHECK_MSG(
      !target_is_distributed(opt_.target) || opt_.process_qubits > 0,
      "distributed targets require process_qubits > 0");
  impl->dplan = dist::compile_plan(std::move(work), dist_options(opt_, n));

  impl->compile_seconds = compile_timer.seconds();
  // Compile-phase breakdown, merged into every execution's
  // Result::metrics. Zero when the phase did not run — the keys stay
  // stable across configurations so trace diffs line up.
  impl->compile_metrics["compile.total_seconds"] = impl->compile_seconds;
  impl->compile_metrics["compile.partition_seconds"] =
      impl->dplan.partition_seconds;
  impl->compile_metrics["compile.instrument_seconds"] = instrument_seconds;
  impl->compile_metrics["compile.optimize_seconds"] = optimize_seconds;
  impl->compile_metrics["compile.gates_removed"] = static_cast<double>(
      impl->opt_report.gates_before - impl->opt_report.gates_after);
  if constexpr (checked_build) {
    // Every gate kind is unitary by construction except raw Unitary-kind
    // matrices: Gate::kraus deliberately skips the unitarity check, and
    // trajectory operators enter through it. A plan is norm-preserving
    // when no such matrix slipped in — the execute-side invariant keys
    // off this flag.
    impl->norm_preserving = true;
    for (const Gate& g : impl->dplan.circuit.gates())
      if (g.kind == GateKind::Unitary && !g.custom.is_unitary(1e-9)) {
        impl->norm_preserving = false;
        break;
      }
  }
  ExecutionPlan plan(std::move(impl));
  // Checked builds deep-validate every freshly compiled plan right at the
  // compile/execute seam (see ExecutionPlan::validate), so a partitioner
  // or scheduler bug aborts here, not as a wrong amplitude much later.
  if constexpr (checked_build) {
    trace::TraceSpan span("validate", "engine");
    plan.validate();
  }
  return plan;
}

Result ExecutionPlan::execute(const ExecOptions& opts) const {
  HISIM_CHECK_MSG(impl_, "execute() called on an empty ExecutionPlan");
  return execute_impl(opts, {});
}

Result ExecutionPlan::execute_impl(const ExecOptions& opts,
                                   std::span<const Gate> noise_ops) const {
  const PlanImpl& plan = *impl_;
  const Options& opt = plan.opt;
  const Circuit& c = plan.dplan.circuit;
  const unsigned n = c.num_qubits();
  trace::TraceSpan exec_span("execute", "engine");

  // Resolve the binding context up front: a parameterized plan needs every
  // parameter covered, a concrete plan rejects stray bindings — both with
  // an Error naming the parameter. The values are indexed by param id, the
  // order Circuit::param registered them.
  std::vector<double> param_values;
  if (!plan.param_names.empty() || !opts.bindings.empty())
    param_values = resolve_binding(plan.param_names, opts.bindings);
  check_exec_options(opts, n);

  Result r;
  r.params = opts.bindings;
  r.circuit = c.name();
  r.qubits = n;
  r.gates = c.num_gates();
  r.target = opt.target;
  r.strategy = opt.strategy;
  r.opt_level = opt.opt_level;
  r.gates_pre_opt = plan.opt_report.gates_before;
  r.opt_passes = plan.opt_report.deltas;
  r.kernel = plan.kernels->name;
  r.parts = num_parts();
  r.inner_parts = num_inner_parts();
  r.ranks = num_ranks();
  r.metrics = plan.compile_metrics;

  const bool iqs = opt.target == Target::IqsBaseline;
  Timer wall;
  dist::DistState st(n, iqs ? opt.process_qubits : plan.dplan.process_qubits);
  if (opts.initial_state) st.load_state_vector(*opts.initial_state);
  if (iqs) {
    // The one step is the whole circuit, bound and noise-substituted the
    // way execute_plan materializes each of its steps.
    Circuit storage;
    dist::IqsBaselineSimulator().run(
        dist::materialize(plan.dplan.steps.front(), param_values, noise_ops,
                          storage),
        st, opts.net, &r.metrics, plan.kernels);
  } else {
    dist::execute_plan(plan.dplan, st, opts.net, &r.metrics,
                       backend_for_target(opt.target), param_values,
                       noise_ops, plan.kernels);
  }
  r.metrics["execute.wall_seconds"] = wall.seconds();

  sv::StateVector state;
  if (st.num_ranks() == 1) {
    // One rank under the identity layout: its shard is the state.
    state = std::move(st.local(0));
  } else if (opts.want_state || opts.shots > 0 || !opts.observables.empty()) {
    // Gathering the sharded state is O(2^n); report-only executions
    // (want_state off, no shots/observables) get the norm from the shards
    // instead and skip it.
    Timer gather_timer;
    trace::TraceSpan gather_span("gather", "engine");
    state = st.to_state_vector();
    r.metrics["gather.seconds"] = gather_timer.seconds();
  } else {
    Timer observe;
    double norm = 0.0;
    for (unsigned rk = 0; rk < st.num_ranks(); ++rk)
      norm += st.local(rk).norm();
    r.norm = norm;
    if (noise_ops.empty() && plan.norm_preserving)
      sv::validate_norm_preserved(
          opts.initial_state ? opts.initial_state->norm() : 1.0, r.norm,
          "sharded execute (report-only)");
    r.metrics["observe.seconds"] = observe.seconds();
    return r;
  }

  Timer observe;
  r.norm = state.norm();
  // Checked builds: a unitary segment (no sampled trajectory operators, no
  // non-unitary matrices) must preserve the initial norm — a violation
  // means an apply kernel or the exchange lost or duplicated amplitudes.
  if (noise_ops.empty() && plan.norm_preserving)
    sv::validate_norm_preserved(
        opts.initial_state ? opts.initial_state->norm() : 1.0, r.norm,
        "execute");
  // A zero-norm state can only come from a Kraus-unraveling trajectory
  // whose sampled branch annihilated the state (weight 0): it contributes
  // nothing to any pooled statistic, so it draws no shots rather than
  // failing the sampler.
  if (opts.shots > 0 && r.norm > 0.0) {
    Rng rng(opts.shot_seed);
    r.samples = sv::sample(state, opts.shots, rng);
  }
  r.observables.reserve(opts.observables.size());
  for (const sv::PauliString& p : opts.observables)
    r.observables.push_back(sv::expectation(state, p));
  r.metrics["observe.seconds"] = observe.seconds();
  if (opts.want_state) r.state = std::move(state);
  return r;
}

std::vector<Result> ExecutionPlan::execute_sweep(
    std::span<const ParamBinding> points, const ExecOptions& opts) const {
  HISIM_CHECK_MSG(impl_, "execute_sweep() called on an empty ExecutionPlan");
  // Validate every point on the calling thread before any work is
  // spawned: binding errors (unbound/unknown/non-finite) surface here
  // with the point index, never from inside a pool worker.
  for (std::size_t i = 0; i < points.size(); ++i) {
    try {
      resolve_binding(impl_->param_names, points[i]);
    } catch (const Error& e) {
      throw Error("sweep point " + std::to_string(i) + ": " + e.what());
    }
  }

  // Shared ExecOptions preconditions fail here too, not on a worker.
  check_exec_options(opts, impl_->dplan.circuit.num_qubits());

  // Each point is an independent execute() on private state, so the
  // points fan out over the worker pool; for_range regions issued inside
  // execute() run inline (nested-region rule), keeping one pool for the
  // whole sweep.
  std::vector<Result> results(points.size());
  run_indexed_on_pool(points.size(), [&](std::size_t i) {
    // One span per point, on whichever worker thread ran it — the sweep
    // fan-out shows up in the trace as parallel tracks.
    trace::TraceSpan span("sweep.point", "engine");
    span.arg("index", static_cast<std::int64_t>(i));
    ExecOptions point_opts = opts;
    point_opts.bindings = points[i];
    results[i] = execute(point_opts);
  });
  return results;
}

Result ExecutionPlan::execute_trajectory(std::uint64_t seed,
                                         const ExecOptions& opts) const {
  HISIM_CHECK_MSG(impl_,
                  "execute_trajectory() called on an empty ExecutionPlan");
  // Replaying a recorded seed against an un-noisy plan would silently
  // return an ideal result — the plan the seed came from was compiled
  // with Options::noise, so this one must be too.
  HISIM_CHECK_MSG(!impl_->noise.empty(),
                  "execute_trajectory() requires a plan compiled with "
                  "Options::noise (this plan is ideal)");
  // The whole trajectory is a pure function of (plan, opts, seed): slot
  // operators come from the seed's noise stream, shots from its shot
  // stream, readout flips from its readout stream. Re-running with a
  // recorded seed therefore replays the trajectory bit-identically.
  const std::vector<Gate> ops = noise::sample_ops(impl_->noise, seed);
  ExecOptions x = opts;
  x.shot_seed = noise::shot_seed(seed);
  Result r = execute_impl(x, ops);
  noise::apply_readout(r.samples, impl_->noise, seed);
  return r;
}

NoisyResult ExecutionPlan::execute_trajectories(
    std::size_t num, const TrajectoryOptions& opts) const {
  HISIM_CHECK_MSG(impl_,
                  "execute_trajectories() called on an empty ExecutionPlan");
  const PlanImpl& plan = *impl_;
  HISIM_CHECK_MSG(!plan.noise.empty(),
                  "execute_trajectories() requires a plan compiled with "
                  "Options::noise (this plan is ideal)");
  HISIM_CHECK_MSG(num > 0, "execute_trajectories() needs >= 1 trajectory");

  // Shared preconditions fail on the calling thread, never on a worker
  // (same policy as execute_sweep): binding coverage, the initial state's
  // shape and the observables are identical for every trajectory.
  if (!plan.param_names.empty() || !opts.exec.bindings.empty())
    (void)resolve_binding(plan.param_names, opts.exec.bindings);
  check_exec_options(opts.exec, plan.dplan.circuit.num_qubits());

  const std::size_t k = opts.exec.observables.size();
  NoisyResult nr;
  nr.circuit = plan.dplan.circuit.name();
  nr.qubits = plan.dplan.circuit.num_qubits();
  nr.target = plan.opt.target;
  nr.trajectories = num;
  nr.noise_slots = plan.noise.slots.size();
  nr.shots_per_trajectory = opts.exec.shots;
  nr.params = opts.exec.bindings;
  nr.noise_seed = opts.seed;
  nr.compile_seconds = plan.compile_seconds;
  nr.seeds.resize(num);
  nr.weights.resize(num);
  std::vector<double> obs(num * k);
  std::vector<std::vector<Index>> samples(opts.exec.shots > 0 ? num : 0);

  // Trajectories are independent executes on private state, so they fan
  // out over the worker pool exactly like sweep points; nested for_range
  // regions inside execute run inline. Results land in per-trajectory
  // slots and are reduced serially below, so the aggregate is
  // deterministic regardless of worker scheduling.
  Timer wall;
  run_indexed_on_pool(num, [&](std::size_t t) {
    trace::TraceSpan span("trajectory", "engine");
    span.arg("index", static_cast<std::int64_t>(t));
    const std::uint64_t seed = noise::trajectory_seed(opts.seed, t);
    ExecOptions x = opts.exec;
    x.want_state = false;
    Result r = execute_trajectory(seed, x);
    nr.seeds[t] = seed;
    nr.weights[t] = r.norm;
    for (std::size_t j = 0; j < k; ++j) obs[t * k + j] = r.observables[j];
    if (!samples.empty()) samples[t] = std::move(r.samples);
  });
  nr.execute_seconds = wall.seconds();

  // Serial aggregation in trajectory order — fp summation order is fixed.
  for (double w : nr.weights) nr.total_weight += w;
  nr.mean_weight = nr.total_weight / static_cast<double>(num);
  nr.observable_means.assign(k, 0.0);
  nr.observable_stddevs.assign(k, 0.0);
  nr.observable_stderrs.assign(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    double mean = 0.0;
    for (std::size_t t = 0; t < num; ++t) mean += obs[t * k + j];
    mean /= static_cast<double>(num);
    double var = 0.0;
    for (std::size_t t = 0; t < num; ++t) {
      const double d = obs[t * k + j] - mean;
      var += d * d;
    }
    var = num > 1 ? var / static_cast<double>(num - 1) : 0.0;
    nr.observable_means[j] = mean;
    nr.observable_stddevs[j] = std::sqrt(var);
    nr.observable_stderrs[j] = std::sqrt(var / static_cast<double>(num));
  }
  for (std::size_t t = 0; t < samples.size(); ++t)
    for (Index s : samples[t]) nr.counts[s] += nr.weights[t];
  return nr;
}

std::vector<std::pair<double, Index>> NoisyResult::top_counts(
    std::size_t k) const {
  return heaviest(counts, k);
}

std::string NoisyResult::to_json() const {
  std::ostringstream os;
  bool first = true;
  os << "{\n";
  json_str(os, first, "circuit", circuit);
  json_int(os, first, "qubits", qubits);
  json_str(os, first, "target", target_name(target));
  json_int(os, first, "trajectories", trajectories);
  json_int(os, first, "noise_slots", noise_slots);
  json_int(os, first, "noise_seed", noise_seed);
  json_int(os, first, "shots_per_trajectory", shots_per_trajectory);
  json_int(os, first, "shots_total", shots_per_trajectory * trajectories);
  json_params(os, first, params);
  json_num(os, first, "total_weight", total_weight);
  json_num(os, first, "mean_weight", mean_weight);
  json_num(os, first, "compile_seconds", compile_seconds);
  json_num(os, first, "execute_wall_seconds", execute_seconds);
  json_num(os, first, "trajectories_per_second",
           execute_seconds > 0.0
               ? static_cast<double>(trajectories) / execute_seconds
               : 0.0);
  const auto array = [&](const char* key, const std::vector<double>& xs) {
    append_kv(os, first, key);
    os << '[';
    for (std::size_t i = 0; i < xs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.12g", xs[i]);
      os << (i ? "," : "") << buf;
    }
    os << ']';
  };
  if (!observable_means.empty()) {
    array("observable_means", observable_means);
    array("observable_stddevs", observable_stddevs);
    array("observable_stderrs", observable_stderrs);
  }
  json_int(os, first, "distinct_outcomes", counts.size());
  if (!counts.empty()) json_top_counts(os, first, top_counts(16));
  os << "\n}";
  return os.str();
}

}  // namespace hisim
