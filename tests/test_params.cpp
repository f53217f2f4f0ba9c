// Symbolic parameters and bind-at-execute sweeps: the ParamExpr algebra,
// gate/circuit materialization, binding validation, and the headline
// contract — one compiled plan, bit-identical to per-point
// recompilation, across every target. The concurrency tests run under TSan
// in CI (see .github/workflows/ci.yml).

#include "circuit/param.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/decompose.hpp"
#include "circuit/gate.hpp"
#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "hisvsim/engine.hpp"
#include "partition/partition.hpp"
#include "sv/simulator.hpp"

namespace hisim {
namespace {

void expect_bit_identical(const sv::StateVector& a, const sv::StateVector& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (Index i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << what << " amp " << i;
    ASSERT_EQ(a[i].imag(), b[i].imag()) << what << " amp " << i;
  }
}

/// One Options instance per target, sized for 9-qubit circuits.
std::vector<Options> all_target_options() {
  std::vector<Options> out;
  for (Target t : {Target::Flat, Target::Hierarchical,
                   Target::DistributedSerial, Target::DistributedThreaded,
                   Target::IqsBaseline}) {
    Options o;
    o.target = t;
    o.limit = 5;
    if (t == Target::DistributedThreaded) o.level2_limit = 3;
    if (target_is_distributed(t)) o.process_qubits = 2;
    out.push_back(o);
  }
  return out;
}

TEST(ParamExpr, AffineAlgebra) {
  const ParamExpr c = 0.5;
  EXPECT_FALSE(c.symbolic);
  EXPECT_EQ(c.value(), 0.5);

  Circuit circ(2);
  const Param g = circ.param("gamma");
  const ParamExpr e = 2.0 * g + 0.25;
  EXPECT_TRUE(e.symbolic);
  EXPECT_EQ(e.coeff, 2.0);
  EXPECT_EQ(e.offset, 0.25);
  const std::vector<double> vals{1.5};
  EXPECT_EQ(e.value_at(vals), 2.0 * 1.5 + 0.25);

  EXPECT_EQ((g * 3.0).coeff, 3.0);
  EXPECT_EQ((ParamExpr(g) / 2.0).coeff, 0.5);
  EXPECT_EQ((-ParamExpr(g)).coeff, -1.0);
  EXPECT_EQ((1.0 - ParamExpr(g)).offset, 1.0);
  EXPECT_EQ((1.0 - ParamExpr(g)).coeff, -1.0);
  EXPECT_EQ((g + 1.0).offset, 1.0);

  EXPECT_EQ(ParamExpr(g).to_string(), "gamma");
  EXPECT_EQ((2.0 * g).to_string(), "2*gamma");
  EXPECT_EQ((-ParamExpr(g)).to_string(), "-gamma");
  EXPECT_EQ((2.0 * g + 0.25).to_string(), "2*gamma+0.25");
  EXPECT_EQ(ParamExpr(0.5).to_string(), "0.5");

  EXPECT_THROW(e.value(), Error);  // symbolic without a binding
  try {
    e.value_at({});
    FAIL() << "expected unbound-parameter error";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("gamma"), std::string::npos);
  }
}

TEST(ParamExpr, GateMaterialization) {
  Circuit c(2);
  const Param th = c.param("theta");
  const Gate sym = Gate::rz(0, th);
  EXPECT_TRUE(sym.is_parametric());
  EXPECT_TRUE(sym.is_diagonal());  // kind-based, no binding needed
  EXPECT_THROW(sym.matrix(), Error);
  EXPECT_THROW(sym.target_matrix(), Error);

  const std::vector<double> vals{0.7};
  EXPECT_EQ(sym.matrix(vals).max_abs_diff(Gate::rz(0, 0.7).matrix()), 0.0);
  EXPECT_EQ(sym.target_matrix(vals).max_abs_diff(
                Gate::rz(0, 0.7).target_matrix()),
            0.0);

  const Gate zz = Gate::rzz(0, 1, 2.0 * th);
  EXPECT_TRUE(zz.is_parametric());
  EXPECT_EQ(zz.matrix(vals).max_abs_diff(Gate::rzz(0, 1, 1.4).matrix()), 0.0);
  EXPECT_FALSE(Gate::rz(0, 0.3).is_parametric());
  EXPECT_EQ(sym.to_string(), "rz(theta) q[0]");
}

TEST(ParamExpr, CircuitRegistryAndBound) {
  Circuit c(2, "pc");
  const Param a = c.param("a");
  const Param b = c.param("b");
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(c.param("a").id, 0u);  // lookup, not re-registration
  EXPECT_EQ(c.num_params(), 2u);
  EXPECT_TRUE(c.is_parameterized());
  EXPECT_THROW(c.param(""), Error);

  c.add(Gate::rx(0, a));
  c.add(Gate::ry(1, 2.0 * b + 0.1));
  const Circuit bound = c.bound(ParamBinding{{"a", 0.3}, {"b", 0.5}});
  EXPECT_FALSE(bound.is_parameterized());
  EXPECT_EQ(bound.gate(0), Gate::rx(0, 0.3));
  EXPECT_EQ(bound.gate(1), Gate::ry(1, 2.0 * 0.5 + 0.1));

  // Unknown, unbound, and non-finite bindings all throw with the name.
  try {
    c.bound(ParamBinding{{"a", 0.3}, {"b", 0.5}, {"zz", 1.0}});
    FAIL() << "expected unknown-parameter error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown parameter 'zz'"),
              std::string::npos);
  }
  try {
    c.bound(ParamBinding{{"a", 0.3}});
    FAIL() << "expected unbound-parameter error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unbound parameter 'b'"),
              std::string::npos);
  }
  EXPECT_THROW(c.bound(ParamBinding{{"a", std::nan("")}, {"b", 0.5}}), Error);
}

TEST(ParamExpr, AppendMergesRegistriesByName) {
  Circuit lhs(2);
  const Param x = lhs.param("x");
  lhs.add(Gate::rx(0, x));

  Circuit rhs(2);
  const Param y = rhs.param("y");   // id 0 on rhs
  const Param x2 = rhs.param("x");  // id 1 on rhs, same name as lhs's id 0
  rhs.add(Gate::ry(1, y));
  rhs.add(Gate::rz(0, x2));

  lhs.append(rhs);
  ASSERT_EQ(lhs.num_params(), 2u);  // x, y — unified by name
  const Circuit bound = lhs.bound(ParamBinding{{"x", 0.2}, {"y", 0.9}});
  EXPECT_EQ(bound.gate(1), Gate::ry(1, 0.9));
  EXPECT_EQ(bound.gate(2), Gate::rz(0, 0.2));
}

TEST(ParamExpr, AddRejectsForeignParamHandles) {
  Circuit a(2);
  const Param x = a.param("x");
  Circuit b(2);
  b.param("y");  // id 0 on b, like x on a — must not silently alias
  EXPECT_THROW(b.add(Gate::rx(0, x)), Error);
  Circuit empty(2);  // no registry at all
  EXPECT_THROW(empty.add(Gate::rx(0, x)), Error);
  a.add(Gate::rx(0, x));  // the owning circuit accepts it
}

TEST(ParamExpr, SymbolicZyzLoweringThrowsClearly) {
  Circuit c(2);
  const Param th = c.param("theta");
  c.add(Gate::crx(0, 1, th));
  // The ZYZ angles are nonlinear in theta; lowering must say so instead
  // of surfacing a generic unbound-parameter error from deep inside.
  try {
    lower_to_1q_cx(c);
    FAIL() << "expected symbolic-lowering error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bind the parameter"),
              std::string::npos)
        << e.what();
  }
  // Bound first, it lowers fine.
  const Circuit low = lower_to_1q_cx(c.bound(ParamBinding{{"theta", 0.6}}));
  const sv::StateVector direct =
      sv::FlatSimulator().simulate(c.bound(ParamBinding{{"theta", 0.6}}));
  EXPECT_LT(sv::FlatSimulator().simulate(low).max_abs_diff(direct), 1e-12);
}

TEST(ParamExpr, LoweringKeepsExpressionsSymbolic) {
  Circuit c(2, "sym");
  const Param lam = c.param("lam");
  c.add(Gate::cp(0, 1, lam));
  c.add(Gate::crz(0, 1, lam));
  c.add(Gate::rzz(0, 1, 2.0 * lam));

  const Circuit low = lower_to_1q_cx(c);
  EXPECT_TRUE(low.is_parameterized());

  const ParamBinding b{{"lam", 0.77}};
  const sv::StateVector direct = sv::FlatSimulator().simulate(c.bound(b));
  const sv::StateVector lowered =
      sv::FlatSimulator().simulate(low.bound(b));
  EXPECT_LT(direct.max_abs_diff(lowered), 1e-12);
}

TEST(ParamExpr, QaoaInstanceMatchesLegacyQaoa) {
  const auto inst = circuits::qaoa_instance(9, 3, 7);
  EXPECT_EQ(inst.circuit.num_params(), 6u);  // gamma0..2, beta0..2
  EXPECT_FALSE(inst.edges.empty());
  ASSERT_EQ(inst.gammas.size(), 3u);
  ASSERT_EQ(inst.betas.size(), 3u);

  // Binding the instance at the legacy angle draw reproduces qaoa()
  // exactly — the concrete generator is the instance, bound.
  Rng rng(7ull ^ 0xA0A0ull);
  ParamBinding b;
  for (unsigned r = 0; r < 3; ++r) {
    b[inst.gammas[r]] = rng.uniform(0.1, M_PI);
    b[inst.betas[r]] = rng.uniform(0.1, M_PI / 2);
  }
  EXPECT_TRUE(inst.circuit.bound(b) == circuits::qaoa(9, 3, 7));
}

// The headline bind-at-execute contract on every target: executing a
// parameterized plan under a binding is bit-identical to compiling that
// binding's concrete circuit from scratch.
TEST(ParamSweep, BindingMatchesRecompileOnAllTargets) {
  const auto inst = circuits::qaoa_instance(9, 2, 11);
  for (const Options& o : all_target_options()) {
    const ExecutionPlan plan = Engine::compile(inst.circuit, o);
    EXPECT_TRUE(plan.parameterized()) << target_name(o.target);
    EXPECT_EQ(plan.param_names().size(), 4u) << target_name(o.target);
    const std::uint64_t compiled = partition::partition_invocations();
    for (double point : {0.3, 1.1, 2.4}) {
      ExecOptions x;
      x.bindings = inst.uniform_binding(point, point / 2);
      const Result bound_run = plan.execute(x);
      const Result recompiled =
          Engine::compile(inst.circuit.bound(x.bindings), o).execute();
      expect_bit_identical(bound_run.state, recompiled.state,
                           std::string(target_name(o.target)) + " point " +
                               std::to_string(point));
      EXPECT_EQ(bound_run.params, x.bindings);
    }
    // The recompile arm re-partitioned; the plan's executes never do.
    // (Delta from the recompiles is expected — what matters is that the
    // plan executes added nothing, checked via a second pure execute.)
    const std::uint64_t before = partition::partition_invocations();
    ExecOptions x;
    x.bindings = inst.uniform_binding(0.5, 0.25);
    (void)plan.execute(x);
    EXPECT_EQ(partition::partition_invocations(), before)
        << "execute() re-partitioned on " << target_name(o.target);
    (void)compiled;
  }
}

// Acceptance: a 4-round QAOA sweep over >= 50 points compiles exactly
// once, and every point is bit-identical to per-point recompilation — on
// a single-node and a distributed target.
TEST(ParamSweep, FiftyPointSweepCompilesOnce) {
  const auto inst = circuits::qaoa_instance(8, 4, 7);
  std::vector<ParamBinding> points;
  for (unsigned i = 0; i < 50; ++i)
    points.push_back(inst.uniform_binding(0.05 + 0.06 * i, 0.02 + 0.03 * i));

  std::vector<Options> targets(2);
  targets[0].target = Target::Hierarchical;
  targets[0].limit = 5;
  targets[1].target = Target::DistributedSerial;
  targets[1].process_qubits = 2;

  for (const Options& o : targets) {
    const std::uint64_t before_compile = partition::partition_invocations();
    const ExecutionPlan plan = Engine::compile(inst.circuit, o);
    const std::uint64_t after_compile = partition::partition_invocations();
    EXPECT_GT(after_compile, before_compile) << target_name(o.target);

    ExecOptions x;
    const std::vector<Result> swept = plan.execute_sweep(points, x);
    ASSERT_EQ(swept.size(), points.size());
    // The whole 50-point sweep ran without a single further partitioner
    // invocation: the plan really was compiled exactly once.
    EXPECT_EQ(partition::partition_invocations(), after_compile)
        << "sweep re-partitioned on " << target_name(o.target);

    for (std::size_t i = 0; i < points.size(); ++i) {
      const Result ref =
          Engine::compile(inst.circuit.bound(points[i]), o).execute();
      expect_bit_identical(swept[i].state, ref.state,
                           std::string(target_name(o.target)) + " point " +
                               std::to_string(i));
    }
  }
}

TEST(ParamSweep, ExecuteSweepMatchesSerialExecutes) {
  const auto inst = circuits::qaoa_instance(9, 2, 5);
  Options o;
  o.target = Target::Hierarchical;
  o.limit = 5;
  const ExecutionPlan plan = Engine::compile(inst.circuit, o);

  std::vector<ParamBinding> points;
  for (unsigned i = 0; i < 8; ++i)
    points.push_back(inst.uniform_binding(0.1 * (i + 1), 0.07 * (i + 1)));

  ExecOptions x;
  x.shots = 16;
  const std::vector<Result> swept = plan.execute_sweep(points, x);
  ASSERT_EQ(swept.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ExecOptions serial = x;
    serial.bindings = points[i];
    const Result ref = plan.execute(serial);
    expect_bit_identical(swept[i].state, ref.state,
                         "point " + std::to_string(i));
    EXPECT_EQ(swept[i].samples, ref.samples) << i;
    EXPECT_EQ(swept[i].params, points[i]) << i;
  }
}

// One shared plan, several threads each running a whole sweep — the
// concurrency contract execute_sweep inherits from execute(). TSan'd in CI.
TEST(ParamSweep, ConcurrentSweepsShareOnePlan) {
  const auto inst = circuits::qaoa_instance(8, 2, 3);
  for (Target t : {Target::Hierarchical, Target::DistributedThreaded}) {
    Options o;
    o.target = t;
    o.limit = 4;
    if (target_is_distributed(t)) o.process_qubits = 2;
    const ExecutionPlan plan = Engine::compile(inst.circuit, o);

    std::vector<ParamBinding> points;
    for (unsigned i = 0; i < 6; ++i)
      points.push_back(inst.uniform_binding(0.2 + 0.1 * i, 0.1 + 0.05 * i));
    const std::vector<Result> ref = plan.execute_sweep(points);

    constexpr int kThreads = 3;
    std::vector<std::vector<Result>> all(kThreads);
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&plan, &points, &all, i] {
          all[i] = plan.execute_sweep(points);
        });
      for (std::thread& th : threads) th.join();
    }
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_EQ(all[i].size(), points.size()) << target_name(t);
      for (std::size_t p = 0; p < points.size(); ++p)
        expect_bit_identical(all[i][p].state, ref[p].state,
                             std::string(target_name(t)) + " thread " +
                                 std::to_string(i));
    }
  }
}

TEST(ParamSweep, ValidatesBindingsAtExecute) {
  const auto inst = circuits::qaoa_instance(8, 1, 3);
  Options o;
  o.limit = 4;
  const ExecutionPlan plan = Engine::compile(inst.circuit, o);

  // Unbound: no bindings at all on a parameterized plan.
  try {
    plan.execute();
    FAIL() << "expected unbound-parameter error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unbound parameter"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("gamma0"), std::string::npos);
  }
  // Extra name on top of a complete binding.
  {
    ExecOptions x;
    x.bindings = inst.uniform_binding(0.1, 0.2);
    x.bindings["not_a_param"] = 1.0;
    EXPECT_THROW(plan.execute(x), Error);
  }
  // Non-finite value.
  {
    ExecOptions x;
    x.bindings = inst.uniform_binding(0.1, 0.2);
    x.bindings["gamma0"] = std::numeric_limits<double>::infinity();
    EXPECT_THROW(plan.execute(x), Error);
  }
  // Bindings against a concrete plan are rejected too.
  {
    const ExecutionPlan concrete =
        Engine::compile(circuits::bv(8), Options{});
    EXPECT_FALSE(concrete.parameterized());
    ExecOptions x;
    x.bindings["gamma0"] = 0.5;
    EXPECT_THROW(concrete.execute(x), Error);
  }
  // execute_sweep validates every point up front, naming the point.
  {
    std::vector<ParamBinding> points{inst.uniform_binding(0.1, 0.2),
                                     ParamBinding{{"gamma0", 0.3}}};
    try {
      plan.execute_sweep(points);
      FAIL() << "expected sweep-point error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("sweep point 1"),
                std::string::npos);
    }
  }
  // Non-binding ExecOptions errors surface as a clean Error from
  // execute_sweep too (never std::terminate on a pool worker).
  {
    const sv::StateVector wrong_size(5);
    ExecOptions x;
    x.bindings = inst.uniform_binding(0.1, 0.2);  // unused per-point copy
    x.initial_state = &wrong_size;
    std::vector<ParamBinding> points{inst.uniform_binding(0.1, 0.2),
                                     inst.uniform_binding(0.3, 0.4)};
    EXPECT_THROW(plan.execute_sweep(points, x), Error);
  }
  // So do observables with a repeated or out-of-range qubit: checked on
  // the calling thread, before any point reaches the pool.
  for (const sv::PauliString& bad :
       {sv::PauliString{{{2, sv::Pauli::Z}, {2, sv::Pauli::Z}}},
        sv::PauliString{{{8, sv::Pauli::X}}}}) {
    ExecOptions x;
    x.observables = {sv::PauliString::parse("Z0*Z1"), bad};
    std::vector<ParamBinding> points{inst.uniform_binding(0.1, 0.2),
                                     inst.uniform_binding(0.3, 0.4)};
    parallel::set_num_threads(4);
    trace::Counter& tasks =
        trace::MetricsRegistry::global().counter("pool.tasks");
    const std::uint64_t before = tasks.value();
    try {
      plan.execute_sweep(points, x);
      ADD_FAILURE() << "expected an observable error for " << bad.to_string();
    } catch (const Error& e) {
      const Qubit q = bad.factors.front().first;
      EXPECT_NE(std::string(e.what()).find("qubit " + std::to_string(q)),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(tasks.value(), before) << bad.to_string();
    parallel::set_num_threads(0);
  }
}

TEST(ParamSweep, ResultJsonCarriesBoundParams) {
  const auto inst = circuits::qaoa_instance(8, 1, 3);
  Options o;
  o.limit = 4;
  ExecOptions x;
  x.bindings = inst.uniform_binding(0.25, 0.125);
  const std::string j = Engine::compile(inst.circuit, o).execute(x).to_json();
  EXPECT_NE(j.find("\"params\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"gamma0\": 0.25"), std::string::npos) << j;
  EXPECT_NE(j.find("\"beta0\": 0.125"), std::string::npos) << j;
}

}  // namespace
}  // namespace hisim
