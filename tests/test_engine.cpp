#include "hisvsim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "circuits/generators.hpp"
#include "common/parallel.hpp"
#include "dag/circuit_dag.hpp"
#include "dist/hisvsim_dist.hpp"
#include "dist/iqs_baseline.hpp"
#include "sv/kernels.hpp"
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

/// One Options instance per target, sized for a 10-qubit circuit. The
/// threaded distributed target also runs a second partitioning level.
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

// The headline contract: one plan, compiled once, executes any number of
// times with bit-identical states — on every target — and stays within
// numerical tolerance of the flat reference.
TEST(Engine, CompileOnceExecuteManyBitIdentical) {
  const Circuit c = circuits::qft(10);
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  for (const Options& o : all_target_options()) {
    const ExecutionPlan plan = Engine::compile(c, o);
    const Result r1 = plan.execute();
    const Result r2 = plan.execute();
    const Result r3 = plan.execute();
    expect_bit_identical(r1.state, r2.state, target_name(o.target));
    expect_bit_identical(r1.state, r3.state, target_name(o.target));
    EXPECT_LT(r1.state.max_abs_diff(flat), 1e-10) << target_name(o.target);
    EXPECT_NEAR(r1.norm, 1.0, 1e-10) << target_name(o.target);
  }
}

// No-regression against the pre-Engine paths: the plan must reproduce the
// legacy simulators bit for bit (same operation sequence, same kernels).
TEST(Engine, MatchesLegacyPathsBitForBit) {
  const Circuit c = circuits::ising(9, 2, 11);
  const unsigned n = c.num_qubits();

  // Wider than the cache block (sv::kCacheQubits), where the flat target
  // and the distributed ones with level 2 off apply runs of block-local
  // gates block by block (sv::apply_gates).
  const std::vector<Circuit> wide = {circuits::qft(18),
                                     circuits::qaoa(18, 2, 7),
                                     circuits::ising(18, 2, 11)};
  {  // Flat vs FlatSimulator.
    Options o;
    o.target = Target::Flat;
    expect_bit_identical(Engine::compile(c, o).execute().state,
                         sv::FlatSimulator().simulate(c), "flat");
    for (const Circuit& w : wide) {
      const ExecutionPlan plan = Engine::compile(w, o);
      expect_bit_identical(plan.execute().state,
                           sv::FlatSimulator().simulate(plan.circuit()),
                           "flat " + w.name());
    }
  }
  for (const Circuit& w : wide) {
    // Distributed-serial with level 2 off vs its plan's steps applied gate
    // by gate to 17-qubit shards.
    const unsigned p = 1;
    const unsigned wn = w.num_qubits();
    Options o;
    o.target = Target::DistributedSerial;
    o.process_qubits = p;
    o.level2_limit = wn - p;
    const ExecutionPlan plan = Engine::compile(w, o);
    dist::DistOptions dopt;
    dopt.process_qubits = p;
    dopt.part.limit = 0;  // every local qubit, as the engine compiles it
    dopt.part.seed = o.seed;
    const dist::DistPlan dplan = dist::compile_plan(plan.circuit(), dopt);
    ASSERT_EQ(dplan.num_parts(), plan.num_parts()) << w.name();
    dist::DistState legacy(wn, p);
    dist::CommStats stats;
    for (const dist::DistPlan::Step& step : dplan.steps) {
      legacy.redistribute(step.layout, {}, stats);
      for (unsigned r = 0; r < legacy.num_ranks(); ++r)
        for (const Gate& g : step.local.gates())
          sv::apply_gate(legacy.local(r), g);
    }
    expect_bit_identical(plan.execute().state, legacy.to_state_vector(),
                         "distributed-serial level 2 off " + w.name());
  }
  for (const Circuit& w : wide)
    for (unsigned limit : {12u, 18u}) {
      // Hierarchical vs its level-2 partition applied gate by gate in part
      // order. At limit 12 the parts relayout their moved qubits below the
      // block; at 18 a part may move more qubits than the block holds.
      Options o;
      o.target = Target::Hierarchical;
      o.limit = limit;
      const ExecutionPlan plan = Engine::compile(w, o);
      partition::PartitionOptions po;
      po.limit = limit;
      po.strategy = o.strategy;
      po.seed = o.seed;
      const auto parts =
          partition::make_partition(dag::CircuitDag(plan.circuit()), po);
      ASSERT_EQ(parts.num_parts(), plan.num_parts()) << w.name();
      sv::StateVector legacy(w.num_qubits());
      for (const partition::Part& p : parts.parts)
        for (std::size_t gi : p.gates)
          sv::apply_gate(legacy, plan.circuit().gate(gi));
      for (unsigned threads : {1u, 4u}) {
        parallel::set_num_threads(threads);
        const Result r = plan.execute();
        ASSERT_EQ(r.state.bytes(), legacy.bytes());
        EXPECT_EQ(std::memcmp(r.state.data(), legacy.data(), legacy.bytes()),
                  0)
            << "hierarchical " << w.name() << " limit " << limit
            << ", threads " << threads;
        // Qubits 16 and 17 are moved by some part, and at limit 18 by
        // the one part that already holds the block's 16 slots.
        if (limit == 12) {
          EXPECT_GT(r.metrics.at("relayout.bytes"), 0.0);
        }
      }
      parallel::set_num_threads(0);
    }
  for (Target t : {Target::DistributedSerial, Target::DistributedThreaded})
    for (unsigned level2 : {0u, 3u}) {
      // Distributed vs compile_plan + execute_plan on a fresh DistState.
      Options o;
      o.target = t;
      o.process_qubits = 2;
      o.level2_limit = level2;
      dist::DistOptions dopt;
      dopt.process_qubits = 2;
      dopt.level2_limit = level2;
      dist::DistState state(n, 2);
      dist::execute_plan(dist::compile_plan(c, dopt), state, {}, nullptr,
                         t == Target::DistributedThreaded
                             ? &dist::threaded_backend()
                             : &dist::serial_backend());
      expect_bit_identical(Engine::compile(c, o).execute().state,
                           state.to_state_vector(),
                           std::string(target_name(t)) + " level2 " +
                               std::to_string(level2));
    }
  {  // IQS baseline vs IqsBaselineSimulator.
    Options o;
    o.target = Target::IqsBaseline;
    o.process_qubits = 2;
    dist::DistState state(n, 2);
    dist::IqsBaselineSimulator().run(c, state);
    expect_bit_identical(Engine::compile(c, o).execute().state,
                         state.to_state_vector(), "iqs-baseline");

    // A parametric plan binds per execute, exactly like binding first.
    const circuits::QaoaInstance inst = circuits::qaoa_instance(n, 2, 7);
    const ParamBinding binding = inst.uniform_binding(0.37, 1.21);
    const std::vector<double> values =
        resolve_binding(inst.circuit.param_names(), binding);
    dist::DistState bound_state(n, 2);
    dist::IqsBaselineSimulator().run(inst.circuit.bound(values), bound_state);
    ExecOptions eo;
    eo.bindings = binding;
    const sv::StateVector engine_state =
        Engine::compile(inst.circuit, o).execute(eo).state;
    const sv::StateVector legacy = bound_state.to_state_vector();
    ASSERT_EQ(engine_state.bytes(), legacy.bytes());
    EXPECT_EQ(std::memcmp(engine_state.data(), legacy.data(), legacy.bytes()),
              0)
        << "parametric iqs-baseline";
  }
}

// Partition/compile work happens at compile time only: execute() never
// calls the partitioner again, and the compile-side numbers in Result are
// the plan's constants, read from the sources the plan compiled.
TEST(Engine, PartitionWorkOnlyAtCompile) {
  const Circuit c = circuits::qaoa(9, 2, 4);
  for (const Options& o : all_target_options()) {
    const std::uint64_t before = partition::partition_invocations();
    const ExecutionPlan plan = Engine::compile(c, o);
    const std::uint64_t after_compile = partition::partition_invocations();
    if (o.target != Target::Flat && o.target != Target::IqsBaseline) {
      EXPECT_GT(after_compile, before) << target_name(o.target);
      // A limit below the circuit width splits the circuit.
      EXPECT_GT(plan.num_parts(), 1u) << target_name(o.target);
    } else {
      // Flat is one part holding every gate: no partitioner call.
      EXPECT_EQ(after_compile, before) << target_name(o.target);
      EXPECT_EQ(plan.partition_seconds(), 0.0) << target_name(o.target);
    }

    const Result r1 = plan.execute();
    const Result r2 = plan.execute();
    EXPECT_EQ(partition::partition_invocations(), after_compile)
        << "execute() re-partitioned on " << target_name(o.target);

    for (const Result* r : {&r1, &r2}) {
      EXPECT_EQ(r->metrics.at("compile.partition_seconds"),
                plan.partition_seconds());
      EXPECT_EQ(r->metrics.at("compile.total_seconds"),
                plan.compile_seconds());
    }
    EXPECT_EQ(r1.parts, plan.num_parts());
    EXPECT_EQ(r1.inner_parts, plan.num_inner_parts());
    EXPECT_EQ(r1.ranks, plan.num_ranks());
    EXPECT_EQ(plan.num_ranks(),
              target_is_distributed(o.target) ? 1u << o.process_qubits : 0u);
    if (o.target == Target::DistributedThreaded) {
      EXPECT_GT(plan.num_inner_parts(), 0u);  // level 2 ran
    }
  }
}

// One shared plan, many threads: Engine's thread-safety contract. Runs
// under TSan in CI (see .github/workflows/ci.yml).
TEST(Engine, SharedPlanExecutesConcurrently) {
  const Circuit c = circuits::qft(9);
  for (Target t : {Target::Hierarchical, Target::DistributedSerial,
                   Target::DistributedThreaded}) {
    Options o;
    o.target = t;
    o.limit = 5;
    if (target_is_distributed(t)) o.process_qubits = 2;
    const ExecutionPlan plan = Engine::compile(c, o);
    const Result ref = plan.execute();

    constexpr int kThreads = 4;
    std::vector<Result> results(kThreads);
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&plan, &results, i] {
          ExecOptions x;
          x.shots = 16;  // exercise the sampling path concurrently too
          results[i] = plan.execute(x);
        });
      for (std::thread& th : threads) th.join();
    }
    for (int i = 0; i < kThreads; ++i) {
      expect_bit_identical(results[i].state, ref.state, target_name(t));
      EXPECT_EQ(results[i].samples, results[0].samples) << target_name(t);
    }
  }
}

TEST(Engine, ExecutesFromCallerSuppliedInitialState) {
  const Circuit prep = circuits::cat_state(8);
  const Circuit c = circuits::qft(8);
  const sv::StateVector start = sv::FlatSimulator().simulate(prep);

  sv::StateVector expected = start;
  sv::FlatSimulator().run(c, expected);

  for (const Options& base : all_target_options()) {
    Options o = base;
    const ExecutionPlan plan = Engine::compile(c, o);
    ExecOptions x;
    x.initial_state = &start;
    const Result r = plan.execute(x);
    EXPECT_LT(r.state.max_abs_diff(expected), 1e-10) << target_name(o.target);
    // The input state is untouched: plans never mutate caller data.
    EXPECT_LT(start.max_abs_diff(sv::FlatSimulator().simulate(prep)), 1e-15);
  }

  const sv::StateVector wrong_size(5);
  ExecOptions bad;
  bad.initial_state = &wrong_size;
  EXPECT_THROW(Engine::compile(c, Options{}).execute(bad), Error);
}

TEST(Engine, ShotsAndObservablesFirstClass) {
  const Circuit c = circuits::cat_state(8);
  const ExecutionPlan plan = Engine::compile(c, Options{});

  ExecOptions x;
  x.shots = 200;
  x.observables.push_back(sv::PauliString::parse("Z0*Z7"));
  x.observables.push_back(sv::PauliString::parse("Z0"));
  const Result r = plan.execute(x);

  ASSERT_EQ(r.samples.size(), 200u);
  const Index all_ones = (Index{1} << 8) - 1;
  for (Index s : r.samples) EXPECT_TRUE(s == 0 || s == all_ones) << s;

  ASSERT_EQ(r.observables.size(), 2u);
  EXPECT_NEAR(r.observables[0], 1.0, 1e-10);   // qubits perfectly correlated
  EXPECT_NEAR(r.observables[1], 0.0, 1e-10);   // each marginal is 50/50

  // Same shot seed, same samples; different seed, (almost surely) same
  // distribution but independent draws.
  const Result r2 = plan.execute(x);
  EXPECT_EQ(r.samples, r2.samples);
}

TEST(Engine, ResultJsonCarriesReportFields) {
  const Circuit c = circuits::bv(8);
  {
    Options o;
    o.target = Target::DistributedThreaded;
    o.process_qubits = 2;
    ExecOptions x;
    x.shots = 8;
    const Result r = Engine::compile(c, o).execute(x);
    const std::string j = r.to_json();
    for (const char* key :
         {"\"circuit\": \"bv\"", "\"target\": \"distributed-threaded\"",
          "\"parts\":", "\"ranks\": 4", "\"total_seconds\":",
          "\"metrics\": {", "\"compile.total_seconds\":",
          "\"execute.wall_seconds\":", "\"exchange.bytes\":",
          "\"exchange.modeled_seconds.sum\":", "\"step.wall_seconds.sum\":",
          "\"shots\": 8", "\"norm\":"})
      EXPECT_NE(j.find(key), std::string::npos) << key << "\n" << j;
    // Numbers live only in "metrics": no top-level duplicates.
    for (const char* key : {"\"compile_seconds\"", "\"comm_bytes\"",
                            "\"wall_seconds_measured\"", "\"comm_ratio\""})
      EXPECT_EQ(j.find(key), std::string::npos) << key << "\n" << j;
    // The histogram counts every shot; the JSON opens with the heaviest.
    const auto top = r.top_counts(16);
    double shots = 0.0;
    for (const auto& [count, outcome] : top) shots += count;
    EXPECT_EQ(shots, 8.0);
    const std::string counts =
        "\"top_counts\": {\"" + std::to_string(top.at(0).second) + "\": " +
        std::to_string(static_cast<int>(top.at(0).first));
    EXPECT_NE(j.find(counts), std::string::npos) << counts << "\n" << j;
  }
  {
    const std::string j = Engine::compile(c, Options{}).execute().to_json();
    for (const char* key : {"\"target\": \"hierarchical\"",
                            "\"apply.seconds\":", "\"relayout.seconds\":",
                            "\"relayout.bytes\":"})
      EXPECT_NE(j.find(key), std::string::npos) << key << "\n" << j;
    EXPECT_EQ(j.find("\"exchange.bytes\""), std::string::npos) << j;
    EXPECT_EQ(j.find("\"ranks\""), std::string::npos) << j;
    EXPECT_EQ(j.find("\"top_counts\""), std::string::npos) << j;  // no shots
  }
}

TEST(Engine, ValidatesOptions) {
  const Circuit c = circuits::bv(8);
  Options o;
  o.target = Target::DistributedSerial;
  EXPECT_THROW(Engine::compile(c, o), Error);  // process_qubits == 0
  o.target = Target::IqsBaseline;
  EXPECT_THROW(Engine::compile(c, o), Error);
  EXPECT_THROW(ExecutionPlan().execute(), Error);  // empty plan
  EXPECT_FALSE(ExecutionPlan().valid());
  EXPECT_THROW(parse_target("warp-drive"), Error);

  // A second level runs only on the distributed-serial/-threaded targets;
  // anywhere else the limit is rejected rather than silently dropped.
  o.level2_limit = 3;
  o.process_qubits = 2;
  for (Target t : {Target::Flat, Target::Hierarchical, Target::IqsBaseline}) {
    o.target = t;
    EXPECT_THROW(Engine::compile(c, o), Error) << target_name(t);
  }
  for (Target t : {Target::DistributedSerial, Target::DistributedThreaded}) {
    o.target = t;
    EXPECT_NO_THROW(Engine::compile(c, o)) << target_name(t);
  }
}

// Report-only executions skip the state (and, on sharded targets, the
// O(2^n) gather) but still carry the full report.
TEST(Engine, ReportOnlyExecutionSkipsState) {
  const Circuit c = circuits::bv(9);
  Options o;
  o.target = Target::DistributedSerial;
  o.process_qubits = 2;
  const ExecutionPlan plan = Engine::compile(c, o);

  ExecOptions x;
  x.want_state = false;
  const Result r = plan.execute(x);
  EXPECT_EQ(r.state.size(), 0u);
  EXPECT_NEAR(r.norm, 1.0, 1e-10);
  EXPECT_EQ(r.parts, plan.num_parts());
  EXPECT_GT(r.metrics.at("exchange.count"), 0.0);

  // Shots force the gather internally but the state is still dropped.
  x.shots = 4;
  const Result rs = plan.execute(x);
  EXPECT_EQ(rs.state.size(), 0u);
  EXPECT_EQ(rs.samples.size(), 4u);
}

}  // namespace
}  // namespace hisim
