// The noise-channel subsystem: channel validation and completeness,
// compile-time slot reservation, trajectory determinism and seed replay,
// convergence of the stochastic estimators to the analytic channel
// action, readout confusion, and the headline acceptance — a
// depolarizing-noise QAOA run of >= 1000 trajectories through ONE
// compiled plan that reproduces the analytic single-qubit channel
// expectation within 3 sigma without ever re-invoking the partitioner.
// The concurrency test runs under TSan in CI.

#include "noise/noise_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "hisvsim/engine.hpp"
#include "noise/trajectory.hpp"
#include "partition/partition.hpp"
#include "sv/observables.hpp"

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

TEST(NoiseChannel, RejectsInvalidProbabilities) {
  EXPECT_THROW(noise::Channel::depolarizing(-0.1), Error);
  EXPECT_THROW(noise::Channel::depolarizing(1.5), Error);
  EXPECT_THROW(noise::Channel::bit_flip(2.0), Error);
  EXPECT_THROW(noise::Channel::phase_flip(-1e-9), Error);
  EXPECT_THROW(noise::Channel::pauli(0.5, 0.5, 0.5), Error);
  EXPECT_THROW(noise::Channel::pauli(-0.1, 0.0, 0.0), Error);
  EXPECT_THROW(noise::Channel::amplitude_damping(1.01), Error);
  noise::NoiseModel m;
  EXPECT_THROW(m.readout(noise::ReadoutError{1.2, 0.0}), Error);
  EXPECT_THROW(m.readout(0, noise::ReadoutError{0.0, -0.2}), Error);
}

// Kraus-unraveling norm preservation: sum_k q_k Kt_k^dag Kt_k == I for
// every channel (trace preservation in expectation), and branch
// probabilities form a distribution.
TEST(NoiseChannel, TracePreservingCompleteness) {
  for (const noise::Channel& ch :
       {noise::Channel::depolarizing(0.3), noise::Channel::bit_flip(0.2),
        noise::Channel::phase_flip(0.7),
        noise::Channel::pauli(0.1, 0.2, 0.3),
        noise::Channel::amplitude_damping(0.0),
        noise::Channel::amplitude_damping(0.25),
        noise::Channel::amplitude_damping(1.0)}) {
    EXPECT_TRUE(ch.trace_preserving()) << ch.name;
    double total = 0.0;
    for (const auto& op : ch.ops) {
      EXPECT_GT(op.prob, 0.0) << ch.name;
      total += op.prob;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << ch.name;
  }
  EXPECT_TRUE(noise::Channel::depolarizing(0.3).unitary_ops());
  EXPECT_FALSE(noise::Channel::amplitude_damping(0.25).unitary_ops());
}

// Compile-time slot reservation: one slot per (gate, qubit, channel)
// match, in gate order, and an un-noisy execute of the instrumented plan
// is bit-identical to the ideal plan (slots apply as exact no-ops).
TEST(NoiseInstrument, ReservesSlotsAndStaysIdealWithoutSampling) {
  const Circuit c = circuits::qft(6);
  noise::NoiseModel model;
  model.after_all_gates(noise::Channel::depolarizing(0.05));
  const noise::Instrumented inst = noise::instrument(c, model);

  std::size_t expected = 0;
  for (const Gate& g : c.gates()) expected += g.arity();
  EXPECT_EQ(inst.noise.slots.size(), expected);
  EXPECT_EQ(inst.circuit.num_gates(), c.num_gates() + expected);
  EXPECT_EQ(inst.noise.channels.size(), 1u);  // shared, not per-slot

  // Flat target: gate order is circuit order on both plans, and unfilled
  // slots are skipped by the kernels, so the states are bit-identical.
  // (Partitioned targets may legally group the extra slot gates into a
  // different — still DAG-respecting — execution order.)
  Options o;
  o.target = Target::Flat;
  o.noise = model;
  const ExecutionPlan noisy = Engine::compile(c, o);
  EXPECT_TRUE(noisy.noisy());
  EXPECT_EQ(noisy.num_noise_slots(), expected);
  Options ideal_opt;
  ideal_opt.target = Target::Flat;
  const ExecutionPlan ideal = Engine::compile(c, ideal_opt);
  EXPECT_FALSE(ideal.noisy());
  expect_bit_identical(noisy.execute().state, ideal.execute().state,
                       "instrumented-without-sampling vs ideal");

  // Per-gate-kind and per-qubit attachment reserve only matching slots.
  noise::NoiseModel targeted;
  targeted.after_gate(GateKind::H, noise::Channel::bit_flip(0.1));
  targeted.on_qubit(0, noise::Channel::phase_flip(0.1));
  std::size_t h_qubits = 0, q0_touches = 0;
  for (const Gate& g : c.gates()) {
    if (g.kind == GateKind::H) h_qubits += g.arity();
    for (Qubit q : g.qubits) q0_touches += q == 0;
  }
  EXPECT_EQ(noise::instrument(c, targeted).noise.slots.size(),
            h_qubits + q0_touches);

  // A readout-only model is noisy but reserves no slots.
  noise::NoiseModel ro;
  ro.readout(noise::ReadoutError{0.02, 0.03});
  EXPECT_FALSE(ro.empty());
  EXPECT_TRUE(noise::instrument(c, ro).noise.slots.empty());
  // Trajectory entry points on an ideal (un-noisy) plan are rejected —
  // replaying a recorded seed against the wrong plan must not silently
  // return an ideal result.
  EXPECT_THROW(ideal.execute_trajectories(4), Error);
  EXPECT_THROW(ideal.execute_trajectory(42), Error);
}

TEST(NoiseTrajectories, DeterministicForFixedSeeds) {
  const Circuit c = circuits::noise_calibration(6, 3);
  Options o;
  o.limit = 4;
  o.noise.after_all_gates(noise::Channel::depolarizing(0.08));
  o.noise.readout(noise::ReadoutError{0.02, 0.02});
  const ExecutionPlan plan = Engine::compile(c, o);

  TrajectoryOptions topt;
  topt.exec.shots = 7;
  topt.exec.observables.push_back(sv::PauliString::parse("Z0"));
  topt.seed = 123;
  const NoisyResult a = plan.execute_trajectories(40, topt);
  const NoisyResult b = plan.execute_trajectories(40, topt);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.observable_means, b.observable_means);
  EXPECT_EQ(a.observable_stddevs, b.observable_stddevs);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.total_weight, b.total_weight);

  // A different base seed draws different trajectories.
  topt.seed = 124;
  const NoisyResult d = plan.execute_trajectories(40, topt);
  EXPECT_NE(a.seeds, d.seeds);
}

// Bit-identity of a replayed trajectory on all six targets: feeding a
// recorded seed back to execute_trajectory reproduces the trajectory's
// state, samples (readout corruption included), and observable values
// exactly, and the recorded aggregate is the serial reduction of the
// replayed values.
TEST(NoiseTrajectories, ReplayBitIdentityOnAllSixTargets) {
  const auto inst = circuits::qaoa_instance(9, 1, 11);
  const ParamBinding binding = inst.uniform_binding(0.6, 0.35);
  for (Options o : all_target_options()) {
    o.noise.after_all_gates(noise::Channel::depolarizing(0.04));
    o.noise.after_gate(GateKind::RX,
                       noise::Channel::amplitude_damping(0.05));
    o.noise.readout(noise::ReadoutError{0.03, 0.01});
    const ExecutionPlan plan = Engine::compile(inst.circuit, o);
    ASSERT_TRUE(plan.noisy()) << target_name(o.target);
    ASSERT_GT(plan.num_noise_slots(), 0u) << target_name(o.target);

    TrajectoryOptions topt;
    topt.exec.bindings = binding;
    topt.exec.shots = 5;
    topt.exec.observables.push_back(sv::PauliString::parse("Z0*Z1"));
    const NoisyResult nr = plan.execute_trajectories(4, topt);
    ASSERT_EQ(nr.seeds.size(), 4u) << target_name(o.target);

    double mean = 0.0;
    for (std::size_t t = 0; t < nr.seeds.size(); ++t) {
      ExecOptions x;
      x.bindings = binding;
      x.shots = 5;
      x.observables = topt.exec.observables;
      const Result r1 = plan.execute_trajectory(nr.seeds[t], x);
      const Result r2 = plan.execute_trajectory(nr.seeds[t], x);
      expect_bit_identical(r1.state, r2.state,
                           std::string(target_name(o.target)) +
                               " trajectory " + std::to_string(t));
      EXPECT_EQ(r1.samples, r2.samples) << target_name(o.target);
      EXPECT_EQ(r1.norm, nr.weights[t]) << target_name(o.target);
      ASSERT_EQ(r1.observables.size(), 1u);
      mean += r1.observables[0];
    }
    mean /= static_cast<double>(nr.seeds.size());
    EXPECT_DOUBLE_EQ(mean, nr.observable_means[0]) << target_name(o.target);
  }
}

// Depolarizing channel converges to the analytic expectation: a single
// depolarizing slot of strength p scales any single-qubit Pauli
// expectation by (1 - 4p/3).
TEST(NoiseTrajectories, DepolarizingConvergesToAnalytic) {
  Circuit c(1, "plus");
  c.add(Gate::h(0));  // |+>: <X> = 1 exactly
  const double p = 0.2;
  Options o;
  o.target = Target::Flat;
  o.noise.after_all_gates(noise::Channel::depolarizing(p));
  const ExecutionPlan plan = Engine::compile(c, o);
  EXPECT_EQ(plan.num_noise_slots(), 1u);

  TrajectoryOptions topt;
  topt.exec.observables.push_back(sv::PauliString::parse("X0"));
  const NoisyResult nr = plan.execute_trajectories(3000, topt);
  const double analytic = 1.0 - 4.0 * p / 3.0;
  ASSERT_GT(nr.observable_stderrs[0], 0.0);
  EXPECT_NEAR(nr.observable_means[0], analytic,
              3.0 * nr.observable_stderrs[0]);
  // Pauli-only model: every trajectory weight is the ideal norm (1 up to
  // the fp rounding of the H amplitudes).
  for (double w : nr.weights) EXPECT_NEAR(w, 1.0, 1e-12);
  EXPECT_NEAR(nr.mean_weight, 1.0, 1e-12);
}

// Amplitude damping via the weighted Kraus unraveling: from |+>,
// E[<Z>] = gamma analytically, and the weights average to 1 (the
// unraveling is trace-preserving in expectation even though individual
// trajectories are unnormalized).
TEST(NoiseTrajectories, AmplitudeDampingWeightedEstimator) {
  Circuit c(1, "plus");
  c.add(Gate::h(0));
  const double gamma = 0.3;
  Options o;
  o.target = Target::Flat;
  o.noise.after_all_gates(noise::Channel::amplitude_damping(gamma));
  const ExecutionPlan plan = Engine::compile(c, o);

  TrajectoryOptions topt;
  topt.exec.observables.push_back(sv::PauliString::parse("Z0"));
  const std::size_t num = 4000;
  const NoisyResult nr = plan.execute_trajectories(num, topt);
  EXPECT_NEAR(nr.observable_means[0], gamma,
              3.0 * std::max(nr.observable_stderrs[0], 1e-12));

  double wvar = 0.0;
  for (double w : nr.weights) {
    EXPECT_GT(w, 0.0);  // from |+>, neither Kraus branch annihilates
    const double d = w - nr.mean_weight;
    wvar += d * d;
  }
  wvar /= static_cast<double>(num - 1);
  EXPECT_NEAR(nr.mean_weight, 1.0,
              3.0 * std::sqrt(wvar / static_cast<double>(num)));
}

// Readout confusion round-trip: a deterministic |01> outcome corrupted
// by per-qubit confusion matrices lands on each readout with the
// analytic confusion probability.
TEST(NoiseTrajectories, ReadoutConfusionRoundTrip) {
  Circuit c(2, "x0");
  c.add(Gate::x(0));  // true outcome 0b01 every time
  Options o;
  o.target = Target::Flat;
  o.noise.readout(0, noise::ReadoutError{0.0, 0.25});  // 1 reads 0 w.p. .25
  o.noise.readout(1, noise::ReadoutError{0.1, 0.0});   // 0 reads 1 w.p. .1
  const ExecutionPlan plan = Engine::compile(c, o);

  TrajectoryOptions topt;
  topt.exec.shots = 500;
  const NoisyResult nr = plan.execute_trajectories(40, topt);
  const double shots = static_cast<double>(40 * 500);
  double pooled = 0.0;
  for (const auto& [outcome, w] : nr.counts) pooled += w;
  EXPECT_EQ(pooled, shots);  // weights are 1: plain pooled counts

  const auto frac = [&](Index outcome) {
    const auto it = nr.counts.find(outcome);
    return (it == nr.counts.end() ? 0.0 : it->second) / shots;
  };
  // P(read b1 b0) = P0(b0 | true 1) * P1(b1 | true 0); 3 sigma of a
  // binomial cell at n = 20000 is under 0.01.
  EXPECT_NEAR(frac(0b01), 0.75 * 0.9, 0.02);
  EXPECT_NEAR(frac(0b00), 0.25 * 0.9, 0.02);
  EXPECT_NEAR(frac(0b11), 0.75 * 0.1, 0.02);
  EXPECT_NEAR(frac(0b10), 0.25 * 0.1, 0.02);
}

// Acceptance: a depolarizing-noise QAOA run through ONE compiled plan —
// >= 1000 trajectories, analytic (1 - 4p/3) scaling reproduced within
// 3 sigma, zero partitioner invocations after compile. With gamma = 0
// the QAOA state is exactly |+>^n, so <X_q> = 1 and each qubit's final
// RX mixer carries exactly one depolarizing slot acting after every
// other gate on that qubit.
TEST(NoiseTrajectories, QaoaDepolarizingAcceptance) {
  const auto inst = circuits::qaoa_instance(9, 1, 7);
  ParamBinding binding = inst.uniform_binding(0.0, 0.45);
  const double p = 0.15;
  Options o;
  o.target = Target::Hierarchical;
  o.limit = 5;
  o.noise.after_gate(GateKind::RX, noise::Channel::depolarizing(p));
  const ExecutionPlan plan = Engine::compile(inst.circuit, o);
  EXPECT_EQ(plan.num_noise_slots(), 9u);  // one RX per qubit per round

  TrajectoryOptions topt;
  topt.exec.bindings = binding;
  for (Qubit q : {0u, 4u, 8u})
    topt.exec.observables.push_back(
        sv::PauliString::parse("X" + std::to_string(q)));

  const std::uint64_t compiled = partition::partition_invocations();
  const NoisyResult nr = plan.execute_trajectories(1200, topt);
  EXPECT_EQ(partition::partition_invocations(), compiled)
      << "execute_trajectories re-invoked the partitioner";

  const double analytic = 1.0 - 4.0 * p / 3.0;  // x <X_q>_ideal = 1
  for (std::size_t j = 0; j < nr.observable_means.size(); ++j) {
    ASSERT_GT(nr.observable_stderrs[j], 0.0) << j;
    EXPECT_NEAR(nr.observable_means[j], analytic,
                3.0 * nr.observable_stderrs[j])
        << "observable " << j;
    // The noise measurably acted: 0.8 is >> 3 sigma away from 1.
    EXPECT_LT(nr.observable_means[j] + 3.0 * nr.observable_stderrs[j], 1.0)
        << "observable " << j;
  }
}

// The sharded trajectory paths substitute sampled operators without
// touching the schedule: same seeds, same statistics as the single-node
// path. The distributed executor moves exactly what the ideal run moves;
// the IQS baseline adds what its per-gate rule charges for the sampled
// operators.
TEST(NoiseTrajectories, DistributedMatchesSingleNodeStatistics) {
  const Circuit c = circuits::noise_calibration(8, 2);
  Options hier;
  hier.limit = 5;
  hier.noise.after_all_gates(noise::Channel::depolarizing(0.03));
  Options dist = hier;
  dist.target = Target::DistributedSerial;
  dist.process_qubits = 2;
  dist.limit = 0;
  Options iqs = dist;
  iqs.target = Target::IqsBaseline;

  TrajectoryOptions topt;
  topt.exec.observables.push_back(sv::PauliString::parse("Z0"));
  topt.exec.shots = 3;
  const NoisyResult a =
      Engine::compile(c, hier).execute_trajectories(30, topt);
  for (const Options& sharded : {dist, iqs}) {
    SCOPED_TRACE(target_name(sharded.target));
    const NoisyResult b =
        Engine::compile(c, sharded).execute_trajectories(30, topt);
    EXPECT_EQ(a.seeds, b.seeds);
    EXPECT_EQ(a.counts, b.counts);
    for (std::size_t j = 0; j < a.observable_means.size(); ++j)
      EXPECT_NEAR(a.observable_means[j], b.observable_means[j], 1e-12) << j;

    // Sampled operators are slot-local on the distributed executor, so a
    // noisy trajectory exchanges exactly what the ideal run does. The IQS
    // baseline pays one more pairwise exchange per sampled X or Y on a
    // process qubit, each moving the bytes of one of the circuit's own X
    // gates there (its only exchanges).
    const ExecutionPlan plan = Engine::compile(c, sharded);
    const Result ideal = plan.execute();
    const double count = ideal.metrics.at("exchange.count");
    const double bytes = ideal.metrics.at("exchange.bytes");
    ASSERT_GT(count, 0.0);
    const noise::CompiledNoise cn = noise::instrument(c, sharded.noise).noise;
    double all_extra = 0.0;
    for (const std::uint64_t seed : a.seeds) {
      double extra = 0.0;
      if (sharded.target == Target::IqsBaseline) {
        const std::vector<Gate> ops = noise::sample_ops(cn, seed);
        for (std::size_t id = 0; id < ops.size(); ++id)
          if (cn.slots[id].qubit >= c.num_qubits() - sharded.process_qubits &&
              (ops[id].kind == GateKind::X || ops[id].kind == GateKind::Y))
            extra += 1.0;
      }
      all_extra += extra;
      const Result noisy = plan.execute_trajectory(seed);
      EXPECT_EQ(noisy.metrics.at("exchange.count"), count + extra);
      EXPECT_EQ(noisy.metrics.at("exchange.bytes"),
                bytes / count * (count + extra));
    }
    // The seeds sample at least one exchanging operator on the baseline.
    if (sharded.target == Target::IqsBaseline) {
      EXPECT_GT(all_extra, 0.0);
    }
  }
}

// One shared plan, several threads each running whole trajectory sets —
// the concurrency contract inherited from execute(). TSan'd in CI.
TEST(NoiseTrajectories, ConcurrentTrajectoriesShareOnePlan) {
  const Circuit c = circuits::noise_calibration(7, 2);
  for (Target t : {Target::Hierarchical, Target::DistributedThreaded}) {
    Options o;
    o.target = t;
    o.limit = 4;
    if (target_is_distributed(t)) o.process_qubits = 2;
    o.noise.after_all_gates(noise::Channel::depolarizing(0.05));
    o.noise.readout(noise::ReadoutError{0.02, 0.02});
    const ExecutionPlan plan = Engine::compile(c, o);

    TrajectoryOptions topt;
    topt.exec.shots = 4;
    topt.exec.observables.push_back(sv::PauliString::parse("Z1"));
    const NoisyResult ref = plan.execute_trajectories(12, topt);

    constexpr int kThreads = 3;
    std::vector<NoisyResult> all(kThreads);
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&plan, &topt, &all, i] {
          all[i] = plan.execute_trajectories(12, topt);
        });
      for (std::thread& th : threads) th.join();
    }
    for (int i = 0; i < kThreads; ++i) {
      EXPECT_EQ(all[i].seeds, ref.seeds) << target_name(t);
      EXPECT_EQ(all[i].weights, ref.weights) << target_name(t);
      EXPECT_EQ(all[i].observable_means, ref.observable_means)
          << target_name(t);
      EXPECT_EQ(all[i].counts, ref.counts) << target_name(t);
    }
  }
}

TEST(NoiseTrajectories, ValidatesUpFront) {
  const auto inst = circuits::qaoa_instance(8, 1, 3);
  Options o;
  o.limit = 4;
  o.noise.after_all_gates(noise::Channel::bit_flip(0.05));
  const ExecutionPlan plan = Engine::compile(inst.circuit, o);

  // Unbound parameters fail on the calling thread, naming the parameter.
  try {
    plan.execute_trajectories(4);
    FAIL() << "expected unbound-parameter error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unbound parameter"),
              std::string::npos);
  }
  // Zero trajectories and a wrong-shaped initial state are rejected.
  TrajectoryOptions topt;
  topt.exec.bindings = inst.uniform_binding(0.2, 0.1);
  EXPECT_THROW(plan.execute_trajectories(0, topt), Error);
  const sv::StateVector wrong(5);
  topt.exec.initial_state = &wrong;
  EXPECT_THROW(plan.execute_trajectories(2, topt), Error);
  // Observables on a repeated or out-of-range qubit, naming it.
  topt.exec.initial_state = nullptr;
  for (const sv::PauliString& bad :
       {sv::PauliString{{{3, sv::Pauli::Y}, {3, sv::Pauli::Y}}},
        sv::PauliString{{{9, sv::Pauli::Z}}}}) {
    topt.exec.observables = {bad};
    try {
      plan.execute_trajectories(2, topt);
      ADD_FAILURE() << "expected an observable error for " << bad.to_string();
    } catch (const Error& e) {
      const Qubit q = bad.factors.front().first;
      EXPECT_NE(std::string(e.what()).find("qubit " + std::to_string(q)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(NoiseTrajectories, JsonReportIsSelfDescribing) {
  const auto inst = circuits::qaoa_instance(5, 1, 3);
  Options o;
  o.limit = 3;
  o.noise.after_all_gates(noise::Channel::depolarizing(0.1));
  TrajectoryOptions topt;
  topt.exec.bindings = inst.uniform_binding(0.25, 0.125);
  topt.exec.shots = 3;
  topt.exec.observables.push_back(sv::PauliString::parse("Z0"));
  topt.seed = 99;
  const NoisyResult nr =
      Engine::compile(inst.circuit, o).execute_trajectories(8, topt);
  const std::string j = nr.to_json();
  EXPECT_NE(j.find("\"trajectories\": 8"), std::string::npos) << j;
  EXPECT_NE(j.find("\"noise_slots\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"observable_means\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"top_counts\""), std::string::npos) << j;
  // Re-runnable from the report alone: bindings and seed stream included.
  EXPECT_NE(j.find("\"noise_seed\": 99"), std::string::npos) << j;
  EXPECT_NE(j.find("\"gamma0\": 0.25"), std::string::npos) << j;
  EXPECT_NE(j.find("\"beta0\": 0.125"), std::string::npos) << j;
  // top_counts(k) is weight-descending and capped at k.
  const auto top = nr.top_counts(2);
  ASSERT_LE(top.size(), 2u);
  if (top.size() == 2) {
    EXPECT_GE(top[0].first, top[1].first);
  }
}

}  // namespace
}  // namespace hisim
