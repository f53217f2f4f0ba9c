#include "sv/observables.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "hisvsim/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace hisim::sv {
namespace {

/// Uniformly random amplitudes, normalized by a serial sum.
StateVector random_state(unsigned n, std::uint64_t seed) {
  StateVector s(n);
  Rng rng(seed);
  double norm = 0.0;
  for (Index i = 0; i < s.size(); ++i) {
    s[i] = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    norm += std::norm(s[i]);
  }
  for (Index i = 0; i < s.size(); ++i) s[i] /= std::sqrt(norm);
  return s;
}

PauliString z_string(const std::vector<Qubit>& qubits) {
  PauliString p;
  for (Qubit q : qubits) p.factors.emplace_back(q, Pauli::Z);
  return p;
}

/// Serial oracle for a Z string: sum_i (-1)^|i & mask| |a_i|^2 in index
/// order, one accumulator.
double serial_z_expectation(const StateVector& s,
                            const std::vector<Qubit>& qubits) {
  Index mask = 0;
  for (Qubit q : qubits) mask |= Index{1} << q;
  double acc = 0.0;
  for (Index i = 0; i < s.size(); ++i)
    acc += (std::popcount(i & mask) & 1 ? -1.0 : 1.0) * std::norm(s[i]);
  return acc;
}

/// Reference for any Pauli string: <s| (P|s>), with P|s> built by the
/// gate kernels one factor at a time.
double applied_expectation(const StateVector& s, const PauliString& p) {
  StateVector ps = s;
  for (const auto& [q, op] : p.factors)
    apply_gate(ps, op == Pauli::X   ? Gate::x(q)
                   : op == Pauli::Y ? Gate::y(q)
                                    : Gate::z(q));
  cplx acc = 0.0;
  for (Index i = 0; i < s.size(); ++i) acc += std::conj(s[i]) * ps[i];
  EXPECT_NEAR(acc.imag(), 0.0, 1e-12) << p.to_string();
  return acc.real();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string error_of(const StateVector& s, const PauliString& p) {
  try {
    (void)expectation(s, p);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(PauliParse, IndexedForm) {
  const PauliString p = PauliString::parse("Z0*Z3");
  ASSERT_EQ(p.factors.size(), 2u);
  EXPECT_EQ(p.factors[0].first, 0u);
  EXPECT_EQ(p.factors[0].second, Pauli::Z);
  EXPECT_EQ(p.factors[1].first, 3u);
  EXPECT_EQ(p.to_string(), "Z0*Z3");
}

TEST(PauliParse, DenseForm) {
  const PauliString p = PauliString::parse("XIZ");
  ASSERT_EQ(p.factors.size(), 2u);
  EXPECT_EQ(p.factors[0].first, 0u);
  EXPECT_EQ(p.factors[0].second, Pauli::X);
  EXPECT_EQ(p.factors[1].first, 2u);
  EXPECT_EQ(p.factors[1].second, Pauli::Z);
}

TEST(PauliParse, Rejects) {
  EXPECT_THROW(PauliString::parse("Q0"), Error);
  EXPECT_THROW(PauliString::parse("Z0*Z0"), Error);
  // An index past the 32-bit Qubit must not wrap (2^32 would read as Z0)
  // or escape as std::out_of_range; the Error names the factor.
  for (const std::string factor : {"Z4294967296", "X99999999999999999999999"}) {
    try {
      (void)PauliString::parse("Z1*" + factor);
      ADD_FAILURE() << factor << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(factor), std::string::npos)
          << e.what();
    }
  }
}

TEST(Expectation, GroundStateZ) {
  StateVector s(3);
  EXPECT_NEAR(expectation(s, PauliString::parse("Z0")), 1.0, 1e-12);
  EXPECT_NEAR(expectation(s, PauliString::parse("Z0*Z1*Z2")), 1.0, 1e-12);
  EXPECT_NEAR(expectation(s, PauliString::parse("X0")), 0.0, 1e-12);
}

TEST(Expectation, PlusStateX) {
  StateVector s(2);
  apply_gate(s, Gate::h(0));
  EXPECT_NEAR(expectation(s, PauliString::parse("X0")), 1.0, 1e-12);
  EXPECT_NEAR(expectation(s, PauliString::parse("Z0")), 0.0, 1e-12);
}

TEST(Expectation, BellCorrelations) {
  StateVector s(2);
  apply_gate(s, Gate::h(0));
  apply_gate(s, Gate::cx(0, 1));
  EXPECT_NEAR(expectation(s, PauliString::parse("Z0*Z1")), 1.0, 1e-12);
  EXPECT_NEAR(expectation(s, PauliString::parse("X0*X1")), 1.0, 1e-12);
  EXPECT_NEAR(expectation(s, PauliString::parse("Y0*Y1")), -1.0, 1e-12);
  EXPECT_NEAR(expectation(s, PauliString::parse("Z0")), 0.0, 1e-12);
}

TEST(Expectation, YEigenstate) {
  // (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y.
  StateVector s(1);
  apply_gate(s, Gate::h(0));
  apply_gate(s, Gate::s(0));
  EXPECT_NEAR(expectation(s, PauliString::parse("Y0")), 1.0, 1e-12);
}

TEST(Expectation, HamiltonianSum) {
  StateVector s(2);
  apply_gate(s, Gate::h(0));
  apply_gate(s, Gate::cx(0, 1));
  const std::vector<std::pair<double, PauliString>> ham = {
      {0.5, PauliString::parse("Z0*Z1")},
      {-2.0, PauliString::parse("X0*X1")},
  };
  EXPECT_NEAR(expectation(s, ham), 0.5 - 2.0, 1e-12);
}

// The diagonal pass against a serial oracle. The sizes put some states
// under one 64-amplitude chunk (n = 1, 2, 5) and some over it; the
// strings cover the low six qubits (the chunk's sign table), the qubits
// above them (the per-chunk sign) and both at once.
TEST(Expectation, ZStringsMatchSerialOracle) {
  const std::vector<std::vector<Qubit>> strings = {
      {0},       {5},          {0, 3},     {1, 2, 4}, {6},
      {7, 12},   {0, 6},       {5, 6, 8},  {2, 9, 12}, {3, 4, 5},
      {8, 10, 11}};
  for (unsigned n : {1u, 2u, 5u, 6u, 9u, 13u}) {
    const StateVector s = random_state(n, 100 + n);
    const double norm = serial_z_expectation(s, {});
    EXPECT_NEAR(s.norm(), norm, 1e-12) << "n=" << n;
    EXPECT_TRUE(same_bits(expectation(s, PauliString{}), s.norm()))
        << "n=" << n;
    int tested = 0;
    for (const std::vector<Qubit>& qs : strings) {
      if (std::any_of(qs.begin(), qs.end(), [n](Qubit q) { return q >= n; }))
        continue;
      ++tested;
      const PauliString p = z_string(qs);
      EXPECT_NEAR(expectation(s, p), serial_z_expectation(s, qs), 1e-12)
          << "n=" << n << " " << p.to_string();
    }
    EXPECT_GT(tested, 0) << "n=" << n;
  }
}

TEST(Expectation, MixedStringsMatchAppliedReference) {
  const std::vector<std::string> strings = {
      "X0",        "Y0",          "X1*Z0",    "Y2*Z0*Z1",  "X0*Y1*Z4",
      "Y3*Y5",     "X4*X6*Z7",    "Z0*Y8",    "X2*Y6*Z3",  "Y0*Y1*Y2*Z8"};
  for (unsigned n : {1u, 2u, 5u, 9u}) {
    const StateVector s = random_state(n, 200 + n);
    for (const std::string& text : strings) {
      const PauliString p = PauliString::parse(text);
      bool fits = true;
      for (const auto& f : p.factors) fits = fits && f.first < n;
      if (!fits) continue;
      EXPECT_NEAR(expectation(s, p), applied_expectation(s, p), 1e-12)
          << "n=" << n << " " << text;
    }
  }
}

// Each Z-string value and the norm are pure functions of the state: the
// same bits at one and at four threads, under an inline_scope (as inside
// a sweep point or a trajectory), and as execute and execute_sweep report
// them. bench_e2e's sweep replay recomputes a point's strings outside
// the sweep and relies on exactly this.
TEST(Expectation, ZStringsBitIdenticalPooledInlineAndThroughTheEngine) {
  // n = 18: 16 grid blocks, so four threads split every pass.
  const unsigned n = 18;
  const std::vector<std::vector<Qubit>> strings = {
      {0, 1}, {3, 17}, {6}, {2, 9, 15}, {}};
  std::vector<PauliString> obs;
  for (const std::vector<Qubit>& qs : strings) obs.push_back(z_string(qs));
  Options o;
  o.target = Target::Flat;
  const ExecutionPlan plan = Engine::compile(circuits::qaoa(n, 2, 5), o);
  ExecOptions x;
  x.observables = obs;
  parallel::set_num_threads(4);
  const Result r = plan.execute(x);
  const std::vector<Result> sweep =
      plan.execute_sweep(std::vector<ParamBinding>(3), x);
  // One value per string, then the norm (oracle: the empty string).
  const auto values = [&] {
    std::vector<double> v;
    for (const PauliString& p : obs) v.push_back(expectation(r.state, p));
    v.push_back(r.state.norm());
    return v;
  };
  const std::vector<double> four = values();
  parallel::set_num_threads(1);
  const std::vector<double> one = values();
  parallel::set_num_threads(4);
  std::vector<double> inline_values;
  {
    parallel::inline_scope inline_only;
    inline_values = values();
  }
  parallel::set_num_threads(0);

  std::vector<double> engine = r.observables;
  engine.push_back(r.norm);
  ASSERT_EQ(engine.size(), strings.size() + 1);
  for (std::size_t j = 0; j < engine.size(); ++j) {
    const bool is_norm = j == strings.size();
    const std::string what = is_norm ? "norm" : obs[j].to_string();
    EXPECT_NEAR(four[j],
                serial_z_expectation(r.state, is_norm ? std::vector<Qubit>{}
                                                      : strings[j]),
                1e-12)
        << what;
    EXPECT_TRUE(same_bits(one[j], four[j])) << what;
    EXPECT_TRUE(same_bits(inline_values[j], four[j])) << what;
    EXPECT_TRUE(same_bits(engine[j], four[j])) << what;
    for (const Result& point : sweep) {
      const double v = is_norm ? point.norm : point.observables[j];
      EXPECT_TRUE(same_bits(v, four[j])) << what << " (sweep point)";
    }
  }
}

// A hand-built factor list can repeat a qubit, which parse() rejects:
// on X|00>, Z0*Z0 and X1*X1 are the identity (value 1), which a single
// pass over the masks cannot compute, so both are errors naming the qubit.
TEST(Expectation, RejectsRepeatedAndOutOfRangeQubits) {
  StateVector s(2);
  apply_gate(s, Gate::x(0));
  const std::string zz =
      error_of(s, PauliString{{{0, Pauli::Z}, {0, Pauli::Z}}});
  EXPECT_NE(zz.find("qubit 0 repeated"), std::string::npos) << zz;
  const std::string xx =
      error_of(s, PauliString{{{1, Pauli::X}, {1, Pauli::X}}});
  EXPECT_NE(xx.find("qubit 1 repeated"), std::string::npos) << xx;
  const std::string far = error_of(s, PauliString{{{2, Pauli::Y}}});
  EXPECT_NE(far.find("qubit 2 outside the 2-qubit register"),
            std::string::npos)
      << far;
  EXPECT_NO_THROW(PauliString::parse("Z0*X1").check(2));
}

TEST(Marginals, BellPairs) {
  StateVector s(3);
  apply_gate(s, Gate::h(0));
  apply_gate(s, Gate::cx(0, 2));
  const auto probs = marginal_probabilities(s, {0, 2});
  ASSERT_EQ(probs.size(), 4u);
  EXPECT_NEAR(probs[0], 0.5, 1e-12);   // |00>
  EXPECT_NEAR(probs[3], 0.5, 1e-12);   // |11>
  EXPECT_NEAR(probs[1] + probs[2], 0.0, 1e-12);
}

TEST(Marginals, SumToOne) {
  const auto s = FlatSimulator().simulate(circuits::qft(6));
  const auto probs = marginal_probabilities(s, {1, 3, 5});
  double sum = 0;
  for (double pr : probs) sum += pr;
  EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST(Sampling, DeterministicBasisState) {
  StateVector s(4);
  apply_gate(s, Gate::x(1));
  apply_gate(s, Gate::x(3));
  Rng rng(5);
  const auto shots = sample(s, 100, rng);
  for (Index v : shots) EXPECT_EQ(v, 0b1010u);
}

TEST(Sampling, UniformDistributionRoughly) {
  StateVector s(3);
  for (Qubit q = 0; q < 3; ++q) apply_gate(s, Gate::h(q));
  Rng rng(17);
  const auto shots = sample(s, 8000, rng);
  std::map<Index, int> hist;
  for (Index v : shots) ++hist[v];
  ASSERT_EQ(hist.size(), 8u);
  for (const auto& [v, count] : hist) {
    EXPECT_GT(count, 800) << v;   // expect ~1000 each
    EXPECT_LT(count, 1200) << v;
  }
}

TEST(Sampling, SeedReproducible) {
  const auto s = FlatSimulator().simulate(circuits::qaoa(6, 2, 3));
  Rng a(42), b(42);
  EXPECT_EQ(sample(s, 50, a), sample(s, 50, b));
}

// The blocked-parallel marginal accumulation must agree with a serial
// reference on a state large enough to actually split into blocks, and
// repeated calls must be bit-identical (deterministic merge order).
TEST(Marginals, ParallelBlocksMatchSerialReference) {
  const auto s = FlatSimulator().simulate(circuits::qaoa(16, 2, 9));
  const std::vector<Qubit> qs{0, 5, 11, 15};
  const auto probs = marginal_probabilities(s, qs);
  ASSERT_EQ(probs.size(), 16u);
  std::vector<double> ref(16, 0.0);
  for (Index i = 0; i < s.size(); ++i) {
    Index code = 0;
    for (unsigned j = 0; j < qs.size(); ++j)
      code |= static_cast<Index>((i >> qs[j]) & 1u) << j;
    ref[code] += std::norm(s[i]);
  }
  for (std::size_t j = 0; j < ref.size(); ++j)
    EXPECT_NEAR(probs[j], ref[j], 1e-12) << j;
  EXPECT_EQ(marginal_probabilities(s, qs), probs);  // bit-deterministic
}

// The blocked cdf build must sample the same distribution at scale, stay
// deterministic, and — since shots are drawn against the total mass —
// sample an *unnormalized* state's normalized distribution (the weighted
// Kraus-unraveling trajectories rely on this).
TEST(Sampling, BlockedCdfIsDeterministicAndHandlesUnnormalizedStates) {
  const auto s = FlatSimulator().simulate(circuits::qft(16));
  Rng a(7), b(7);
  EXPECT_EQ(sample(s, 200, a), sample(s, 200, b));

  StateVector scaled(3);
  apply_gate(scaled, Gate::h(0));
  for (Index i = 0; i < scaled.size(); ++i) scaled[i] *= 0.5;  // norm 0.25
  Rng rng(21);
  const auto shots = sample(scaled, 4000, rng);
  const double p0 = static_cast<double>(
                        std::count(shots.begin(), shots.end(), Index{0})) /
                    4000.0;
  EXPECT_NEAR(p0, 0.5, 0.03);
  StateVector zero(2);
  zero[0] = 0.0;  // no amplitude anywhere
  Rng zrng(1);
  EXPECT_THROW(sample(zero, 10, zrng), Error);
}

TEST(Sampling, MatchesBornRule) {
  StateVector s(1);
  apply_gate(s, Gate::ry(0, 2.0 * std::acos(std::sqrt(0.8))));
  // P(0) = 0.8.
  Rng rng(3);
  const auto shots = sample(s, 10000, rng);
  const double p0 =
      static_cast<double>(std::count(shots.begin(), shots.end(), Index{0})) /
      10000.0;
  EXPECT_NEAR(p0, 0.8, 0.02);
}

}  // namespace
}  // namespace hisim::sv
