// Fuzz-style testing of the text front ends. Random circuits are
// written, re-parsed, and must simulate to the same state; suite circuits
// round-trip too. Seeded mutations of valid QASM, Pauli strings and
// `hisim run` argument lists must parse or throw hisim::Error, nothing
// else (the ASan and UBSan jobs run this file). Complements the targeted
// cases in test_qasm.cpp and test_cli_flags.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "hisvsim/cli_flags.hpp"
#include "hisvsim/engine.hpp"
#include "opt/pass_manager.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "sv/observables.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim::qasm {
namespace {

Circuit random_qelib_circuit(unsigned n, std::size_t gates,
                             std::uint64_t seed,
                             const testutil::CircuitKnobs& extra = {}) {
  testutil::CircuitKnobs knobs = extra;
  knobs.qasm_safe = true;
  Circuit c = testutil::random_circuit(n, gates, seed, knobs);
  c.set_name("fuzz");
  return c;
}

class QasmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QasmFuzz, WriteParseSimulateIdentical) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const unsigned n = 4 + static_cast<unsigned>(rng.below(4));
  const Circuit c = random_qelib_circuit(n, 30 + rng.below(40), seed * 13);
  const std::string text = write(c);
  const Circuit back = parse(text);
  EXPECT_EQ(back.num_qubits(), c.num_qubits());
  sv::FlatSimulator sim;
  EXPECT_LT(sim.simulate(c).max_abs_diff(sim.simulate(back)), 1e-9)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, QasmFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

class QasmOptFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// The optimizer's output must survive the QASM path: every gate the
// passes emit (or merge into existence — e.g. summed rotation angles)
// must be writable, re-parseable, and recompile to an equivalent plan.
// The knobs plant cancellations and identity angles so the pipeline
// actually fires on most seeds.
TEST_P(QasmOptFuzz, OptimizedCircuitsRoundTripAndRecompile) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 31 + 5);
  const unsigned n = 4 + static_cast<unsigned>(rng.below(4));
  testutil::CircuitKnobs knobs;
  knobs.duplicate_prob = 0.3;
  knobs.trivial_angle_prob = 0.15;
  const Circuit c =
      random_qelib_circuit(n, 40 + rng.below(30), seed * 7 + 1, knobs);
  const Circuit opt = optimize(c, 1);
  const Circuit back = parse(write(opt));  // writer must accept all of opt
  EXPECT_EQ(back.num_gates(), opt.num_gates()) << "seed " << seed;
  sv::FlatSimulator sim;
  const sv::StateVector ref = sim.simulate(c);
  // Optimization preserves the state up to a global phase; the QASM
  // round-trip itself is exact up to angle-printing precision.
  EXPECT_LT(testutil::max_abs_diff_up_to_phase(ref, sim.simulate(back)),
            1e-9)
      << "seed " << seed;
  // Recompiling the parsed text re-runs the default pipeline on its own
  // output plus anything printing exposed — still the same state.
  const Result r = Engine::compile(back, Options{}).execute();
  EXPECT_LT(testutil::max_abs_diff_up_to_phase(ref, r.state), 1e-9)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, QasmOptFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(QasmSuiteRoundTrip, AllBenchmarkFamilies) {
  for (const auto& b : circuits::qasmbench_suite()) {
    const Circuit c = b.make(8);
    const Circuit back = parse(write(c));
    sv::FlatSimulator sim;
    EXPECT_LT(sim.simulate(c).max_abs_diff(sim.simulate(back)), 1e-8)
        << b.name;
  }
}

TEST(QasmWriter, EmitsHeaderAndRegister) {
  Circuit c(3);
  c.add(Gate::h(0));
  const std::string text = write(c);
  EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(text.find("qreg q[3];"), std::string::npos);
  EXPECT_NE(text.find("h q[0];"), std::string::npos);
}

TEST(QasmWriter, HighPrecisionAngles) {
  Circuit c(1);
  c.add(Gate::rz(0, 0.12345678901234567));
  const Circuit back = parse(write(c));
  EXPECT_NEAR(back.gate(0).params[0].value(), 0.12345678901234567, 1e-15);
}

TEST(QasmParser, WhitespaceAndCommentsRobust) {
  const Circuit c = parse(
      "// header comment\nOPENQASM 2.0;\n\n\nqreg   q[2]  ;\n"
      "h\nq[0];  // trailing\ncx q[0] , q[1];");
  EXPECT_EQ(c.num_gates(), 2u);
}

// ---- mutation fuzzing -------------------------------------------------------

constexpr int kMutantsPerParser = 3000;

/// Number literals that sit on the parsers' edges. Values the QASM parser
/// accepts as register sizes stay at or below 2^12: a whole-register
/// broadcast over a 2^31-qubit register is a legal program of 2^31 gates,
/// too large to expand here. Literals of 2^32 and more are rejected.
const std::vector<std::string> kEdgeNumbers = {
    "0",          "1",           "2",          "3",
    "15",         "16",          "63",         "64",
    "4096",       "4294967296",  "4294967298", "18446744073709551616",
    "1e400",      "-1",          "0.5",        "1e-320",
    "99999999999999999999999"};

/// `text` after 1 to 4 random edits: delete a span, duplicate a span,
/// insert a token of `dict`, replace a byte, replace a digit run with an
/// edge number, or cut the text short.
std::string mutate(std::string text, Rng& rng,
                   std::span<const std::string> dict) {
  static const std::string kBytes =
      "()[]{},;:=*+-/^.\"\n 0123456789qxyzXYZI";
  const auto pos = [&] {
    return static_cast<std::size_t>(rng.below(text.size() + 1));
  };
  for (std::uint64_t e = 1 + rng.below(4); e > 0; --e) {
    const std::size_t at = pos();
    switch (rng.below(6)) {
      case 0:
        text.erase(at, 1 + rng.below(8));
        break;
      case 1:
        text.insert(pos(), text.substr(at, 1 + rng.below(16)));
        break;
      case 2:
        text.insert(at, dict[rng.below(dict.size())]);
        break;
      case 3:
        if (at < text.size()) text[at] = kBytes[rng.below(kBytes.size())];
        break;
      case 4: {
        std::size_t d = text.find_first_of("0123456789", at);
        if (d == std::string::npos) d = text.find_first_of("0123456789");
        if (d == std::string::npos) break;
        std::size_t end = d;
        while (end < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[end])))
          ++end;
        text.replace(d, end - d,
                     kEdgeNumbers[rng.below(kEdgeNumbers.size())]);
        break;
      }
      default:
        text.resize(at);
        break;
    }
  }
  return text;
}

/// Runs `fn` on one mutant: returning or throwing hisim::Error passes,
/// any other exception fails with the input that caused it.
template <class Fn>
void expect_parses_or_errors(const std::string& input, Fn fn) {
  try {
    fn();
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-Error exception: " << e.what() << "\ninput:\n"
                  << input;
  } catch (...) {
    ADD_FAILURE() << "non-exception throw\ninput:\n" << input;
  }
}

/// True when `text` holds a bracketed integer `[ N ]` with N in
/// (2^12, 2^32): a register size the QASM parser would accept and expand
/// over.
bool has_wide_register_literal(const std::string& text) {
  const auto skip_space = [&text](std::size_t i) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    return i;
  };
  for (std::size_t open = text.find('['); open != std::string::npos;
       open = text.find('[', open + 1)) {
    std::size_t i = skip_space(open + 1);
    unsigned long long v = 0;
    const std::size_t first = i;
    for (; i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]));
         ++i)  // saturates: 2^33 is rejected anyway
      v = std::min(v * 10 + static_cast<unsigned>(text[i] - '0'),
                   1ull << 33);
    i = skip_space(i);
    if (i > first && i < text.size() && text[i] == ']' && v > 4096 &&
        v < 4294967296ull)
      return true;
  }
  return false;
}

TEST(ParserFuzz, MutatedQasmParsesOrThrowsError) {
  std::vector<std::string> seeds;
  for (const auto& b : circuits::qasmbench_suite())
    seeds.push_back(write(b.make(6)));
  // User gate definitions, parameter expressions and broadcasts: the
  // suite's writer output has none of them.
  seeds.push_back(R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
gate maj(t) a,b,c { cx c,b; cx c,a; ccx a,b,c; rz(t/2) a; }
gate pair(x, y) a,b,c { u3(x, -y, pi/4) a; cu1(sin(x)^2) a,b; maj(y) a,b,c; }
pair(0.3, -(1.2 + pi)) q[0],q[1],q[2];
h q;
barrier q;
measure q -> c;
)");
  const std::vector<std::string> dict = {
      "(",      ")",       "{",        "}",       "[",       "]",
      ",",      ";",       "->",       "==",      "//",      "\"",
      "gate ",  "qreg ",   "creg ",    "measure ", "barrier ", "opaque ",
      "reset ", "if ",     "include ", "pi",      "sin(",    "u3(",
      "ccx ",   "maj ",    "pair ",    "q[0]",    "a,b",     "OPENQASM 2.0;"};
  Rng rng(0x9a51);
  int skipped = 0;
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::string text =
        mutate(seeds[rng.below(seeds.size())], rng, dict);
    if (has_wide_register_literal(text)) {
      ++skipped;
      continue;
    }
    expect_parses_or_errors(text, [&] { (void)parse(text); });
  }
  EXPECT_LT(skipped, kMutantsPerParser / 20);
}

TEST(ParserFuzz, MutatedPauliStringsParseOrThrowError) {
  const std::vector<std::string> seeds = {
      "Z0*Z1", "X0 Y3 Z7", "XYZI", "zz", "Y12*X3,Z0", "I", "Z4294967295", ""};
  const std::vector<std::string> dict = {"X", "Y", "Z", "I", "*", " ",
                                         ",", "0", "99", "-"};
  Rng rng(0x9a52);
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::string text =
        mutate(seeds[rng.below(seeds.size())], rng, dict);
    expect_parses_or_errors(text, [&] {
      const sv::PauliString p = sv::PauliString::parse(text);
      // What parse accepts, to_string prints and parse reads back.
      EXPECT_EQ(sv::PauliString::parse(p.to_string()).factors, p.factors)
          << text;
      p.check(64);
    });
  }
}

TEST(ParserFuzz, MutatedRunFlagsParseOrThrowError) {
  using Args = std::vector<std::string>;
  const std::vector<Args> seeds = {
      {"--qubits=12", "--ranks=4", "--level2=6", "--backend=threaded"},
      {"--target=iqs-baseline", "--ranks=4", "--json", "--shots=100"},
      {"--sweep", "gamma0=0.1:3:3", "--sweep=beta0=0.1:1.5:3", "--bind",
       "gamma1=0.5", "--bind=beta1=0.3"},
      {"--noise", "depolarizing=0.02", "--noise=readout=0.01",
       "--trajectories=8", "--observable=Z0*Z1", "--noise-seed=7"},
      {"--kernel=scalar", "--strategy=nat", "--opt-level=0", "--limit=10",
       "--trace=t.json", "--dot=d.dot", "--exact"},
      {"--target=flat", "--observable", "X0 Y1", "--noise=damping=0.1",
       "--trajectories=2"}};
  const std::vector<std::string> dict = {
      "--",      "=",        ":",        "--ranks=", "--sweep", "--bind",
      "--noise", "--target=", "readout=", "damping", "nan",     "-"};
  Rng rng(0x9a53);
  for (int i = 0; i < kMutantsPerParser; ++i) {
    Args args = seeds[rng.below(seeds.size())];
    for (std::uint64_t e = 1 + rng.below(3); e > 0; --e) {
      const std::size_t at = rng.below(args.size() + 1);
      switch (rng.below(4)) {
        case 0:
          if (at < args.size())
            args.erase(args.begin() + static_cast<long>(at));
          break;
        case 1: {
          const Args& other = seeds[rng.below(seeds.size())];
          args.insert(args.begin() + static_cast<long>(at),
                      other[rng.below(other.size())]);
          break;
        }
        default:
          if (at < args.size()) args[at] = mutate(args[at], rng, dict);
          break;
      }
    }
    std::string input;
    for (const std::string& a : args) input += " '" + a + "'";
    expect_parses_or_errors(input, [&] {
      const cli::Flags f = cli::parse_flags(args);
      // sweep_points materializes up to 10^6 points and rejects larger
      // grids before allocating; grids in between are valid but too large
      // to build thousands of times here.
      std::size_t grid = 1;
      for (const cli::SweepSpec& sw : f.sweeps)
        grid = sw.steps > (std::size_t{1} << 40) / grid ? std::size_t{1} << 40
                                                         : grid * sw.steps;
      if (grid <= 4096 || grid > 1'000'000) (void)cli::sweep_points(f);
      (void)cli::noise_model(f);
      (void)cli::engine_options(f);
      for (const std::string& o : f.observables)
        (void)sv::PauliString::parse(o);
    });
  }
}

}  // namespace
}  // namespace hisim::qasm
