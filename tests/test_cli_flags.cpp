#include "hisvsim/cli_flags.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace hisim::cli {
namespace {

TEST(CliFlags, Defaults) {
  const Flags f = parse_flags({});
  EXPECT_EQ(f.qubits, 14u);
  EXPECT_EQ(f.limit, 0u);
  EXPECT_EQ(f.ranks_p, 0u);
  EXPECT_FALSE(f.json);
  EXPECT_EQ(effective_target(f), Target::Hierarchical);
}

TEST(CliFlags, ParsesNumbersAndSwitches) {
  const Flags f = parse_flags({"--qubits=20", "--limit=12", "--level2=6",
                               "--shots=100", "--json", "--exact",
                               "--dot=out.dot"});
  EXPECT_EQ(f.qubits, 20u);
  EXPECT_EQ(f.limit, 12u);
  EXPECT_EQ(f.level2, 6u);
  EXPECT_EQ(f.shots, 100u);
  EXPECT_TRUE(f.json);
  EXPECT_TRUE(f.exact);
  EXPECT_EQ(f.dot, "out.dot");
}

TEST(CliFlags, RanksPowerOfTwoMapsToProcessQubits) {
  EXPECT_EQ(parse_flags({"--ranks=1"}).ranks_p, 0u);
  EXPECT_EQ(parse_flags({"--ranks=2"}).ranks_p, 1u);
  EXPECT_EQ(parse_flags({"--ranks=4"}).ranks_p, 2u);
  EXPECT_EQ(parse_flags({"--ranks=16"}).ranks_p, 4u);
}

TEST(CliFlags, RanksRejectsNonPowerOfTwo) {
  // The old parser silently rounded 3 up to 4 ranks; it must be an error.
  for (const char* bad : {"--ranks=3", "--ranks=5", "--ranks=6",
                          "--ranks=12", "--ranks=0"})
    EXPECT_THROW(parse_flags({bad}), Error) << bad;
  try {
    parse_flags({"--ranks=5"});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("power of two"), std::string::npos);
  }
}

TEST(CliFlags, RejectsMalformedNumbers) {
  EXPECT_THROW(parse_flags({"--qubits=abc"}), Error);
  EXPECT_THROW(parse_flags({"--ranks=4x"}), Error);
  EXPECT_THROW(parse_flags({"--shots=-2"}), Error);
  EXPECT_THROW(parse_flags({"--limit="}), Error);
  // Values that only fit after truncation are errors, not wrap-arounds
  // (2^32 + 1 would otherwise silently become qubits=1).
  EXPECT_THROW(parse_flags({"--qubits=4294967297"}), Error);
  EXPECT_THROW(parse_flags({"--limit=99999999999999999999999"}), Error);
}

TEST(CliFlags, RejectsUnknownFlagAndNames) {
  EXPECT_THROW(parse_flags({"--frobnicate=1"}), Error);
  EXPECT_THROW(parse_flags({"--strategy=greedy"}), Error);
  EXPECT_THROW(parse_flags({"--backend=mpi"}), Error);
  EXPECT_THROW(parse_flags({"--target=gpu"}), Error);
}

TEST(CliFlags, StrategyAndBackendNames) {
  EXPECT_EQ(parse_flags({"--strategy=nat"}).strategy,
            partition::Strategy::Nat);
  EXPECT_EQ(parse_flags({"--strategy=dfs"}).strategy,
            partition::Strategy::Dfs);
  EXPECT_EQ(parse_flags({"--strategy=dagp"}).strategy,
            partition::Strategy::DagP);
  EXPECT_EQ(parse_flags({"--backend=threaded"}).backend,
            dist::BackendKind::Threaded);
}

TEST(CliFlags, TargetDerivation) {
  EXPECT_EQ(effective_target(parse_flags({"--ranks=4"})),
            Target::DistributedSerial);
  EXPECT_EQ(effective_target(parse_flags({"--ranks=4", "--backend=threaded"})),
            Target::DistributedThreaded);
  EXPECT_EQ(effective_target(parse_flags({"--ranks=4", "--level2=5"})),
            Target::DistributedSerial);
  EXPECT_EQ(effective_target(parse_flags({"--target=flat"})), Target::Flat);
  EXPECT_EQ(effective_target(parse_flags({"--target=iqs-baseline",
                                          "--ranks=4"})),
            Target::IqsBaseline);
  // An explicit distributed target agreeing with an explicit backend is
  // fine; --level2 composes with the targets that honor it.
  EXPECT_EQ(effective_target(parse_flags({"--target=distributed-threaded",
                                          "--ranks=4",
                                          "--backend=threaded"})),
            Target::DistributedThreaded);
  EXPECT_EQ(effective_target(parse_flags({"--target=distributed-serial",
                                          "--ranks=4", "--level2=5"})),
            Target::DistributedSerial);
}

TEST(CliFlags, DistributedTargetRequiresRanks) {
  EXPECT_THROW(effective_target(parse_flags({"--target=distributed-serial"})),
               Error);
}

TEST(CliFlags, RejectsContradictoryTargetFlags) {
  // --target silently overriding another explicit flag would be the same
  // "fix it quietly" failure mode as the old --ranks rounding.
  EXPECT_THROW(
      effective_target(parse_flags(
          {"--target=distributed-serial", "--ranks=4", "--backend=threaded"})),
      Error);
  EXPECT_THROW(
      effective_target(parse_flags(
          {"--target=distributed-threaded", "--ranks=4", "--backend=serial"})),
      Error);
  EXPECT_THROW(
      effective_target(parse_flags({"--target=flat", "--level2=5"})), Error);
  EXPECT_THROW(
      effective_target(parse_flags({"--target=hierarchical", "--level2=5"})),
      Error);
  // Flags that the chosen target ignores are errors, not no-ops.
  EXPECT_THROW(
      effective_target(parse_flags({"--target=hierarchical", "--ranks=8"})),
      Error);
  EXPECT_THROW(
      effective_target(parse_flags(
          {"--target=iqs-baseline", "--ranks=4", "--backend=threaded"})),
      Error);
  EXPECT_THROW(
      effective_target(parse_flags(
          {"--target=iqs-baseline", "--ranks=4", "--level2=5"})),
      Error);
  EXPECT_THROW(effective_target(parse_flags({"--backend=threaded"})), Error);
  // Only the distributed targets run a second level, so --level2 needs
  // --ranks.
  EXPECT_THROW(effective_target(parse_flags({"--level2=5"})), Error);
}

TEST(CliFlags, OptLevelParsesAndFlowsToOptions) {
  EXPECT_EQ(parse_flags({}).opt_level, 1u);
  EXPECT_EQ(parse_flags({"--opt-level=0"}).opt_level, 0u);
  EXPECT_EQ(parse_flags({"--opt-level=1"}).opt_level, 1u);
  EXPECT_EQ(engine_options(parse_flags({"--opt-level=0"})).opt_level, 0u);
  EXPECT_EQ(engine_options(parse_flags({})).opt_level, 1u);
}

TEST(CliFlags, OptLevelRejectsUnknownLevels) {
  // Unknown levels are parse errors, not something for the engine to
  // discover later — consistent with the loud-rejection flag policy.
  EXPECT_THROW(parse_flags({"--opt-level=2"}), Error);
  EXPECT_THROW(parse_flags({"--opt-level=7"}), Error);
  EXPECT_THROW(parse_flags({"--opt-level=abc"}), Error);
  EXPECT_THROW(parse_flags({"--opt-level="}), Error);
}

TEST(CliFlags, EngineOptionsRoundTrip) {
  const Options o = engine_options(
      parse_flags({"--ranks=8", "--backend=threaded", "--limit=10",
                   "--level2=4", "--strategy=dfs"}));
  EXPECT_EQ(o.target, Target::DistributedThreaded);
  EXPECT_EQ(o.process_qubits, 3u);
  EXPECT_EQ(o.limit, 10u);
  EXPECT_EQ(o.level2_limit, 4u);
  EXPECT_EQ(o.strategy, partition::Strategy::Dfs);
}

TEST(CliFlags, BindParsesBothSpellings) {
  const Flags f = parse_flags(
      {"--bind", "gamma0=0.5", "--bind=beta0=-1.25e-1"});
  ASSERT_EQ(f.bindings.size(), 2u);
  EXPECT_EQ(f.bindings.at("gamma0"), 0.5);
  EXPECT_EQ(f.bindings.at("beta0"), -0.125);
  // Subnormal underflow is a representable finite value (glibc sets
  // ERANGE for it); only real overflow/NaN are rejected.
  EXPECT_EQ(parse_flags({"--bind=g=1e-310"}).bindings.at("g"), 1e-310);
  EXPECT_THROW(parse_flags({"--bind=g=1e999"}), Error);
}

TEST(CliFlags, SweepParsesAxes) {
  const Flags f = parse_flags({"--sweep", "gamma0=0:3:4",
                               "--sweep=beta0=0.5:0.5:1"});
  ASSERT_EQ(f.sweeps.size(), 2u);
  EXPECT_EQ(f.sweeps[0].name, "gamma0");
  EXPECT_EQ(f.sweeps[0].start, 0.0);
  EXPECT_EQ(f.sweeps[0].stop, 3.0);
  EXPECT_EQ(f.sweeps[0].steps, 4u);
  EXPECT_EQ(f.sweeps[1].steps, 1u);

  const auto points = sweep_points(f);
  ASSERT_EQ(points.size(), 4u);  // 4 x 1 grid
  EXPECT_EQ(points[0].at("gamma0"), 0.0);
  EXPECT_EQ(points[1].at("gamma0"), 1.0);
  EXPECT_EQ(points[3].at("gamma0"), 3.0);
  for (const ParamBinding& p : points) EXPECT_EQ(p.at("beta0"), 0.5);
}

TEST(CliFlags, SweepPointsAreCartesianWithBinds) {
  const Flags f = parse_flags({"--sweep=a=0:1:2", "--sweep=b=0:2:3",
                               "--bind=c=9"});
  const auto points = sweep_points(f);
  ASSERT_EQ(points.size(), 6u);  // 2 x 3, last axis fastest
  EXPECT_EQ(points[0].at("a"), 0.0);
  EXPECT_EQ(points[0].at("b"), 0.0);
  EXPECT_EQ(points[1].at("b"), 1.0);
  EXPECT_EQ(points[2].at("b"), 2.0);
  EXPECT_EQ(points[3].at("a"), 1.0);
  for (const ParamBinding& p : points) EXPECT_EQ(p.at("c"), 9.0);
  // No --sweep: nothing to expand (plain single execution).
  EXPECT_TRUE(sweep_points(parse_flags({"--bind=c=9"})).empty());
}

TEST(CliFlags, RejectsMalformedAndContradictoryParams) {
  EXPECT_THROW(parse_flags({"--bind=gamma0"}), Error);          // no value
  EXPECT_THROW(parse_flags({"--bind==0.5"}), Error);            // no name
  EXPECT_THROW(parse_flags({"--bind=g=abc"}), Error);           // not a number
  EXPECT_THROW(parse_flags({"--bind=g=nan"}), Error);           // non-finite
  EXPECT_THROW(parse_flags({"--bind"}), Error);                 // dangling
  EXPECT_THROW(parse_flags({"--sweep=g=0:1"}), Error);          // no steps
  EXPECT_THROW(parse_flags({"--sweep=g=0:1:0"}), Error);        // steps=0
  EXPECT_THROW(parse_flags({"--sweep=g=0:1:1"}), Error);  // 1 step, 2 values
  // Duplicates and bind/sweep contradictions, in either flag order.
  EXPECT_THROW(parse_flags({"--bind=g=1", "--bind=g=2"}), Error);
  EXPECT_THROW(parse_flags({"--sweep=g=0:1:2", "--sweep=g=0:2:3"}), Error);
  EXPECT_THROW(parse_flags({"--bind=g=1", "--sweep=g=0:1:2"}), Error);
  EXPECT_THROW(parse_flags({"--sweep=g=0:1:2", "--bind=g=1"}), Error);
  try {
    parse_flags({"--bind=g=1", "--sweep=g=0:1:2"});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'g'"), std::string::npos);
  }
  // --shots is single-run only; silently dropping it in sweep mode would
  // be the quiet-fix failure mode this parser exists to reject.
  EXPECT_THROW(parse_flags({"--sweep=g=0:1:2", "--shots=100"}), Error);
  EXPECT_NO_THROW(parse_flags({"--bind=g=1", "--shots=100"}));
}

TEST(CliFlags, SweepGridSizeIsCapped) {
  // A typo'd steps value must fail with a clear Error, not OOM while
  // materializing the grid (overflow-safe across axes too).
  EXPECT_THROW(sweep_points(parse_flags({"--sweep=a=0:1:4294967295"})),
               Error);
  EXPECT_THROW(sweep_points(parse_flags({"--sweep=a=0:1:100000",
                                         "--sweep=b=0:1:100000"})),
               Error);
  EXPECT_EQ(sweep_points(parse_flags({"--sweep=a=0:1:1000"})).size(), 1000u);
}

TEST(CliFlags, NoiseAndTrajectoriesParse) {
  const Flags f = parse_flags({"--noise=depolarizing=0.02", "--noise",
                               "readout=0.01", "--trajectories=500",
                               "--noise-seed=99", "--observable=Z0*Z3",
                               "--observable", "X1"});
  ASSERT_EQ(f.noise.size(), 2u);
  EXPECT_EQ(f.noise[0].first, "depolarizing");
  EXPECT_EQ(f.noise[0].second, 0.02);
  EXPECT_EQ(f.noise[1].first, "readout");
  EXPECT_EQ(f.trajectories, 500u);
  EXPECT_EQ(f.noise_seed, 99u);
  ASSERT_EQ(f.observables.size(), 2u);
  EXPECT_EQ(f.observables[0], "Z0*Z3");
  EXPECT_EQ(f.observables[1], "X1");
  // The model carries every channel; its slots are reserved at compile.
  EXPECT_FALSE(noise_model(f).empty());
  EXPECT_FALSE(engine_options(f).noise.empty());
  EXPECT_TRUE(noise_model(parse_flags({})).empty());
}

TEST(CliFlags, NoiseRejectionsAreLoud) {
  // Malformed specs and unknown kinds.
  EXPECT_THROW(parse_flags({"--noise=depolarizing"}), Error);  // no value
  EXPECT_THROW(parse_flags({"--noise==0.1"}), Error);          // no kind
  EXPECT_THROW(
      parse_flags({"--noise=cosmic=0.1", "--trajectories=10"}), Error);
  // Noise and trajectories must come as a pair, in either order.
  EXPECT_THROW(parse_flags({"--noise=depolarizing=0.1"}), Error);
  EXPECT_THROW(parse_flags({"--trajectories=10"}), Error);
  EXPECT_THROW(parse_flags({"--trajectories=0"}), Error);
  // Trajectories are incompatible with sweep grids.
  EXPECT_THROW(parse_flags({"--noise=bitflip=0.1", "--trajectories=5",
                            "--sweep=g=0:1:3"}),
               Error);
  // A repeated kind would silently double the channel strength.
  EXPECT_THROW(parse_flags({"--noise=bitflip=0.1", "--noise=bitflip=0.1",
                            "--trajectories=5"}),
               Error);
  EXPECT_THROW(parse_flags({"--noise=readout=0.1", "--noise=readout=0.2",
                            "--trajectories=5"}),
               Error);
  EXPECT_NO_THROW(parse_flags({"--noise=bitflip=0.1",
                               "--noise=phaseflip=0.1",
                               "--trajectories=5"}));
  // A probability outside [0, 1] parses but is rejected when the model
  // is built (before any compile), naming the offending value.
  const Flags bad =
      parse_flags({"--noise=depolarizing=1.5", "--trajectories=10"});
  try {
    (void)noise_model(bad);
    FAIL() << "expected invalid-probability error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("outside [0, 1]"),
              std::string::npos);
  }
  EXPECT_THROW(noise_model(parse_flags(
                   {"--noise=damping=-0.5", "--trajectories=2"})),
               Error);
  EXPECT_THROW(noise_model(parse_flags(
                   {"--noise=readout=1.1", "--trajectories=2"})),
               Error);
}

TEST(CliFlags, TargetNameRoundTrip) {
  for (Target t : {Target::Flat, Target::Hierarchical,
                   Target::DistributedSerial, Target::DistributedThreaded,
                   Target::IqsBaseline})
    EXPECT_EQ(parse_target(target_name(t)), t);
  // "multilevel" is not a target name; the error lists the valid ones.
  try {
    parse_flags({"--target=multilevel"});
    ADD_FAILURE() << "--target=multilevel parsed";
  } catch (const Error& e) {
    const std::string msg = e.what();
    for (Target t : {Target::Flat, Target::Hierarchical,
                     Target::DistributedSerial, Target::DistributedThreaded,
                     Target::IqsBaseline})
      EXPECT_NE(msg.find(target_name(t)), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace hisim::cli
