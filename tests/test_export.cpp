#include "partition/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "circuits/generators.hpp"
#include "qasm/parser.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace hisim::partition {
namespace {

Partitioning make_dagp(const Circuit& c, unsigned limit) {
  const dag::CircuitDag d(c);
  PartitionOptions opt;
  opt.limit = limit;
  return make_partition(d, opt);
}

TEST(Export, StructureMatchesParts) {
  const Circuit c = circuits::ising(9, 2, 4);
  const auto parts = make_dagp(c, 5);
  const auto exported = export_parts(c, parts);
  ASSERT_EQ(exported.size(), parts.num_parts());
  std::size_t total_gates = 0;
  for (std::size_t i = 0; i < exported.size(); ++i) {
    EXPECT_EQ(exported[i].circuit.num_qubits(),
              parts.parts[i].working_set());
    EXPECT_EQ(exported[i].circuit.num_gates(), parts.parts[i].gates.size());
    EXPECT_EQ(exported[i].qubit_map, parts.parts[i].qubits);
    total_gates += exported[i].circuit.num_gates();
  }
  EXPECT_EQ(total_gates, c.num_gates());
}

TEST(Export, QasmRoundTripsPerPart) {
  const Circuit c = circuits::qft(8);
  const auto parts = make_dagp(c, 5);
  for (const auto& ep : export_parts(c, parts)) {
    const Circuit back = qasm::parse(ep.qasm);
    EXPECT_EQ(back.num_qubits(), ep.circuit.num_qubits());
    // Parsing may re-express some kinds, so compare simulated states.
    sv::FlatSimulator sim;
    EXPECT_LT(sim.simulate(ep.circuit).max_abs_diff(sim.simulate(back)),
              1e-9);
  }
}

TEST(Export, RemappedPartsReproduceFullState) {
  // Re-execute the exported parts in part order: the final state must
  // equal the flat simulation — this is exactly the hybrid GPU workflow of
  // Sec. VI.
  const Circuit c = circuits::qaoa(8, 2, 11);
  const auto parts = make_dagp(c, 5);
  const auto exported = export_parts(c, parts);
  ASSERT_EQ(exported.size(), parts.num_parts());
  sv::StateVector state(c.num_qubits());
  for (std::size_t pi = 0; pi < exported.size(); ++pi) {
    // Each exported gate on its part-local qubit is the part's gate on
    // the original label.
    const Circuit& local = exported[pi].circuit;
    ASSERT_EQ(local.num_gates(), parts.parts[pi].gates.size());
    for (std::size_t j = 0; j < local.num_gates(); ++j) {
      Gate g = local.gate(j);
      for (Qubit& q : g.qubits) q = exported[pi].qubit_map[q];
      EXPECT_EQ(g, c.gate(parts.parts[pi].gates[j]));
      sv::apply_gate(state, g);
    }
  }
  EXPECT_LT(state.max_abs_diff(sv::FlatSimulator().simulate(c)), 1e-10);
}

TEST(Export, WritesFilesAndManifest) {
  const Circuit c = circuits::bv(8);
  const auto parts = make_dagp(c, 4);
  const std::string prefix = "/tmp/hisim_export_test";
  const std::string manifest = write_part_files(c, parts, prefix);
  std::ifstream m(manifest);
  ASSERT_TRUE(m.good());
  std::string line;
  std::getline(m, line);
  EXPECT_NE(line.find("circuit: bv"), std::string::npos);
  std::size_t files = 0;
  while (std::getline(m, line))
    if (!line.empty()) ++files;
  EXPECT_EQ(files, parts.num_parts());
  for (std::size_t pi = 0; pi < parts.num_parts(); ++pi) {
    const std::string f = prefix + "_p" + std::to_string(pi) + ".qasm";
    EXPECT_NO_THROW(qasm::parse_file(f)) << f;
    std::remove(f.c_str());
  }
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace hisim::partition
