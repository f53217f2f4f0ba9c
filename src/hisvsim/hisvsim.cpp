#include "hisvsim/hisvsim.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "dag/circuit_dag.hpp"

namespace hisim {

unsigned HiSvSim::effective_limit(const Circuit& c) const {
  if (opt_.limit != 0) return std::min(opt_.limit, c.num_qubits());
  if (opt_.process_qubits > 0) {
    HISIM_CHECK(opt_.process_qubits < c.num_qubits());
    return c.num_qubits() - opt_.process_qubits;
  }
  return std::min(sv::kInnerBudgetQubits, c.num_qubits());
}

Options HiSvSim::engine_options(const Circuit& c, bool distributed) const {
  Options o;
  if (distributed) {
    o.target = target_for_backend(opt_.backend);
  } else {
    o.target = opt_.level2_limit > 0 ? Target::Multilevel
                                     : Target::Hierarchical;
  }
  o.strategy = opt_.strategy;
  o.limit = effective_limit(c);
  o.level2_limit = opt_.level2_limit;
  o.process_qubits = opt_.process_qubits;
  o.seed = opt_.seed;
  return o;
}

partition::Partitioning HiSvSim::plan(const Circuit& c) const {
  const dag::CircuitDag dag(c);
  partition::PartitionOptions po;
  po.strategy = opt_.strategy;
  po.limit = effective_limit(c);
  po.seed = opt_.seed;
  return partition::make_partition(dag, po);
}

sv::StateVector HiSvSim::simulate(const Circuit& c, RunReport* report) const {
  Result r = Engine::compile(c, engine_options(c, false)).execute();
  if (report) {
    RunReport rep;
    rep.parts = r.parts;
    rep.inner_parts = r.inner_parts;
    rep.partition_seconds = r.partition_seconds;
    rep.hier.parts = r.parts;
    rep.hier.inner_parts = r.inner_parts;
    rep.hier.gather_seconds = r.gather_seconds;
    rep.hier.execute_seconds = r.apply_seconds;
    rep.hier.scatter_seconds = r.scatter_seconds;
    rep.hier.outer_bytes_moved = r.outer_bytes_moved;
    rep.hier.inner_bytes_touched = r.inner_bytes_touched;
    rep.hier.flops = r.flops;
    *report = rep;
  }
  return std::move(r.state);
}

sv::StateVector HiSvSim::simulate_distributed(const Circuit& c,
                                              RunReport* report) const {
  HISIM_CHECK_MSG(opt_.process_qubits > 0,
                  "simulate_distributed requires process_qubits > 0");
  ExecOptions x;
  x.net = opt_.net;
  Result r = Engine::compile(c, engine_options(c, true)).execute(x);
  if (report) {
    RunReport rep;
    rep.distributed = true;
    rep.parts = r.parts;
    rep.inner_parts = r.inner_parts;
    rep.partition_seconds = r.partition_seconds;
    rep.dist.parts = r.parts;
    rep.dist.inner_parts = r.inner_parts;
    rep.dist.ranks = r.ranks;
    rep.dist.partition_seconds = r.partition_seconds;
    rep.dist.compute_seconds = r.compute_seconds;
    rep.dist.comm = r.comm;
    rep.dist.part_times = r.part_times;
    rep.dist.measured_comm_seconds = r.measured_comm_seconds;
    rep.dist.measured_wall_seconds = r.measured_wall_seconds;
    rep.dist.measured_overlap_seconds = r.measured_overlap_seconds;
    *report = rep;
  }
  return std::move(r.state);
}

}  // namespace hisim
