#include "dist/hisvsim_dist.hpp"

#include <algorithm>
#include <numeric>

#include "circuit/decompose.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dag/circuit_dag.hpp"
#include "sv/kernels.hpp"

namespace hisim::dist {
namespace {

/// The step that applies `gates` of `c` under `layout`.
DistPlan::Step make_step(const Circuit& c, std::span<const std::size_t> gates,
                         RankLayout layout) {
  DistPlan::Step step;
  Circuit local(layout.local_qubits());
  for (const std::string& pn : c.param_names()) local.param(pn);
  for (std::size_t gi : gates) {
    Gate g = c.gate(gi);
    for (Qubit& q : g.qubits) q = static_cast<Qubit>(layout.slot_of(q));
    step.parametric = step.parametric || g.is_parametric();
    if (g.kind == GateKind::NoiseSlot)
      step.noise_slots.emplace_back(local.num_gates(), g.noise_slot_id());
    local.add(std::move(g));
  }
  step.local = std::move(local);
  step.layout = std::move(layout);
  return step;
}

/// The qubits `gates` of `c` move amplitudes along, at most `slots` of
/// them: those `layout` already holds below `slots` first, then the others
/// in ascending order.
std::vector<Qubit> moved_qubits(const Circuit& c,
                                std::span<const std::size_t> gates,
                                const RankLayout& layout, unsigned slots) {
  std::vector<bool> moved(c.num_qubits(), false);
  for (std::size_t gi : gates)
    for (Qubit q : c.gate(gi).moved_qubits()) moved[q] = true;
  std::vector<Qubit> out;
  for (bool in_place : {true, false})
    for (Qubit q = 0; q < c.num_qubits() && out.size() < slots; ++q)
      if (moved[q] && (layout.slot_of(q) < slots) == in_place)
        out.push_back(q);
  return out;
}

}  // namespace

DistPlan compile_plan(Circuit c, const DistOptions& opt) {
  const unsigned n = c.num_qubits();
  const unsigned p = opt.process_qubits;
  HISIM_CHECK_MSG(p < n, "need process_qubits < num_qubits");
  const unsigned l = n - p;

  partition::PartitionOptions po = opt.part;
  po.limit = po.limit == 0 ? l : std::min(po.limit, l);

  DistPlan plan;
  plan.num_qubits = n;
  plan.process_qubits = p;
  plan.level2_limit = opt.level2_limit;

  // Gates wider than a shard can never be made fully local; lower them
  // first (Barenco recursion) so a valid one-exchange-per-part schedule
  // exists. Arity-2 gates that still exceed the limit are rejected by the
  // partitioner below.
  unsigned max_arity = 0;
  for (const Gate& g : c.gates()) max_arity = std::max(max_arity, g.arity());
  if (max_arity > po.limit) {
    trace::TraceSpan span("lower", "dist");
    plan.circuit = lower(c, std::max(po.limit, 2u));
  } else {
    plan.circuit = std::move(c);
  }

  partition::Partitioning parts;
  if (po.limit >= n) {
    // Every qubit fits one rank (p = 0): the whole circuit is one part, so
    // neither the DAG nor the partitioner is needed.
    partition::Part all;
    all.gates.resize(plan.circuit.num_gates());
    std::iota(all.gates.begin(), all.gates.end(), std::size_t{0});
    std::vector<bool> used(n, false);
    for (const Gate& g : plan.circuit.gates())
      for (Qubit q : g.qubits) used[q] = true;
    for (Qubit q = 0; q < n; ++q)
      if (used[q]) all.qubits.push_back(q);
    parts.parts.push_back(std::move(all));
  } else {
    const dag::CircuitDag dag = [&] {
      trace::TraceSpan span("dag.build", "dist");
      return dag::CircuitDag(plan.circuit);
    }();
    parts = partition::make_partition(dag, po);
    plan.partition_seconds = parts.partition_seconds;
  }

  // Walk the layout chain once: each part's target layout depends only on
  // the previous part's, so the whole exchange schedule — and the gate
  // remapping it implies — is known before any amplitude exists. The
  // level-1 chain alone decides the process slots, so a second level
  // changes no exchange.
  trace::TraceSpan schedule_span("schedule.build", "dist");
  const unsigned block = std::min(sv::kCacheQubits, l);
  RankLayout level1 = RankLayout::identity(n, p);
  for (const partition::Part& part : parts.parts) {
    level1 = RankLayout::for_part(part.qubits, level1, l);
    DistPlan::Step whole = make_step(plan.circuit, part.gates, level1);
    ++plan.parts;
    if (opt.level2_limit == 0) {
      plan.steps.push_back(std::move(whole));
      continue;
    }
    // Second level: partition the part's slot-local sub-circuit with the
    // cache-sized limit. Booked as partition time, not compute.
    partition::PartitionOptions po2 = po;
    po2.limit = std::min(opt.level2_limit, l);
    const partition::Partitioning inner =
        partition::make_partition(dag::CircuitDag(whole.local), po2);
    plan.inner_parts += inner.num_parts();
    plan.partition_seconds += inner.partition_seconds;
    const RankLayout* prev = &level1;
    for (const partition::Part& ip : inner.parts) {
      std::vector<std::size_t> gates;
      for (std::size_t j : ip.gates) gates.push_back(part.gates[j]);
      RankLayout layout = RankLayout::for_part(
          moved_qubits(plan.circuit, gates, *prev, block), *prev, block);
      plan.steps.push_back(make_step(plan.circuit, gates, std::move(layout)));
      prev = &plan.steps.back().layout;
    }
  }
  return plan;
}

const Circuit& materialize(const DistPlan::Step& step,
                           std::span<const double> param_values,
                           std::span<const Gate> noise_ops, Circuit& storage) {
  const bool noisy = !noise_ops.empty() && !step.noise_slots.empty();
  if (!step.parametric && !noisy) return step.local;
  // Only the angle values and the trajectory's slot operators change: the
  // layout, slot remapping, and inner partitioning are the plan's.
  trace::TraceSpan bind_span("bind", "dist");
  storage = step.parametric ? step.local.bound(param_values) : step.local;
  if (noisy)
    for (const auto& [gi, slot] : step.noise_slots) {
      HISIM_CHECK_MSG(slot < noise_ops.size(),
                      "noise slot " << slot << " has no sampled operator");
      Gate op = noise_ops[slot];
      op.qubits = storage.gate(gi).qubits;
      storage.set_gate(gi, std::move(op));
    }
  return storage;
}

void execute_plan(const DistPlan& plan, DistState& state,
                  const NetworkModel& net,
                  std::map<std::string, double>* metrics,
                  CommBackend* backend_ptr,
                  std::span<const double> param_values,
                  std::span<const Gate> noise_ops,
                  const sv::KernelOps* kernels) {
  const sv::KernelOps& kops =
      kernels != nullptr ? *kernels : sv::kernel_ops();
  const unsigned n = plan.num_qubits;
  const unsigned p = plan.process_qubits;
  const RankLayout identity = RankLayout::identity(n, p);
  HISIM_CHECK_MSG(state.num_qubits() == n && state.num_ranks() == (1u << p),
                  "state shape does not match plan");
  HISIM_CHECK_MSG(state.layout() == identity,
                  "state layout is not the identity the plan starts from");
  const unsigned v = state.num_ranks();
  CommBackend& backend = backend_ptr ? *backend_ptr : serial_backend();

  // Every per-step measurement is recorded into this run-local registry
  // (local so concurrent executes on separate states cannot
  // cross-pollute), serially on this thread in step order, and flattened
  // into `metrics` at the end. Each step's exchange is charged to its own
  // CommStats, so every distribution sum accumulates the per-event values
  // in the order one running CommStats would have.
  trace::MetricsRegistry reg;
  trace::Counter& c_count = reg.counter("exchange.count");
  trace::Counter& c_bytes = reg.counter("exchange.bytes");
  trace::Counter& c_messages = reg.counter("exchange.messages");
  trace::Distribution& d_modeled = reg.distribution("exchange.modeled_seconds");
  trace::Distribution& d_apply = reg.distribution("apply.seconds");
  trace::Distribution& d_wall = reg.distribution("step.wall_seconds");
  trace::Distribution& d_comm = reg.distribution("exchange.measured_seconds");
  trace::Distribution& d_overlap = reg.distribution("exchange.overlap_seconds");
  double modeled_avg = 0.0;
  // Sec. V-C pipelined estimate: step i's apply hides behind step i+1's
  // exchange, so each step adds max(previous apply, own comm).
  double pipelined = 0.0, prev_comp = 0.0;
  double apply_seconds = 0.0, relayout_seconds = 0.0, relayout_bytes = 0.0;
  // Moves every shard in place to `layout`, which keeps the process slots.
  const auto relayout = [&](const RankLayout& layout) {
    trace::TraceSpan span("relayout", "dist");
    Timer t;
    relayout_bytes += static_cast<double>(state.relayout(layout));
    relayout_seconds += t.seconds();
  };

  std::int64_t step_index = 0;
  for (const DistPlan::Step& step : plan.steps) {
    trace::TraceSpan step_span("step", "dist");
    step_span.arg("index", step_index++);
    // (1) Move amplitudes to the step's layout: in place when only local
    // slots change, else by one collective exchange, started
    // asynchronously; each rank below waits only for its own shard.
    Timer wall;
    CommStats step_comm;
    std::unique_ptr<ExchangeHandle> handle;
    if (!state.layout().shares_process_slots(step.layout))
      handle = state.redistribute_async(step.layout, net, step_comm, backend);
    else if (!(state.layout() == step.layout))
      relayout(step.layout);
    const double part_comm = step_comm.modeled_max_seconds;
    // The comm window on the part clock: movement started (at most) here
    // and finishes handle->finished_after() later (0 for a synchronous
    // backend — its movement already happened).
    const double comm_begin = wall.seconds();

    // Bind and substitute while the exchange is (possibly) in flight.
    Circuit storage;
    const Circuit& local =
        materialize(step, param_values, noise_ops, storage);

    // (2) Local apply: the plan already holds the part's gates remapped to
    // local slots, so each gate is block-diagonal over ranks and applies
    // shard-locally. Ranks are independent, so the apply loop fans out
    // over parallel::for_range (one rank per chunk); shard contents are
    // identical to a serial sweep.
    Mutex comp_mu;
    // Compute window on the part clock: first rank starting to apply
    // (after its shard arrived) → last rank finished.
    double comp_begin = -1.0, comp_end = 0.0;
    parallel::for_range(
        0, v,
        [&](Index lo, Index hi) {
          for (Index r = lo; r < hi; ++r) {
            const unsigned rank = static_cast<unsigned>(r);
            if (handle) handle->wait_shard(rank);
            trace::TraceSpan apply_span("apply", "dist");
            apply_span.arg("rank", rank);
            const double t0 = wall.seconds();
            sv::apply_gates(state.local(rank), local.gates(), kops);
            const double t1 = wall.seconds();
            MutexLock lk(comp_mu);
            if (comp_begin < 0.0 || t0 < comp_begin) comp_begin = t0;
            comp_end = std::max(comp_end, t1);
          }
        },
        /*grain=*/1);

    const double part_comp = comp_begin < 0.0 ? 0.0 : comp_end - comp_begin;
    apply_seconds += part_comp;
    if (handle) {
      trace::TraceSpan wait_span("exchange.wait_all", "dist");
      handle->wait_all();
      d_comm.record(handle->seconds());
      // Overlap = intersection of the comm window [comm_begin, comm_end]
      // and the compute window [comp_begin, comp_end] on the part clock.
      const double comm_end = comm_begin + handle->finished_after();
      if (comp_begin >= 0.0)
        d_overlap.record(std::max(
            0.0, std::min(comm_end, comp_end) - std::max(comm_begin, comp_begin)));
    }
    d_wall.record(wall.seconds());
    d_apply.record(part_comp);
    d_modeled.record(part_comm);
    c_count.add(step_comm.exchanges);
    c_bytes.add(static_cast<std::uint64_t>(step_comm.bytes_total));
    c_messages.add(step_comm.messages_total);
    modeled_avg += step_comm.modeled_avg_seconds;
    pipelined += std::max(prev_comp, part_comm);
    prev_comp = part_comp;
    // Counter tracks in the trace viewer: cumulative modeled network
    // bytes and messages after each step. One rank never exchanges.
    if (v > 1) {
      trace::counter_sample("exchange.bytes",
                            static_cast<double>(c_bytes.value()));
      trace::counter_sample("exchange.messages",
                            static_cast<double>(c_messages.value()));
    }
  }
  pipelined += prev_comp;
  // One rank's shard becomes the state, so it returns to the identity.
  if (v == 1 && !(state.layout() == identity)) relayout(identity);

  if (metrics == nullptr) return;
  std::map<std::string, double>& m = *metrics;
  if (plan.level2_limit > 0) {
    m["relayout.seconds"] = relayout_seconds;
    m["relayout.bytes"] = relayout_bytes;
  }
  if (v == 1) {
    m["apply.seconds"] = apply_seconds;
    return;
  }
  for (const auto& [key, value] : reg.flat()) m[key] = value;
  m["exchange.modeled_avg_seconds"] = modeled_avg;
  m["step.pipelined_seconds"] = pipelined;
}

}  // namespace hisim::dist
