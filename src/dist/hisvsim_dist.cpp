#include "dist/hisvsim_dist.hpp"

#include <algorithm>
#include <numeric>

#include "circuit/decompose.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dag/circuit_dag.hpp"
#include "sv/hierarchical.hpp"
#include "sv/kernels.hpp"

namespace hisim::dist {
namespace {

/// `qubits` (strictly ascending) plus the lowest slots it lacks, until it
/// holds `width` slots; strictly ascending.
std::vector<Qubit> pad_slots(std::span<const Qubit> qubits, unsigned width) {
  std::vector<Qubit> out(qubits.begin(), qubits.end());
  for (Qubit s = 0; out.size() < width; ++s)
    if (!std::binary_search(qubits.begin(), qubits.end(), s)) out.push_back(s);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

unsigned pad_width(const DistPlan& plan) {
  return std::min({plan.level2_limit, plan.num_qubits - plan.process_qubits,
                   sv::kCacheQubits});
}

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
  // remapping it implies — is known before any amplitude exists.
  trace::TraceSpan schedule_span("schedule.build", "dist");
  const RankLayout identity = RankLayout::identity(n, p);
  const RankLayout* prev = &identity;
  for (const partition::Part& part : parts.parts) {
    DistPlan::Step step;
    step.layout = RankLayout::for_part(n, p, part.qubits, *prev);

    Circuit local(l);
    for (const std::string& pn : plan.circuit.param_names()) local.param(pn);
    for (std::size_t gi : part.gates) {
      Gate g = plan.circuit.gate(gi);
      for (Qubit& q : g.qubits)
        q = static_cast<Qubit>(step.layout.slot_of(q));
      step.parametric = step.parametric || g.is_parametric();
      if (g.kind == GateKind::NoiseSlot)
        step.noise_slots.emplace_back(local.num_gates(), g.noise_slot_id());
      local.add(std::move(g));
    }
    step.local = std::move(local);

    if (opt.level2_limit > 0) {
      // Second level: partition the part's slot-local sub-circuit with the
      // cache-sized limit. Booked as partition time, not compute.
      partition::PartitionOptions po2 = po;
      po2.limit = std::min(opt.level2_limit, l);
      const dag::CircuitDag sdag(step.local);
      step.inner = partition::make_partition(sdag, po2);
      // A narrow part pads to the cache limit: fewer cosets, longer runs
      // per copy and fewer kernel calls per amplitude, with the same
      // arithmetic on every amplitude.
      for (const partition::Part& ip : step.inner.parts)
        step.padded.push_back(pad_slots(ip.qubits, pad_width(plan)));
      plan.inner_parts += step.inner.num_parts();
      plan.partition_seconds += step.inner.partition_seconds;
    }

    plan.steps.push_back(std::move(step));
    prev = &plan.steps.back().layout;
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
  HISIM_CHECK_MSG(state.num_qubits() == n && state.num_ranks() == (1u << p),
                  "state shape does not match plan");
  HISIM_CHECK_MSG(state.layout() == RankLayout::identity(n, p),
                  "state layout is not the identity the plan starts from");
  const unsigned v = state.num_ranks();
  CommBackend& backend = backend_ptr ? *backend_ptr : serial_backend();
  // One rank never exchanges. It reports like Alg. 1 on one node instead:
  // the level-2 parts add run_part's keys, and the steps without them add
  // their apply window to apply.seconds.
  std::map<std::string, double>* part_metrics = v == 1 ? metrics : nullptr;
  double direct_apply = 0.0;

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

  std::int64_t step_index = 0;
  for (const DistPlan::Step& step : plan.steps) {
    trace::TraceSpan step_span("step", "dist");
    step_span.arg("index", step_index++);
    // (1) Relayout: one collective exchange at most, none if the part's
    // qubits are already local. The exchange is started asynchronously;
    // each rank below waits only for its own shard before applying.
    Timer wall;
    CommStats step_comm;
    const std::unique_ptr<ExchangeHandle> handle =
        state.redistribute_async(step.layout, net, step_comm, backend);
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
            if (step.inner.num_parts() == 0) {
              sv::apply_gates(state.local(rank), local.gates(), kops);
            } else {
              // With more than one rank, level-2 parts record nothing: the
              // step's apply window is the rank's measurement.
              for (std::size_t i = 0; i < step.inner.parts.size(); ++i)
                sv::run_part(local, step.inner.parts[i].gates,
                             step.padded[i], state.local(rank), part_metrics,
                             &kops);
            }
            const double t1 = wall.seconds();
            MutexLock lk(comp_mu);
            if (comp_begin < 0.0 || t0 < comp_begin) comp_begin = t0;
            comp_end = std::max(comp_end, t1);
          }
        },
        /*grain=*/1);

    const double part_comp = comp_begin < 0.0 ? 0.0 : comp_end - comp_begin;
    if (step.inner.num_parts() == 0) direct_apply += part_comp;
    if (handle) {
      trace::TraceSpan wait_span("exchange.wait_all", "dist");
      handle->wait_all();
    }
    if (handle) {
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

  if (metrics == nullptr) return;
  if (v == 1) {
    (*metrics)["apply.seconds"] += direct_apply;
    return;
  }
  for (const auto& [key, value] : reg.flat()) (*metrics)[key] = value;
  (*metrics)["exchange.modeled_avg_seconds"] = modeled_avg;
  (*metrics)["step.pipelined_seconds"] = pipelined;
}

}  // namespace hisim::dist
